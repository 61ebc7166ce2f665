#include "worm/write_pipeline.hpp"

#include <utility>

#include "common/error.hpp"

namespace worm::core {

bool WriteTicket::ready() const {
  WORM_REQUIRE(state_ != nullptr, "WriteTicket::ready: empty ticket");
  common::MutexLock lk(state_->mu);
  // Asked and unresolved: make the group due. Under the ticket's lock, the
  // pipeline is alive — its shutdown resolves every ticket first.
  if (!state_->done) pipeline_->ask(ordinal_);
  return state_->done;
}

Sn WriteTicket::get() {
  WORM_REQUIRE(state_ != nullptr, "WriteTicket::get: empty ticket");
  common::MutexLock lk(state_->mu);
  if (!state_->done) pipeline_->ask(ordinal_);  // as in ready()
  while (!state_->done) state_->cv.wait(lk);
  if (state_->error) std::rethrow_exception(state_->error);
  return state_->sn;
}

WritePipeline::WritePipeline(WritePipelineConfig config,
                             std::size_t max_batch, FlushFn flush)
    : config_(config), max_batch_(max_batch), flush_(std::move(flush)) {
  WORM_REQUIRE(flush_ != nullptr, "WritePipeline: null flush function");
  committer_ = std::make_unique<common::ThreadPool>(1);
  committer_->submit([this] { committer_loop(); });
}

WritePipeline::~WritePipeline() { shutdown_drop(); }

bool WritePipeline::flush_due_locked() const {
  if (stop_ || flush_all_) return true;
  if (queue_.empty()) return false;
  if (asked_ > taken_) return true;  // an asked write is still queued
  if (queue_.size() >= max_batch_) return true;
  return queued_bytes_ >= kFlushBytes;
}

bool WritePipeline::claim_slot(bool block) {
  common::MutexLock lk(mu_);
  WORM_REQUIRE(!stop_, "WritePipeline::claim_slot: pipeline is shut down");
  if (queue_.size() + reserved_ >= config_.queue_capacity) {
    // A full queue is itself a flush trigger: neither a stalled caller nor a
    // rejected one (who will retry) may depend on a ticket ask for space.
    flush_all_ = true;
    cv_work_.notify_all();
    if (!block) {
      stat_busy_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    stat_stalls_.fetch_add(1, std::memory_order_relaxed);
    while (!stop_ && queue_.size() + reserved_ >= config_.queue_capacity) {
      cv_space_.wait(lk);
    }
    WORM_REQUIRE(!stop_, "WritePipeline::claim_slot: pipeline shut down "
                         "while waiting for queue space");
  }
  ++reserved_;
  return true;
}

WriteTicket WritePipeline::submit_reserved(Pending p) {
  auto state = std::make_shared<detail::TicketState>();
  p.ticket = state;
  std::uint64_t ordinal = 0;
  {
    common::MutexLock lk(mu_);
    WORM_CHECK(reserved_ > 0,
               "WritePipeline::submit_reserved without a reservation");
    --reserved_;
    WORM_REQUIRE(!stop_,
                 "WritePipeline::submit_reserved: pipeline is shut down");
    queued_bytes_ += p.bytes;
    // Visible to readers before the queue can assign the record an Sn:
    // read-your-writes needs "queued" observable no later than "flushable".
    unassigned_.fetch_add(1, std::memory_order_release);
    queue_.push_back(std::move(p));
    ordinal = taken_ + queue_.size();
  }
  stat_queued_.fetch_add(1, std::memory_order_relaxed);
  cv_work_.notify_all();
  return WriteTicket(std::move(state), this, ordinal);
}

void WritePipeline::release_reservation() {
  {
    common::MutexLock lk(mu_);
    WORM_CHECK(reserved_ > 0,
               "WritePipeline::release_reservation without a reservation");
    --reserved_;
  }
  cv_space_.notify_all();
}

void WritePipeline::ask(std::uint64_t ordinal) {
  {
    common::MutexLock lk(mu_);
    // Its group already left, or a later write's ask made it due already.
    if (ordinal <= taken_ || ordinal <= asked_) return;
    asked_ = ordinal;
  }
  cv_work_.notify_all();
}

bool WritePipeline::drain(std::size_t max_iters) {
  return common::bounded_drain(
      [this]() -> bool {  // true while work remains
        common::MutexLock lk(mu_);
        if (stop_) return false;
        if (queue_.empty() && inflight_ == 0) return false;
        flush_all_ = true;
        cv_work_.notify_all();
        // One committer round (a flushed group, or a cleared empty request)
        // per iteration keeps the bound meaningful.
        cv_done_.wait(lk);
        return !(queue_.empty() && inflight_ == 0);
      },
      max_iters);
}

void WritePipeline::shutdown_drop() {
  std::vector<Pending> dropped;
  {
    common::MutexLock lk(mu_);
    if (stop_ && committer_ == nullptr) return;  // already shut down
    stop_ = true;
    while (!queue_.empty()) {
      dropped.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queued_bytes_ = 0;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  committer_.reset();  // joins after any in-flight flush completes
  for (const Pending& p : dropped) {
    resolve_error(p, std::make_exception_ptr(common::TransientStorageError(
                         "write pipeline shut down before the queued write "
                         "crossed the mailbox; its journaled admission will "
                         "be re-executed by recover()")));
  }
  cv_done_.notify_all();
}

WritePipeline::Stats WritePipeline::stats() const {
  Stats s;
  s.queued = stat_queued_.load(std::memory_order_relaxed);
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.flushed_writes = stat_flushed_.load(std::memory_order_relaxed);
  s.backpressure_stalls = stat_stalls_.load(std::memory_order_relaxed);
  s.busy_rejected = stat_busy_.load(std::memory_order_relaxed);
  return s;
}

void WritePipeline::resolve_ok(const Pending& p, Sn sn) {
  unassigned_.fetch_sub(1, std::memory_order_release);
  {
    common::MutexLock lk(p.ticket->mu);
    p.ticket->done = true;
    p.ticket->sn = sn;
  }
  p.ticket->cv.notify_all();
}

void WritePipeline::resolve_error(const Pending& p, std::exception_ptr error) {
  {
    common::MutexLock lk(p.ticket->mu);
    if (p.ticket->done) return;  // flush already resolved it
    p.ticket->done = true;
    p.ticket->error = std::move(error);
  }
  unassigned_.fetch_sub(1, std::memory_order_release);
  p.ticket->cv.notify_all();
}

void WritePipeline::committer_loop() {
  for (;;) {
    std::vector<Pending> group;
    {
      common::MutexLock lk(mu_);
      // Open-coded wait loop so the analysis sees the guarded reads under
      // mu_ (same convention as ThreadPool::run).
      while (!flush_due_locked()) cv_work_.wait(lk);
      if (queue_.empty()) {
        if (stop_) return;
        // A requested flush with nothing queued: clear it and report the
        // round so drain() makes progress.
        flush_all_ = false;
        cv_done_.notify_all();
        continue;
      }
      std::size_t take = std::min(queue_.size(), max_batch_);
      group.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        queued_bytes_ -= queue_.front().bytes;
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      taken_ += take;
      // A flush-everything request is served once the queue is empty; an
      // ask beyond this group keeps the next one due (asked_ > taken_).
      if (queue_.empty()) flush_all_ = false;
      inflight_ = group.size();
    }
    cv_space_.notify_all();

    const std::size_t n = group.size();
    // Count the group before its tickets can resolve: a caller sampling
    // stats right after ticket.get() must see this batch.
    stat_batches_.fetch_add(1, std::memory_order_relaxed);
    stat_flushed_.fetch_add(n, std::memory_order_relaxed);
    flush_(std::move(group));  // resolves every ticket, success or failure

    {
      common::MutexLock lk(mu_);
      inflight_ = 0;
    }
    cv_done_.notify_all();
  }
}

}  // namespace worm::core
