// Group-commit admission queue for WormStore writes (§4.1 amortization as a
// standing pipeline, not a caller convention): write_async() journals the
// intent, enqueues it here, and returns a completion ticket; a dedicated
// committer thread (one-worker common::ThreadPool) drains the queue and
// crosses the SCPU mailbox once per group, so the slow trusted device is
// "accessed only sparsely" even when every caller writes one record at a
// time. The pipeline itself is mechanism only — what a flush *does* (journal
// the group intent, cross the mailbox, resolve tickets) is the store's
// FlushFn; the pipeline decides when groups form and keeps the backpressure
// honest.
//
// Group-commit policy: this file is the only code that decides when queued
// writes cross. A group is due when the queue holds max_batch records (the
// store's mailbox.max_batch, the bound every crossing obeys), when the
// queue is full, when drain() runs, or when one of its tickets is asked:
// get() makes it due and waits, ready() makes it due without blocking.
// There is no timer, no age threshold and no byte threshold (the queue's
// capacity bounds what it holds), so a write whose ticket nobody asks stays
// queued until its group fills or the store drains.
//
// Lock discipline (DESIGN.md §7, §8): everything below lives under mu_, and
// the committer calls the FlushFn with NO pipeline lock held. The flush
// takes the store's commit_mu_ for the whole group and its state_mu_ around
// each chunk's staging and ack, never across the mailbox crossing.
// Admission takes no store lock at all: it claims a slot, then journals
// under the journal's own lock. The committer needs state_mu_ to free queue
// space, so worm_lint rule blocking-under-state-mu keeps blocking on the
// pipeline while holding state_mu_ out of the tree.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_pool.hpp"
#include "worm/firmware.hpp"
#include "worm/types.hpp"

namespace worm::core {

struct WritePipelineConfig {
  /// Off (the default) keeps the store fully synchronous: write() crosses
  /// the mailbox inline and write_async() is rejected. Existing deterministic
  /// drivers keep byte-identical behavior.
  bool enabled = false;
  /// Bounded admission queue; a full queue blocks write_async (backpressure)
  /// until the committer frees space. Must be nonzero when enabled.
  std::size_t queue_capacity = 256;
};

class WritePipeline;

namespace detail {
/// Shared resolution slot between a WriteTicket and the committer.
struct TicketState {
  common::AnnotatedMutex mu;
  std::condition_variable_any cv;
  bool done GUARDED_BY(mu) = false;
  Sn sn GUARDED_BY(mu) = kInvalidSn;
  std::exception_ptr error GUARDED_BY(mu);
};
}  // namespace detail

/// Completion handle for one write_async admission. Asking an unresolved
/// ticket makes its group due: ready() returns at once, get() blocks until
/// the committer resolves the write and returns the issued Sn or rethrows
/// the flush error. Copyable: any number of waiters may hold the ticket.
class WriteTicket {
 public:
  WriteTicket() = default;

  /// True once the ticket holds an Sn or an error (get() will not block).
  /// False otherwise, and the ticket's group is then due: it crosses
  /// without waiting to fill.
  [[nodiscard]] bool ready() const;
  /// True when this ticket came from a write_async call (not default-made).
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Blocks until resolution; returns the Sn or rethrows the flush error.
  /// Discarding the Sn orphans the record, as with write().
  [[nodiscard]] Sn get();

 private:
  friend class WritePipeline;
  WriteTicket(std::shared_ptr<detail::TicketState> state,
              WritePipeline* pipeline, std::uint64_t ordinal)
      : state_(std::move(state)), pipeline_(pipeline), ordinal_(ordinal) {}

  std::shared_ptr<detail::TicketState> state_;
  WritePipeline* pipeline_ = nullptr;
  std::uint64_t ordinal_ = 0;  // admission ordinal (1-based)
};

class WritePipeline {
 public:
  /// One admitted write, queued until the committer flushes its group.
  /// `claimed_hash` carries the chained payload hash when the store hashes
  /// on the admitting thread (kHostHash mode): admission-side hashing runs in
  /// parallel across writers, and the committer reuses it instead of
  /// recomputing under the store lock.
  struct Pending {
    std::uint64_t qid = 0;  // journal admission id (kQueuedWrite)
    Attr attr{};
    std::vector<common::Bytes> payloads;
    std::optional<WitnessMode> mode;
    common::Bytes claimed_hash;
    std::shared_ptr<detail::TicketState> ticket;
  };

  /// Flushes one group: journal the group intent, cross the mailbox, resolve
  /// every ticket (resolve_ok / resolve_error — the flush owns all of them,
  /// success or failure). Called from the committer thread with no pipeline
  /// lock held.
  using FlushFn = std::function<void(std::vector<Pending>&&)>;

  /// A group is due once `max_batch` writes are queued, and never holds
  /// more.
  WritePipeline(WritePipelineConfig config, std::size_t max_batch,
                FlushFn flush);
  ~WritePipeline();

  WritePipeline(const WritePipeline&) = delete;
  WritePipeline& operator=(const WritePipeline&) = delete;

  // Admission comes in two steps so the caller can journal the admission
  // BETWEEN them: claim_slot() takes a queue slot, then submit_reserved()
  // consumes it without ever blocking. Backpressure and kBusy rejections
  // therefore happen before anything reaches the journal — no ghost
  // admission for recover() to re-execute — while a claimed slot guarantees
  // the journaled write is also queued.

  /// Claims one queue slot. When the queue (live + reserved) is at capacity
  /// it makes the flush due, then either blocks until the committer frees
  /// space (`block`, counted as a backpressure stall) or returns false — the
  /// caller should surface kBusy. Throws PreconditionError after shutdown.
  /// On success the caller MUST follow with submit_reserved() or
  /// release_reservation(). Never call while holding the store's state lock.
  [[nodiscard]] bool claim_slot(bool block) EXCLUDES(mu_);

  /// Enqueues a write into a slot claimed by claim_slot(). Never blocks.
  [[nodiscard]] WriteTicket submit_reserved(Pending p) EXCLUDES(mu_);

  /// Returns a claim_slot() slot unused (the step between claim and
  /// enqueue failed, e.g. the journal append threw).
  void release_reservation() EXCLUDES(mu_);

  /// A ticket ask: makes the group holding admission `ordinal` due, if that
  /// write is still queued. A group that already left is not re-asked, so
  /// the next group still waits to fill or for one of its own tickets.
  void ask(std::uint64_t ordinal) EXCLUDES(mu_);

  /// Flushes until queue and in-flight group are empty. Bounded (each
  /// iteration waits for one committer round); returns false if the bound
  /// was hit — a stuck committer, which callers must treat as fatal.
  [[nodiscard]] bool drain(std::size_t max_iters) EXCLUDES(mu_);

  /// Stops the committer. Queued-but-unflushed writes are NOT flushed: their
  /// tickets fail with TransientStorageError and their journaled admissions
  /// are left for recover() to re-execute — destruction is the crash path,
  /// WormStore::close() is the graceful (drain-first) path. Idempotent.
  void shutdown_drop() EXCLUDES(mu_);

  /// Admitted writes whose SN is not yet assigned. Incremented before the
  /// queue can hand the write to a flush, and decremented at ticket-resolve
  /// time, inside the store's exclusive state-lock hold that applies the
  /// chunk's ack, right after the SN mirror absorbed it. A state-lock reader
  /// therefore never double-counts a write the mirror already covers: the
  /// store's next SN is mirror + unassigned + 1, and a read above the mirror
  /// while this is nonzero answers unavailable (read-your-writes).
  [[nodiscard]] std::size_t unassigned() const {
    return unassigned_.load(std::memory_order_acquire);
  }

  struct Stats {
    std::uint64_t queued = 0;               // admissions accepted
    std::uint64_t batches = 0;              // groups flushed
    std::uint64_t flushed_writes = 0;       // writes those groups carried
    std::uint64_t backpressure_stalls = 0;  // submits that hit a full queue
    std::uint64_t busy_rejected = 0;        // non-blocking claims turned away
  };
  [[nodiscard]] Stats stats() const;

  /// Ticket resolution, called by the FlushFn for every Pending it was
  /// handed. Takes no pipeline lock (resolution outlives any particular
  /// lock); maintains the unassigned() counter.
  void resolve_ok(const Pending& p, Sn sn);
  void resolve_error(const Pending& p, std::exception_ptr error);

 private:
  void committer_loop() EXCLUDES(mu_);
  [[nodiscard]] bool flush_due_locked() const REQUIRES(mu_);

  const WritePipelineConfig config_;
  const std::size_t max_batch_;
  const FlushFn flush_;

  mutable common::AnnotatedMutex mu_;
  std::condition_variable_any cv_work_;   // wakes the committer
  std::condition_variable_any cv_space_;  // wakes backpressured submitters
  std::condition_variable_any cv_done_;   // wakes drain() after each round
  std::deque<Pending> queue_ GUARDED_BY(mu_);
  std::size_t reserved_ GUARDED_BY(mu_) = 0;  // claimed slots not yet enqueued
  std::size_t inflight_ GUARDED_BY(mu_) = 0;
  // Admission ordinals count from 1 in queue order, so the write with
  // ordinal k is still queued exactly when k > taken_.
  std::uint64_t taken_ GUARDED_BY(mu_) = 0;  // writes handed to a flush
  std::uint64_t asked_ GUARDED_BY(mu_) = 0;  // highest ordinal asked
  // drain() or a full queue: flush everything queued, whatever its groups.
  bool flush_all_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;

  std::atomic<std::size_t> unassigned_{0};
  std::atomic<std::uint64_t> stat_queued_{0};
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_flushed_{0};
  std::atomic<std::uint64_t> stat_stalls_{0};
  std::atomic<std::uint64_t> stat_busy_{0};

  // Last: the committer must be joined before anything above goes away.
  std::unique_ptr<common::ThreadPool> committer_;
};

}  // namespace worm::core
