// analyze fixture [lock-order] — known-good: the three steps every crossing
// takes. The command is gathered and its intent journaled under state_mu_,
// it crosses with only commit_mu_ held (a closed scope, or an explicit
// unlock window), and its answer is applied under state_mu_ again. Framing
// a command and reading the transport's counts do not cross.
#include "common/annotations.hpp"

namespace fixture {

void Store::commit_chunk() {
  common::MutexLock commit(commit_mu_);
  {
    common::ExclusiveLock lk(state_mu_);
    stage_locked();
  }
  payload_ = cross_write_batch(cmd_);
  common::ExclusiveLock lk(state_mu_);
  apply_locked();
}

void Store::commit_with_window() {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  stage_locked();
  lk.unlock();
  send_chunk();
  lk.lock();
  apply_locked();
}

void Store::send_chunk() {
  payload_ = cross_write_batch(cmd_);
}

Bytes Store::cross_write_batch(const Prepared& cmd) {
  return channel_.send_ok(cmd);
}

bool Store::do_compaction() {
  Bytes frame;
  {
    common::SharedLock lk(state_mu_);
    frame = encode_certify_window(span_);
  }
  cross_sequenced(frame);
  return true;
}

void Store::cross_sequenced(Bytes frame) {
  Prepared cmd;
  {
    common::ExclusiveLock lk(state_mu_);
    cmd = channel_.prepare(frame);
    journal_intent_locked(cmd);
  }
  payload_ = channel_.send_ok(cmd);
  common::ExclusiveLock lk(state_mu_);
  apply_answer_locked(cmd, payload_);
}

Counts Store::counters() const {
  common::MutexLock commit(commit_mu_);
  common::SharedLock lk(state_mu_);
  return channel_.wire_stats();
}

}  // namespace fixture
