// analyze fixture [lock-order] — known-good: the three-step write commit.
// The chunk is staged under state_mu_, crosses with only commit_mu_ held
// (a closed scope, or an explicit unlock window), and its ack is applied
// under state_mu_ again.
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

}  // namespace fixture
