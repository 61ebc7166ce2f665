// analyze fixture [lock-order] — known-bad: the store's write crossing
// reached with state_mu_ held, once directly and once through a helper.
// Neither is a lock-order cycle; both stall every reader and admission
// behind the SCPU.
#include "common/annotations.hpp"

namespace fixture {

void Store::commit_chunk() {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  stage_locked();
  payload_ = cross_write_batch(cmd_);
  apply_locked();
}

void Store::flush() {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  send_chunk();
}

void Store::send_chunk() {
  payload_ = cross_write_batch(cmd_);
}

Bytes Store::cross_write_batch(const Prepared& cmd) {
  return channel_.send_ok(cmd);
}

}  // namespace fixture
