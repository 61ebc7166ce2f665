// analyze fixture [lock-order] — known-bad: mailbox crossings made with
// state_mu_ held. A write crossing, directly and through a helper; a duty,
// whose crossings sit inside the function the locked caller calls; and a
// litigation command crossed in the scope that built its frame. None is a
// lock-order cycle; each stalls every reader and admission behind the SCPU.
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

bool Store::pump_idle() {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  return do_strengthen_batch();
}

bool Store::do_strengthen_batch() {
  std::vector<Sn> pending = channel_.deferred_pending(64);
  return !pending.empty();
}

void Store::lit_hold(const Request& request) {
  common::MutexLock commit(commit_mu_);
  common::ExclusiveLock lk(state_mu_);
  Prepared cmd = channel_.prepare(encode_lit_hold(request));
  payload_ = channel_.send_ok(cmd);
  apply_locked();
}

}  // namespace fixture
