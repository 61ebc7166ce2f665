// lint fixture: blocking pipeline waits while holding state_mu_. The
// committer thread needs the store lock to retire admissions, so every wait
// below must be flagged blocking-under-state-mu — each is a deadlock the
// moment the committer is behind.
#include "common/annotations.hpp"
#include "worm/worm_store.hpp"

namespace worm {

struct BadStore {
  common::AnnotatedSharedMutex state_mu_;
  core::WormStore* store = nullptr;
  core::WritePipeline* pipeline_ = nullptr;

  core::Sn wait_under_exclusive(core::WriteTicket ticket) {
    common::ExclusiveLock lk(state_mu_);
    return ticket.get();  // blocks on the committer while owning its lock
  }

  void drain_under_shared() {
    common::SharedLock lk(state_mu_);
    store->drain_writes();  // same deadlock, reader side
  }

  void claim_under_lock() {
    common::ExclusiveLock lk(state_mu_);
    // Backpressure can block in claim_slot; the committer frees space only
    // after taking state_mu_.
    (void)pipeline_->claim_slot(/*block=*/true);
  }
};

}  // namespace worm
