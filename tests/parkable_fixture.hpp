// Parks a mailbox crossing in flight, so a test can check what other
// threads see, and that they do not wait, while the SCPU works: a
// Breakpoint TimeSource behind a FaultInjector the store crosses through.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <string>
#include <utility>

#include "common/fault.hpp"
#include "worm_fixture.hpp"

namespace worm::testing {

// How long a call that must not wait for the crossing may take. Generous:
// passing calls return in microseconds, and a call stuck behind the
// crossing fails the test instead of hanging it.
inline constexpr auto kPatience = std::chrono::seconds(2);

/// Turns a fault site into a breakpoint. A FaultInjector reads its
/// TimeSource at each evaluation of a site armed with a spec, so a spec
/// whose window never opens (never_fires) makes the site read the time
/// without ever firing. Once armed, that read parks the evaluating thread
/// until release() — after letting `skip` evaluations pass, to park a later
/// crossing of the same call. The injector reads the time with its own
/// mutex released, so other threads evaluate every other site (a journal
/// append, say) while one is parked; the rigs still detach the injector
/// from the record store, whose sites no parking test arms.
class Breakpoint final : public common::TimeSource {
 public:
  common::SimTime now() const override {
    std::unique_lock lk(mu_);
    if (armed_ && skip_ > 0) {
      --skip_;
    } else if (armed_) {
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return !armed_; });
    }
    return common::SimTime::epoch();
  }
  void arm(std::size_t skip = 0) {
    std::lock_guard lk(mu_);
    armed_ = true;
    skip_ = skip;
    parked_ = false;
  }
  [[nodiscard]] bool wait_parked() {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, kPatience, [this] { return parked_; });
  }
  void release() {
    std::lock_guard lk(mu_);
    armed_ = false;
    cv_.notify_all();
  }

  static common::FaultSpec never_fires() {
    common::FaultSpec spec;
    spec.kind = common::FaultKind::kDrop;
    spec.not_before = common::SimTime::max();
    return spec;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool armed_ = false;
  mutable std::size_t skip_ = 0;
  mutable bool parked_ = false;
};

/// Releases the breakpoint on scope exit, so a failed expectation never
/// leaves a crossing parked while a future or the rig waits for it.
/// Declared after the futures, it releases before they wait.
struct ReleaseOnExit {
  Breakpoint& bp;
  ~ReleaseOnExit() { bp.release(); }
};

template <typename T>
bool returned(std::future<T>& f) {
  return f.wait_for(kPatience) == std::future_status::ready;
}

/// A fault injector whose `site` parks at the breakpoint once it is armed.
struct ParkableFault {
  explicit ParkableFault(const char* site) : fault(0xb0b, &bp) {
    fault.arm(site, Breakpoint::never_fires());
  }
  Breakpoint bp;
  common::FaultInjector fault;
};

/// A store whose crossings park at `site` once the breakpoint is armed.
struct ParkableRig : ParkableFault {
  ParkableRig(const char* site, core::StoreConfig sc,
              core::FirmwareConfig fw = {})
      : ParkableFault(site), rig(fw, with_fault(std::move(sc))) {
    rig.records.set_fault_injector(nullptr);
  }
  core::StoreConfig with_fault(core::StoreConfig sc) {
    sc.fault = &fault;
    return sc;
  }
  core::WriteRequest request(const std::string& text) const {
    return {.payloads = {common::to_bytes(text)},
            .attr = rig.attr(common::Duration::days(30))};
  }

  Rig rig;
};

}  // namespace worm::testing
