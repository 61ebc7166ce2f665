// The secure-coprocessor enclosure: everything the FIPS 140-2 Level 4
// packaging gives the paper's architecture, minus the firmware logic (which
// lives in worm::Firmware and *runs inside* this enclosure).
//
//  * a tamper-protected internal clock (reads the simulation clock; the
//    adversary has no API to skew it),
//  * a battery-backed secure memory budget (the VEXP and litigation-hold
//    tables must fit),
//  * tamper response: zeroization + permanent shutdown,
//  * simulated-time charging against the device's calibrated cost model.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/sim_clock.hpp"
#include "scpu/cost_model.hpp"

namespace worm::scpu {

class ScpuDevice {
 public:
  /// secure_memory_bytes models the battery-backed RAM available to
  /// firmware state (the 4764 carries tens of MB).
  ScpuDevice(common::SimClock& clock, CostModel model,
             std::size_t secure_memory_bytes = 32u << 20);

  ScpuDevice(const ScpuDevice&) = delete;
  ScpuDevice& operator=(const ScpuDevice&) = delete;

  /// Internal tamper-protected clock.
  [[nodiscard]] common::SimTime now() const { return clock_.now(); }
  [[nodiscard]] common::SimClock& clock() { return clock_; }

  [[nodiscard]] const CostModel& cost() const { return model_; }

  /// Accounts simulated compute time inside the enclosure.
  void charge(common::Duration d) {
    ensure_alive();
    clock_.charge(d);
    busy_ += d;
  }

  /// Secure-memory accounting; throws ScpuError when the budget is exceeded
  /// (firmware must then shed state, e.g. truncate the VEXP).
  void alloc_secure(std::size_t bytes);
  void free_secure(std::size_t bytes);
  [[nodiscard]] std::size_t secure_memory_used() const { return used_; }

  /// Physical attack detected: the device destroys internal state and shuts
  /// down (FIPS 140-2 L4 response). Irreversible.
  void trigger_tamper_response();
  [[nodiscard]] bool tampered() const { return tampered_; }

  /// Throws ScpuError if the tamper response has fired — every entry point
  /// into the enclosure checks this first.
  void ensure_alive() const {
    if (tampered_) {
      throw common::ScpuError("SCPU: zeroized by tamper response");
    }
  }

  /// Total simulated time this device spent busy (utilization metric).
  [[nodiscard]] common::Duration busy_time() const { return busy_; }

 private:
  common::SimClock& clock_;
  CostModel model_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  bool tampered_ = false;
  common::Duration busy_{};
};

}  // namespace worm::scpu
