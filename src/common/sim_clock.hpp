// Discrete-event simulated clock with alarms. Deterministic: the driver
// advances time explicitly and due alarms fire in timestamp order (FIFO
// among equal timestamps).
//
// Thread-safety (the concurrent read path charges cost from worker
// threads): now(), charge() and total_charged() are lock-free and safe from
// any thread. advance()/advance_to()/dispatch_due() remain *driver-thread*
// operations — alarms are dispatched by exactly one simulation driver, as
// before — but the alarm book-keeping is mutex-protected so schedule/cancel
// from a callback or another thread cannot corrupt it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>

#include "common/annotations.hpp"
#include "common/time.hpp"

namespace worm::common {

/// Handle for cancelling a scheduled alarm.
using AlarmId = std::uint64_t;

/// The system-wide simulation clock.
///
/// Two ways time moves:
///  * charge(d)  — a component accounts for simulated compute/IO cost. Moves
///    time forward but does NOT dispatch alarms (components charging cost in
///    the middle of an operation must not be re-entered by alarm callbacks).
///  * advance(d) — the simulation driver moves time and dispatches every due
///    alarm at its scheduled timestamp.
class SimClock final : public TimeSource {
 public:
  SimClock() = default;
  explicit SimClock(SimTime start) : now_ns_(start.ns) {}

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  [[nodiscard]] SimTime now() const override {
    return SimTime{now_ns_.load(std::memory_order_relaxed)};
  }

  /// Accounts simulated cost; never dispatches alarms (see class comment).
  /// Safe from any thread; concurrent charges sum.
  void charge(Duration d);

  /// Moves time forward by d, firing due alarms in order. Each alarm callback
  /// observes now() == its scheduled time (or later, if an earlier callback
  /// charged cost past it). Driver thread only.
  void advance(Duration d);

  /// Advances straight to t (no-op if t is in the past), dispatching alarms.
  void advance_to(SimTime t);

  /// Dispatches alarms that became due via charge() without moving time.
  void dispatch_due();

  /// Schedules cb at time t. Alarms scheduled at or before now() fire on the
  /// next dispatch. Returns an id usable with cancel().
  AlarmId schedule_at(SimTime t, std::function<void()> cb);
  AlarmId schedule_after(Duration d, std::function<void()> cb) {
    return schedule_at(now() + d, std::move(cb));
  }

  /// Cancels a pending alarm. Returns false if it already fired/was cancelled.
  bool cancel(AlarmId id);

  /// Earliest pending alarm time, or SimTime::max() when none.
  [[nodiscard]] SimTime next_alarm() const;

  /// Total simulated compute cost accounted via charge() (benchmark metric).
  [[nodiscard]] Duration total_charged() const {
    return Duration{charged_ns_.load(std::memory_order_relaxed)};
  }

 private:
  struct Key {
    SimTime t;
    std::uint64_t seq;  // FIFO tiebreak among equal timestamps
    auto operator<=>(const Key&) const = default;
  };

  void dispatch_until(SimTime t) EXCLUDES(mu_);
  void raise_now_to(std::int64_t t_ns);

  std::atomic<std::int64_t> now_ns_{0};
  std::atomic<std::int64_t> charged_ns_{0};

  mutable AnnotatedMutex mu_;  // guards the alarm book-keeping below
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<Key, std::pair<AlarmId, std::function<void()>>> alarms_
      GUARDED_BY(mu_);
  std::map<AlarmId, Key> by_id_ GUARDED_BY(mu_);
  bool dispatching_ GUARDED_BY(mu_) = false;
};

}  // namespace worm::common
