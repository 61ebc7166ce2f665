// Deterministic fault injection for the whole deployment. A FaultInjector is
// a seeded decision stream consulted at *named fault points* threaded through
// the untrusted layers — the block device (transient I/O errors, torn
// writes, bit flips), the record store, the SCPU mailbox transport (dropped,
// duplicated, corrupted and timed-out crossings), the tamper sensor
// (mid-command zeroization) and the host journal (torn appends).
//
// Determinism is the point: a fault schedule is a pure function of the seed
// plus the sequence of evaluations, so any failing soak iteration replays
// bit-for-bit from its seed. Nothing here reads wall-clock time; the optional
// TimeSource (the SimClock) only gates time-windowed specs.
//
// Instrumented code NEVER calls evaluate_site() directly — every injection
// site goes through WORM_FAULT_POINT(injector, "site.name"), which keeps the
// complete fault surface greppable by name. worm-lint rule fault-bypass
// enforces this.
//
// Thread-safety: evaluate_site() and the shaping helpers are called from
// concurrent reader threads (the device read path), so all state is guarded
// by an internal mutex.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/annotations.hpp"
#include "common/time.hpp"

namespace worm::common {

/// What a fault point does when it fires. Sites implement the subset that is
/// physically meaningful for them and ignore the rest.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kTransient = 1,  // the operation fails once with a retryable error
  kTorn = 2,       // a write persists only a prefix before failing
  kBitFlip = 3,    // one bit of the in-flight copy is inverted
  kDrop = 4,       // the message vanishes in the mailbox
  kDuplicate = 5,  // the message is delivered twice
  kTimeout = 6,    // executed, but the answer arrives past the sender's patience
  kZeroize = 7,    // the tamper response fires mid-command
};

const char* to_string(FaultKind k);

/// One armed fault at a site. `probability` is the chance per evaluation;
/// `max_fires` bounds the total injections; the [not_before, not_after]
/// window gates by simulated time when the injector has a TimeSource.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  double probability = 1.0;
  std::uint64_t max_fires = UINT64_MAX;
  SimTime not_before = SimTime::epoch();
  SimTime not_after = SimTime::max();
};

struct FaultSiteStats {
  std::uint64_t evaluations = 0;
  std::uint64_t fires = 0;
};

class FaultInjector {
 public:
  /// `time` (usually the SimClock) gates time-windowed specs; null means
  /// every spec is always in-window. It is read with the injector's mutex
  /// released, so a TimeSource that blocks holds up only its own caller.
  explicit FaultInjector(std::uint64_t seed, const TimeSource* time = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `spec` at `site`. Re-arming a site replaces its spec.
  void arm(const std::string& site, FaultSpec spec) EXCLUDES(mu_);

  /// Deterministic one-shot: fire `kind` on exactly the `nth` (1-based)
  /// evaluation of `site`, counting from now. Coexists with an armed spec;
  /// scheduled fires win.
  void schedule(const std::string& site, FaultKind kind, std::uint64_t nth)
      EXCLUDES(mu_);

  void disarm(const std::string& site) EXCLUDES(mu_);
  void disarm_all() EXCLUDES(mu_);

  /// The decision at one named fault point. Only WORM_FAULT_POINT may call
  /// this (worm-lint rule fault-bypass); a fired decision counts toward the
  /// site's budget and the global injected total.
  [[nodiscard]] FaultKind evaluate_site(const char* site) EXCLUDES(mu_);

  /// Deterministic shaping value in [0, bound) for a fired fault (e.g. which
  /// bit to flip). Draws from the same seeded stream.
  [[nodiscard]] std::uint64_t shape(std::uint64_t bound) EXCLUDES(mu_);

  /// Total faults injected across all sites (feeds counters fault.injected).
  [[nodiscard]] std::uint64_t injected_total() const EXCLUDES(mu_);

  [[nodiscard]] FaultSiteStats site_stats(const std::string& site) const
      EXCLUDES(mu_);

 private:
  struct Site {
    FaultSpec spec;               // kind == kNone when nothing armed
    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
    // Scheduled one-shots: evaluation ordinal (1-based, from schedule()
    // time) -> kind.
    std::map<std::uint64_t, FaultKind> scheduled;
    std::uint64_t scheduled_base = 0;  // evaluations seen when scheduling
  };

  std::uint64_t next_u64() REQUIRES(mu_);

  const TimeSource* time_;
  mutable AnnotatedMutex mu_;
  std::uint64_t rng_state_ GUARDED_BY(mu_);
  std::map<std::string, Site, std::less<>> sites_ GUARDED_BY(mu_);
  std::uint64_t injected_total_ GUARDED_BY(mu_) = 0;
};

/// The ONLY sanctioned way to consult a FaultInjector from instrumented
/// code: a named fault point. A null injector is a permanently quiet site,
/// so production paths carry one branch and no other cost. worm-lint rule
/// fault-bypass rejects direct evaluate_site() calls anywhere else, keeping
/// the complete fault surface greppable as WORM_FAULT_POINT sites.
#define WORM_FAULT_POINT(injector, site)                    \
  ((injector) != nullptr ? (injector)->evaluate_site(site)  \
                         : ::worm::common::FaultKind::kNone)

}  // namespace worm::common
