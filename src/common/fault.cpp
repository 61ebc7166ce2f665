#include "common/fault.hpp"

#include "common/error.hpp"

namespace worm::common {

namespace {

// splitmix64: tiny, seedable, statistically fine for fault scheduling.
// Deliberately NOT crypto::Drbg — worm_common sits below worm_crypto and
// must not depend on it; fault decisions need determinism, not security.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kTorn:
      return "torn";
    case FaultKind::kBitFlip:
      return "bit-flip";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kZeroize:
      return "zeroize";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::uint64_t seed, const TimeSource* time)
    : time_(time), rng_state_(seed) {}

void FaultInjector::arm(const std::string& site, FaultSpec spec) {
  WORM_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
               "FaultSpec.probability must be in [0, 1]");
  MutexLock lk(mu_);
  sites_[site].spec = spec;
}

void FaultInjector::schedule(const std::string& site, FaultKind kind,
                             std::uint64_t nth) {
  WORM_REQUIRE(nth >= 1, "schedule() ordinals are 1-based");
  MutexLock lk(mu_);
  Site& s = sites_[site];
  s.scheduled[s.evaluations + nth] = kind;
}

void FaultInjector::disarm(const std::string& site) {
  MutexLock lk(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  it->second.spec = FaultSpec{};
  it->second.scheduled.clear();
}

void FaultInjector::disarm_all() {
  MutexLock lk(mu_);
  for (auto& [name, s] : sites_) {
    s.spec = FaultSpec{};
    s.scheduled.clear();
  }
}

FaultKind FaultInjector::evaluate_site(const char* site) {
  MutexLock lk(mu_);
  auto it = sites_.find(std::string_view(site));
  if (it == sites_.end()) return FaultKind::kNone;
  Site& s = it->second;
  ++s.evaluations;

  // Scheduled one-shots take precedence over probabilistic specs.
  auto sched = s.scheduled.find(s.evaluations);
  if (sched != s.scheduled.end()) {
    FaultKind kind = sched->second;
    s.scheduled.erase(sched);
    ++s.fires;
    ++injected_total_;
    return kind;
  }

  if (s.spec.kind == FaultKind::kNone) return FaultKind::kNone;
  if (s.fires >= s.spec.max_fires) return FaultKind::kNone;
  if (time_ != nullptr) {
    // The time is read with the lock released: a TimeSource may block (a
    // test parks the evaluating thread there), and every other site must
    // stay evaluable meanwhile. Sites are never erased, so `s` stays valid;
    // its spec is read again once the lock is back.
    lk.unlock();
    const SimTime now = time_->now();
    lk.lock();
    if (s.spec.kind == FaultKind::kNone) return FaultKind::kNone;
    if (s.fires >= s.spec.max_fires) return FaultKind::kNone;
    if (now < s.spec.not_before || now > s.spec.not_after) {
      return FaultKind::kNone;
    }
  }
  const FaultSpec& spec = s.spec;
  if (spec.probability < 1.0) {
    // 53 uniform bits -> [0, 1); compare against the armed probability.
    double draw =
        static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    if (draw >= spec.probability) return FaultKind::kNone;
  }
  ++s.fires;
  ++injected_total_;
  return spec.kind;
}

std::uint64_t FaultInjector::shape(std::uint64_t bound) {
  WORM_REQUIRE(bound > 0, "shape() bound must be positive");
  MutexLock lk(mu_);
  return next_u64() % bound;
}

std::uint64_t FaultInjector::injected_total() const {
  MutexLock lk(mu_);
  return injected_total_;
}

FaultSiteStats FaultInjector::site_stats(const std::string& site) const {
  MutexLock lk(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return {};
  return {it->second.evaluations, it->second.fires};
}

std::uint64_t FaultInjector::next_u64() { return splitmix64(rng_state_); }

}  // namespace worm::common
