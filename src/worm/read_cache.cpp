#include "worm/read_cache.hpp"

#include <algorithm>

namespace worm::core {

namespace {
/// Shard count; sharding bounds reader contention on the shard locks.
constexpr std::size_t kShards = 16;
}  // namespace

ReadCache::ReadCache(std::size_t capacity) {
  std::size_t shards = kShards;
  if (capacity > 0 && capacity < shards) shards = capacity;
  // Ceil-divide so the total budget is never silently rounded down to zero.
  per_shard_cap_ = capacity == 0 ? 0 : (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const ReadOutcome> ReadCache::lookup(Sn sn) {
  if (!enabled()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& s = shard_for(sn);
  common::SharedLock lk(s.mu);
  auto it = s.map.find(sn);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it->second->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed),
                              std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->result;
}

void ReadCache::insert(Sn sn, std::shared_ptr<const ReadOutcome> result) {
  if (!enabled() || result == nullptr) return;
  Shard& s = shard_for(sn);
  common::ExclusiveLock lk(s.mu);
  auto it = s.map.find(sn);
  if (it != s.map.end()) {
    it->second->result = std::move(result);
    it->second->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed),
                                std::memory_order_relaxed);
    return;
  }
  if (s.map.size() >= per_shard_cap_) {
    auto victim = s.map.begin();
    std::uint64_t victim_tick =
        victim->second->last_used.load(std::memory_order_relaxed);
    for (auto cand = std::next(s.map.begin()); cand != s.map.end(); ++cand) {
      std::uint64_t t = cand->second->last_used.load(std::memory_order_relaxed);
      if (t < victim_tick) {
        victim = cand;
        victim_tick = t;
      }
    }
    s.map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  auto entry = std::make_shared<Entry>();
  entry->result = std::move(result);
  entry->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed),
                         std::memory_order_relaxed);
  s.map.emplace(sn, std::move(entry));
}

void ReadCache::invalidate(Sn sn) {
  if (!enabled()) return;
  Shard& s = shard_for(sn);
  common::ExclusiveLock lk(s.mu);
  if (s.map.erase(sn) > 0) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReadCache::invalidate_range(Sn lo, Sn hi) {
  if (!enabled() || hi < lo) return;
  // A window can dwarf the cache; scan entries per shard instead of probing
  // every Sn in [lo, hi].
  std::uint64_t dropped = 0;
  for (auto& shard : shards_) {
    common::ExclusiveLock lk(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->first >= lo && it->first <= hi) {
        it = shard->map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void ReadCache::invalidate_below(Sn sn) {
  if (!enabled() || sn == 0) return;
  invalidate_range(0, sn - 1);
}

void ReadCache::clear() {
  std::uint64_t dropped = 0;
  for (auto& shard : shards_) {
    common::ExclusiveLock lk(shard->mu);
    dropped += shard->map.size();
    shard->map.clear();
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

ReadCacheStats ReadCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed),
          invalidations_.load(std::memory_order_relaxed)};
}

}  // namespace worm::core
