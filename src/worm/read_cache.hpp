// Sharded, bounded LRU cache of proof/VRD read answers — the host-side fast
// path of §4.2.2 at scale. Reads are served entirely by the untrusted main
// CPU; this cache makes the *repeated* read of a hot SN skip the VRDT walk:
// a hit hands back the VRD + witnesses (payload bytes excluded — see below)
// or the applicable deletion/window proof.
//
// What may be cached, exactly:
//  * ReadOk — the VRD only; WormStore strips the payloads before inserting
//    and re-reads them from the device on every hit. Payload bytes stay
//    OUT of the cache deliberately: the §2.1 insider edits platters beneath
//    the software, and a payload cache would keep serving the pre-tamper
//    bytes — masking exactly the evidence Theorem 1 says a reader must see.
//  * ReadDeleted / ReadInDeletedWindow — whole answers; their proofs are
//    time-invariant signatures over (SN, deletion time) / window bounds.
//  * Never ReadBelowBase / ReadNotAllocated: those carry freshness-stamped
//    proofs a client accepts only within an age window; replaying them
//    would downgrade honest service to kStaleProof. Never ReadFailure.
//
// Coherence: a read issued after an update returns may never serve the
// pre-update answer, so the write/strengthen/litigation/expiry/compaction
// paths invalidate exactly the entries they touch (see WormStore).
//
// Concurrency: Sn-sharded; each shard holds an AnnotatedSharedMutex. Hits take
// the shard lock shared and refresh an atomic recency tick (approximate
// LRU — exact list maintenance would serialize readers on the hot path);
// inserts/invalidations take it exclusive. Counters are process-wide atomics
// surfaced through WormStore::counters().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "worm/proofs.hpp"
#include "worm/types.hpp"

namespace worm::core {

struct ReadCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

class ReadCache {
 public:
  /// `capacity` is the total entry budget across the shards;
  /// capacity == 0 disables the cache entirely (every lookup misses).
  explicit ReadCache(std::size_t capacity);

  ReadCache(const ReadCache&) = delete;
  ReadCache& operator=(const ReadCache&) = delete;

  [[nodiscard]] bool enabled() const { return per_shard_cap_ > 0; }

  /// Cached result for sn, or nullptr. Refreshes recency on hit.
  [[nodiscard]] std::shared_ptr<const ReadOutcome> lookup(Sn sn);

  /// Caches `result` for sn (overwrites), evicting the shard's least
  /// recently used entry when the shard is at capacity.
  void insert(Sn sn, std::shared_ptr<const ReadOutcome> result);

  void invalidate(Sn sn);
  void invalidate_range(Sn lo, Sn hi);  // inclusive
  void invalidate_below(Sn sn);
  void clear();

  [[nodiscard]] ReadCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const ReadOutcome> result;
    std::atomic<std::uint64_t> last_used{0};
  };
  struct Shard {
    mutable common::AnnotatedSharedMutex mu;
    std::unordered_map<Sn, std::shared_ptr<Entry>> map GUARDED_BY(mu);
  };

  Shard& shard_for(Sn sn) { return *shards_[sn % shards_.size()]; }

  std::size_t per_shard_cap_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> tick_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace worm::core
