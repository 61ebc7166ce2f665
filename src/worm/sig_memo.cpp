#include "worm/sig_memo.hpp"

#include "crypto/sha256.hpp"

namespace worm::core {

bool SigVerifyMemo::verify(const crypto::PreparedRsaKey& key,
                           common::ByteView message, common::ByteView sig) {
  // Length-prefix each field so (key, m1||m2, sig) and (key, m1, m2||sig)
  // cannot collide on the same digest.
  crypto::Sha256 h;
  auto feed = [&h](common::ByteView v) {
    std::uint64_t len = v.size();
    std::array<std::uint8_t, 8> lenb{};
    for (std::size_t i = 0; i < 8; ++i) {
      lenb[i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    h.update(lenb);
    h.update(v);
  };
  feed(key.encoding());
  feed(message);
  feed(sig);
  Key k{h.finalize()};

  Shard& s = shards_[k.digest[0] % kShards];
  {
    common::SharedLock lk(s.mu);
    auto it = s.map.find(k);
    if (it != s.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  bool ok = key.verify(message, sig);
  {
    common::ExclusiveLock lk(s.mu);
    // Another reader may have inserted k since the lookup; its verdict is
    // the same, and k keeps its place in the ring.
    auto [it, inserted] = s.map.try_emplace(k, ok);
    if (inserted) {
      if (s.ring.size() < kShardCapacity) {
        s.ring.push_back(&it->first);
      } else {
        // Evict in insertion order. Re-verification of the dropped
        // signature is correct, just slower.
        s.map.erase(s.map.find(*s.ring[s.oldest]));
        s.ring[s.oldest] = &it->first;
        s.oldest = (s.oldest + 1) % kShardCapacity;
      }
    }
  }
  return ok;
}

SigMemoStats SigVerifyMemo::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

}  // namespace worm::core
