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
    if (s.map.size() >= kShardCapacity && !s.map.contains(k)) {
      // Bound memory without LRU bookkeeping: drop an arbitrary entry.
      // Re-verification of the dropped signature is correct, just slower.
      s.map.erase(s.map.begin());
    }
    s.map.insert_or_assign(k, ok);
  }
  return ok;
}

SigMemoStats SigVerifyMemo::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

}  // namespace worm::core
