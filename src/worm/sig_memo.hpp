// Memoization of raw RSA signature verifications. The read path re-verifies
// the same SCPU signatures constantly — every read of record SN re-checks the
// same S_s(VRD) and the same witness chain — and each rsa_verify is a modular
// exponentiation. A signature over fixed bytes under a fixed key never
// changes validity, so the (pubkey, message, sig) -> bool result is pure and
// safe to memoize forever; both true AND false results are cached (a forged
// signature stays forged).
//
// What must NOT go through this memo: anything time-dependent — certificate
// validity windows, S_s(SN_current)/S_s(SN_base) freshness, short-lived
// signature expiry. ClientVerifier keeps those checks outside, after the
// memoized mathematical check passes.
//
// Keys are SHA-256 digests over the length-prefixed tuple (the key's
// encoding, the message, the signature), so the memo holds 32 bytes + bool
// per distinct signature rather than whole messages. A full shard evicts
// its oldest entry (a hit does not renew one), so an entry stays through
// the next kCapacity / kShards insertions into its shard: a working set
// that fits the memo hits again after that many one-off checks have passed
// through. The caller hands in a
// crypto::PreparedRsaKey, so a lookup hashes the key's cached encoding and
// a miss runs that key's one verify path; nothing is re-serialized or
// re-prepared per call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "crypto/rsa.hpp"

namespace worm::core {

struct SigMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class SigVerifyMemo {
 public:
  /// Memoized results held at most, across the shards.
  static constexpr std::size_t kCapacity = 8192;

  SigVerifyMemo() = default;

  SigVerifyMemo(const SigVerifyMemo&) = delete;
  SigVerifyMemo& operator=(const SigVerifyMemo&) = delete;

  /// key.verify(message, sig), memoized.
  [[nodiscard]] bool verify(const crypto::PreparedRsaKey& key,
                            common::ByteView message, common::ByteView sig);

  [[nodiscard]] SigMemoStats stats() const;

 private:
  struct Key {
    std::array<std::uint8_t, 32> digest;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h;  // digest bytes are uniform; fold the first word
      static_assert(sizeof(h) <= 32);
      std::memcpy(&h, k.digest.data(), sizeof(h));
      return h;
    }
  };
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kShardCapacity = kCapacity / kShards;
  struct Shard {
    mutable common::AnnotatedSharedMutex mu;
    std::unordered_map<Key, bool, KeyHash> map GUARDED_BY(mu);
    // The map's own keys in insertion order (unordered_map never moves an
    // element, and an entry leaves the ring when it leaves the map). Once
    // the shard is full, ring[oldest] is the next to go.
    std::vector<const Key*> ring GUARDED_BY(mu);
    std::size_t oldest GUARDED_BY(mu) = 0;
  };

  std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace worm::core
