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
// per distinct signature rather than whole messages. The caller hands in a
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
  /// Memoized results per shard: 8192 across the shards.
  static constexpr std::size_t kShardCapacity = 8192 / kShards;
  struct Shard {
    mutable common::AnnotatedSharedMutex mu;
    std::unordered_map<Key, bool, KeyHash> map GUARDED_BY(mu);
  };

  std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace worm::core
