// Crypto-shredding support (the strongest "shredding algorithm" attr choice,
// §4.2): payloads are sealed under per-record AES-256-CTR keys derived from
// a master secret + per-record nonce; destroying the derivation entry makes
// the ciphertext unrecoverable even from backups the insider squirrelled
// away before deletion — overwrite-based shredding cannot say that.
//
// Honest scope: the key table lives host-side in this implementation (a
// deployment would keep the master secret inside the SCPU). That means
// crypto-shredding here defends against adversaries who copied *ciphertext*
// (disk images, off-site backups) but not the small, access-controlled,
// frequently-rotated key table. Payload sealing is transparent to the WORM
// layer — datasig simply witnesses the ciphertext. The store never calls
// this helper: an application seals payloads before writing them, and an
// attr's kCryptoShred is one zero pass.
#pragma once

#include <cstdint>
#include <map>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"

namespace worm::storage {

class CryptoShredder {
 public:
  /// master_secret: >= 16 bytes of key material.
  CryptoShredder(common::ByteView master_secret, std::uint64_t seed);

  /// Encrypts a payload under a fresh per-record key; returns the sealed
  /// bytes and the record key id to pass to unseal/destroy.
  struct Sealed {
    std::uint64_t key_id = 0;
    common::Bytes ciphertext;
  };
  Sealed seal(common::ByteView plaintext);

  /// Decrypts; throws StorageError if the key was destroyed.
  common::Bytes unseal(std::uint64_t key_id, common::ByteView ciphertext);

  /// Crypto-shred: erases the per-record derivation entry. Irreversible.
  /// Returns false if the key id is unknown (already destroyed).
  bool destroy_key(std::uint64_t key_id);

  [[nodiscard]] bool key_exists(std::uint64_t key_id) const {
    return nonces_.count(key_id) > 0;
  }
  [[nodiscard]] std::size_t live_keys() const { return nonces_.size(); }

  /// Key-table persistence (the table, not the master secret).
  [[nodiscard]] common::Bytes save_key_table() const;
  void restore_key_table(common::ByteView data);

 private:
  common::Bytes derive_key(std::uint64_t key_id,
                           const common::Bytes& nonce) const;

  common::Bytes master_;
  crypto::Drbg rng_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, common::Bytes> nonces_;  // key_id -> 12-byte nonce
};

}  // namespace worm::storage
