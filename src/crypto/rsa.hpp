// RSA from scratch: key generation, PKCS#1 v1.5 signatures (SHA-256), key
// serialization. Models the signature service of the IBM CCA API the paper's
// SCPU firmware calls into. Supports the paper's three key strengths:
// 512-bit (short-lived burst signatures, §4.3), 1024-bit (the paper's strong
// default) and 2048-bit.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/biguint.hpp"
#include "crypto/drbg.hpp"

namespace worm::crypto {

struct RsaPublicKey {
  BigUInt n;
  BigUInt e;

  [[nodiscard]] std::size_t modulus_bits() const { return n.bit_length(); }

  [[nodiscard]] common::Bytes serialize() const;
  static RsaPublicKey deserialize(common::ByteView data);

  bool operator==(const RsaPublicKey&) const = default;
};

struct RsaPrivateKey {
  BigUInt n, e, d;
  // CRT components (p > q convention not required; qinv = q^-1 mod p).
  BigUInt p, q, dp, dq, qinv;

  [[nodiscard]] RsaPublicKey public_key() const { return {n, e}; }
  [[nodiscard]] std::size_t modulus_bits() const { return n.bit_length(); }

  [[nodiscard]] common::Bytes serialize() const;
  static RsaPrivateKey deserialize(common::ByteView data);
};

/// Generates an RSA key with modulus of exactly `bits` bits, e = 65537.
RsaPrivateKey rsa_generate(Drbg& rng, std::size_t bits);

/// EMSA-PKCS1-v1_5 signature over SHA-256(message). Output length equals the
/// modulus length. Uses CRT for ~4x speedup.
common::Bytes rsa_sign(const RsaPrivateKey& key, common::ByteView message);

/// A public key made ready for repeated verification: its serialized
/// encoding and its Montgomery context are built once, here, rather than on
/// every verify. A verifier that checks many signatures under one key holds
/// one of these; rsa_verify() builds one per call.
class PreparedRsaKey {
 public:
  explicit PreparedRsaKey(RsaPublicKey key);

  /// Verifies an rsa_sign() signature. Returns false on any mismatch
  /// (never throws for bad signatures — hostile input is an expected
  /// outcome). [[nodiscard]]: a dropped verdict means a forged signature
  /// goes unnoticed.
  [[nodiscard]] bool verify(common::ByteView message,
                            common::ByteView signature) const;

  /// RsaPublicKey::serialize() of the key, computed once.
  [[nodiscard]] common::ByteView encoding() const { return encoding_; }

 private:
  RsaPublicKey key_;
  common::Bytes encoding_;
  // Absent when the modulus is even or below 2, which no RSA key has; such a
  // key still verifies through BigUInt::mod_exp, as it always did.
  std::optional<MontgomeryCtx> mont_;
};

/// One-shot PreparedRsaKey(key).verify(message, signature).
/// [[nodiscard]]: a dropped verdict means a forged signature goes unnoticed.
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, common::ByteView message,
                common::ByteView signature);

}  // namespace worm::crypto
