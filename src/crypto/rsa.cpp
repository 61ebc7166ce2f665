#include "crypto/rsa.hpp"

#include <string>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "crypto/prime.hpp"
#include "crypto/sha256.hpp"

namespace worm::crypto {

using common::ByteReader;
using common::Bytes;
using common::ByteView;
using common::ByteWriter;

namespace {

void put_big(ByteWriter& w, const BigUInt& v) { w.blob(v.to_be_bytes()); }
BigUInt get_big(ByteReader& r) { return BigUInt::from_be_bytes(r.blob()); }

// DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
constexpr std::uint8_t kSha256Prefix[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

// EMSA-PKCS1-v1_5 encoding of SHA-256(message) into em_len bytes.
Bytes emsa_encode(ByteView message, std::size_t em_len) {
  Sha256::Digest digest = Sha256::hash(message);
  std::size_t t_len = sizeof(kSha256Prefix) + digest.size();
  WORM_REQUIRE(em_len >= t_len + 11, "rsa: modulus too small for SHA-256");
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), std::begin(kSha256Prefix), std::end(kSha256Prefix));
  em.insert(em.end(), digest.begin(), digest.end());
  WORM_CHECK(em.size() == em_len, "rsa: bad EMSA length");
  return em;
}

}  // namespace

Bytes RsaPublicKey::serialize() const {
  ByteWriter w;
  put_big(w, n);
  put_big(w, e);
  return w.take();
}

RsaPublicKey RsaPublicKey::deserialize(ByteView data) {
  ByteReader r(data);
  RsaPublicKey k;
  k.n = get_big(r);
  k.e = get_big(r);
  r.expect_end();
  return k;
}

Bytes RsaPrivateKey::serialize() const {
  ByteWriter w;
  for (const BigUInt* v : {&n, &e, &d, &p, &q, &dp, &dq, &qinv}) put_big(w, *v);
  return w.take();
}

RsaPrivateKey RsaPrivateKey::deserialize(ByteView data) {
  ByteReader r(data);
  RsaPrivateKey k;
  for (BigUInt* v : {&k.n, &k.e, &k.d, &k.p, &k.q, &k.dp, &k.dq, &k.qinv}) {
    *v = get_big(r);
  }
  r.expect_end();
  return k;
}

RsaPrivateKey rsa_generate(Drbg& rng, std::size_t bits) {
  WORM_REQUIRE(bits >= 512 && bits % 2 == 0,
               "rsa_generate: modulus must be >= 512 bits and even");
  const BigUInt e(65537);
  // With honest primes a round fails only when p == q or e divides p-1 or
  // q-1 (about 2/65537 per round; their top two bits make n full length),
  // so kRounds failures in a row mean broken arithmetic.
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    BigUInt p = generate_prime(rng, bits / 2);
    BigUInt q = generate_prime(rng, bits / 2);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // convention: p > q, qinv = q^-1 mod p
    BigUInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigUInt p1 = p - BigUInt(1);
    BigUInt q1 = q - BigUInt(1);
    BigUInt phi = p1 * q1;
    if (BigUInt::gcd(e, phi) != BigUInt(1)) continue;

    RsaPrivateKey k;
    k.n = std::move(n);
    k.e = e;
    k.d = BigUInt::mod_inverse(e, phi);
    k.dp = k.d % p1;
    k.dq = k.d % q1;
    k.qinv = BigUInt::mod_inverse(q, p);
    k.p = std::move(p);
    k.q = std::move(q);
    return k;
  }
  throw common::InternalError("rsa_generate: no valid " +
                              std::to_string(bits) + "-bit key in " +
                              std::to_string(kRounds) + " rounds");
}

Bytes rsa_sign(const RsaPrivateKey& key, ByteView message) {
  std::size_t k = (key.n.bit_length() + 7) / 8;
  BigUInt m = BigUInt::from_be_bytes(emsa_encode(message, k));

  // CRT: s = sq + q * ((sp - sq) * qinv mod p)
  BigUInt sp = BigUInt::mod_exp(m % key.p, key.dp, key.p);
  BigUInt sq = BigUInt::mod_exp(m % key.q, key.dq, key.q);
  BigUInt diff = sp >= sq ? sp - sq : key.p - ((sq - sp) % key.p);
  BigUInt h = (diff * key.qinv) % key.p;
  BigUInt s = sq + key.q * h;

  // Defensive: verify before releasing (guards against CRT fault bugs).
  WORM_CHECK(BigUInt::mod_exp(s, key.e, key.n) == m,
             "rsa_sign: self-check failed");
  return s.to_be_bytes_padded(k);
}

PreparedRsaKey::PreparedRsaKey(RsaPublicKey key)
    : key_(std::move(key)), encoding_(key_.serialize()) {
  if (key_.n.is_odd() && key_.n > BigUInt(1)) mont_.emplace(key_.n);
}

bool PreparedRsaKey::verify(ByteView message, ByteView signature) const {
  std::size_t k = (key_.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  BigUInt s = BigUInt::from_be_bytes(signature);
  if (s >= key_.n) return false;
  BigUInt m = mont_ ? mont_->mod_exp(s, key_.e)
                    : BigUInt::mod_exp(s, key_.e, key_.n);
  Bytes expected = emsa_encode(message, k);
  return common::ct_equal(m.to_be_bytes_padded(k), expected);
}

bool rsa_verify(const RsaPublicKey& key, ByteView message,
                ByteView signature) {
  return PreparedRsaKey(key).verify(message, signature);
}

}  // namespace worm::crypto
