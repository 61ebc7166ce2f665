// RSA tests: keygen invariants, sign/verify round-trips at the paper's three
// key strengths (512/1024/2048), tamper detection, and serialization.
// Keys are generated once per strength and shared across tests (keygen is
// the expensive part).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "crypto/drbg.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"

namespace worm::crypto {
namespace {

using common::Bytes;
using common::to_bytes;

/// Key `variant` of a strength; variant 0 is the key most tests share.
const RsaPrivateKey& cached_key(std::size_t bits, std::uint64_t variant = 0) {
  static std::map<std::pair<std::size_t, std::uint64_t>, RsaPrivateKey> cache;
  auto it = cache.find({bits, variant});
  if (it == cache.end()) {
    Drbg rng(0x5157ull + bits + (variant << 32));
    it = cache.emplace(std::pair{bits, variant}, rsa_generate(rng, bits)).first;
  }
  return it->second;
}

class RsaStrengths : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(PaperKeySizes, RsaStrengths,
                         ::testing::Values(512, 768, 1024, 2048),
                         [](const auto& param_info) {
                           return "bits" + std::to_string(param_info.param);
                         });

TEST_P(RsaStrengths, KeygenInvariants) {
  const RsaPrivateKey& k = cached_key(GetParam());
  EXPECT_EQ(k.n.bit_length(), GetParam());
  EXPECT_EQ(k.e, BigUInt(65537));
  EXPECT_EQ(k.p * k.q, k.n);
  Drbg rng(1);
  EXPECT_TRUE(is_probable_prime(k.p, rng));
  EXPECT_TRUE(is_probable_prime(k.q, rng));
  // e*d == 1 mod phi(n)
  BigUInt phi = (k.p - BigUInt(1)) * (k.q - BigUInt(1));
  EXPECT_EQ((k.e * k.d) % phi, BigUInt(1));
  // CRT components consistent.
  EXPECT_EQ(k.dp, k.d % (k.p - BigUInt(1)));
  EXPECT_EQ(k.dq, k.d % (k.q - BigUInt(1)));
  EXPECT_EQ((k.q * k.qinv) % k.p, BigUInt(1));
}

TEST_P(RsaStrengths, PreparedKeyMatchesOneShotVerify) {
  // One prepared key checks every case in turn: reusing its Montgomery
  // context must not change a verdict, and each verdict must be the
  // one-shot rsa_verify's.
  const RsaPrivateKey& k = cached_key(GetParam());
  const PreparedRsaKey prepared(k.public_key());
  EXPECT_EQ(common::to_bytes(prepared.encoding()), k.public_key().serialize());
  const Bytes msg = to_bytes("prepared once, verified many times");
  const Bytes sig = rsa_sign(k, msg);
  const std::size_t len = sig.size();
  Bytes flipped = sig;
  flipped[len / 2] ^= 0x10;
  Bytes longer = sig;
  longer.push_back(0x00);
  struct Case {
    const char* name;
    Bytes sig;
    bool want;
  };
  const Case cases[] = {
      {"valid", sig, true},
      {"one bit flipped", flipped, false},
      {"one byte short", Bytes(sig.begin(), sig.end() - 1), false},
      {"one byte long", longer, false},
      {"empty", Bytes{}, false},
      {"equal to n", k.n.to_be_bytes_padded(len), false},
      {"above n", (k.n + BigUInt(1)).to_be_bytes_padded(len), false},
      {"all ones", Bytes(len, 0xff), false},
      {"valid again", sig, true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(prepared.verify(msg, c.sig), c.want) << c.name;
    EXPECT_EQ(rsa_verify(k.public_key(), msg, c.sig), c.want) << c.name;
  }
  EXPECT_FALSE(prepared.verify(to_bytes("another message"), sig));
}

TEST_P(RsaStrengths, SignVerifyRoundTrip) {
  const RsaPrivateKey& k = cached_key(GetParam());
  Bytes msg = to_bytes("compliance record #42");
  Bytes sig = rsa_sign(k, msg);
  EXPECT_EQ(sig.size(), GetParam() / 8);
  EXPECT_TRUE(rsa_verify(k.public_key(), msg, sig));
}

TEST_P(RsaStrengths, VerifyRejectsTamperedMessage) {
  const RsaPrivateKey& k = cached_key(GetParam());
  Bytes sig = rsa_sign(k, to_bytes("original"));
  EXPECT_FALSE(rsa_verify(k.public_key(), to_bytes("altered"), sig));
}

TEST_P(RsaStrengths, VerifyRejectsTamperedSignature) {
  const RsaPrivateKey& k = cached_key(GetParam());
  Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign(k, msg);
  for (std::size_t pos : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(rsa_verify(k.public_key(), msg, bad)) << "pos=" << pos;
  }
}

TEST_P(RsaStrengths, VerifyRejectsWrongKey) {
  const RsaPrivateKey& k = cached_key(GetParam());
  Drbg rng(77);
  RsaPrivateKey other = rsa_generate(rng, GetParam());
  Bytes msg = to_bytes("message");
  EXPECT_FALSE(rsa_verify(other.public_key(), msg, rsa_sign(k, msg)));
}

TEST(Rsa, VerifyRejectsMalformedSignatures) {
  const RsaPrivateKey& k = cached_key(512);
  Bytes msg = to_bytes("m");
  EXPECT_FALSE(rsa_verify(k.public_key(), msg, Bytes{}));
  EXPECT_FALSE(rsa_verify(k.public_key(), msg, Bytes(63, 0)));   // short
  EXPECT_FALSE(rsa_verify(k.public_key(), msg, Bytes(65, 0)));   // long
  // s >= n must be rejected outright.
  Bytes huge = k.n.to_be_bytes_padded(64);
  EXPECT_FALSE(rsa_verify(k.public_key(), msg, huge));
}

TEST(Rsa, SignaturesAreDeterministic) {
  // PKCS#1 v1.5 is deterministic — a property the VRDT dedup logic may rely
  // on (re-signing the same VRD yields the same bytes).
  const RsaPrivateKey& k = cached_key(512);
  Bytes msg = to_bytes("same message");
  EXPECT_EQ(rsa_sign(k, msg), rsa_sign(k, msg));
}

TEST(Rsa, WindowedAndBinaryKernelsSignByteIdentically) {
  // Signing is deterministic, so the production kernel (sliding window over
  // 64-bit limbs, on the MULX/ADX product where the host and limb count
  // have it), the same ladder on the portable product and the binary
  // reference (32-bit limbs) must produce the same bytes for every key and
  // message: witnesses, journals and disk images do not depend on which
  // kernel ran. 768-bit keys (6-limb CRT halves, a 12-limb modulus) run
  // the portable product under every strategy.
  const std::string long_text(1000, 'w');
  for (std::size_t bits : {std::size_t{512}, std::size_t{768},
                           std::size_t{1024}, std::size_t{2048}}) {
    for (std::uint64_t variant : {0u, 1u}) {
      const RsaPrivateKey& k = cached_key(bits, variant);
      for (const std::string& text :
           {std::string(), std::string("compliance record #42"), long_text}) {
        const Bytes msg = to_bytes(text);
        set_mod_exp_strategy(ModExpStrategy::kBinary);
        const Bytes reference = rsa_sign(k, msg);
        set_mod_exp_strategy(ModExpStrategy::kPortable);
        EXPECT_EQ(rsa_sign(k, msg), reference)
            << "portable bits=" << bits << " variant=" << variant
            << " len=" << text.size();
        set_mod_exp_strategy(ModExpStrategy::kWindowed);
        EXPECT_EQ(rsa_sign(k, msg), reference)
            << "bits=" << bits << " variant=" << variant
            << " len=" << text.size();
        EXPECT_TRUE(rsa_verify(k.public_key(), msg, reference));
      }
    }
  }
}

TEST(Rsa, DistinctMessagesDistinctSignatures) {
  const RsaPrivateKey& k = cached_key(512);
  EXPECT_NE(rsa_sign(k, to_bytes("a")), rsa_sign(k, to_bytes("b")));
}

TEST(Rsa, EmptyMessageSigns) {
  const RsaPrivateKey& k = cached_key(512);
  Bytes sig = rsa_sign(k, Bytes{});
  EXPECT_TRUE(rsa_verify(k.public_key(), Bytes{}, sig));
}

TEST(Rsa, PublicKeySerializationRoundTrip) {
  const RsaPrivateKey& k = cached_key(1024);
  RsaPublicKey pub = k.public_key();
  EXPECT_EQ(RsaPublicKey::deserialize(pub.serialize()), pub);
}

TEST(Rsa, PrivateKeySerializationRoundTrip) {
  const RsaPrivateKey& k = cached_key(1024);
  RsaPrivateKey back = RsaPrivateKey::deserialize(k.serialize());
  EXPECT_EQ(back.n, k.n);
  EXPECT_EQ(back.d, k.d);
  EXPECT_EQ(back.qinv, k.qinv);
  // The deserialized key must still sign correctly.
  Bytes msg = to_bytes("after round trip");
  EXPECT_TRUE(rsa_verify(back.public_key(), msg, rsa_sign(back, msg)));
}

TEST(Rsa, DeserializeRejectsGarbage) {
  EXPECT_THROW(RsaPublicKey::deserialize(to_bytes("nonsense")),
               common::ParseError);
}

TEST(Rsa, GenerateRejectsTinyModulus) {
  Drbg rng(5);
  EXPECT_THROW(rsa_generate(rng, 256), common::PreconditionError);
  EXPECT_THROW(rsa_generate(rng, 513), common::PreconditionError);
}

TEST(Rsa, CrossKeySizeIsolation) {
  // A 512-bit signature never verifies under the 1024-bit public key.
  Bytes msg = to_bytes("m");
  Bytes sig512 = rsa_sign(cached_key(512), msg);
  EXPECT_FALSE(rsa_verify(cached_key(1024).public_key(), msg, sig512));
}

}  // namespace
}  // namespace worm::crypto
