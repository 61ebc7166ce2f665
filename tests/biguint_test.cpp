// BigUInt correctness: hand vectors, Python-generated cross-check vectors
// (biguint_vectors.inc), and property-based sweeps over random operands —
// this arithmetic underpins every RSA signature in the system.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "crypto/biguint.hpp"
#include "crypto/drbg.hpp"
#include "crypto/prime.hpp"

#include "biguint_vectors.inc"

namespace worm::crypto {
namespace {

using common::PreconditionError;

TEST(BigUInt, ZeroBasics) {
  BigUInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z, BigUInt(0));
  EXPECT_EQ(z.to_be_bytes(), common::Bytes{0});
}

TEST(BigUInt, U64RoundTrip) {
  BigUInt v(0x0123456789abcdefull);
  EXPECT_EQ(v.low_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(v.bit_length(), 57u);
  EXPECT_EQ(v.to_hex(), "123456789abcdef");
}

TEST(BigUInt, BeBytesRoundTrip) {
  common::Bytes raw = {0x01, 0x00, 0xff, 0xee};
  BigUInt v = BigUInt::from_be_bytes(raw);
  EXPECT_EQ(v.low_u64(), 0x0100ffeeull);
  EXPECT_EQ(v.to_be_bytes(), raw);
  // Leading zeros in input are tolerated and normalized away.
  common::Bytes padded = {0x00, 0x00, 0x01, 0x00, 0xff, 0xee};
  EXPECT_EQ(BigUInt::from_be_bytes(padded), v);
  EXPECT_EQ(v.to_be_bytes_padded(6), padded);
}

TEST(BigUInt, PaddedEncodingRejectsOverflow) {
  BigUInt v(0x10000);
  EXPECT_THROW(v.to_be_bytes_padded(2), PreconditionError);
}

TEST(BigUInt, ComparisonOrdering) {
  EXPECT_LT(BigUInt(5), BigUInt(7));
  EXPECT_GT(BigUInt::from_hex("100000000"), BigUInt(0xffffffffull));
  EXPECT_EQ(BigUInt::from_hex("ff"), BigUInt(255));
}

TEST(BigUInt, AddSubCarryChains) {
  BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffff");
  BigUInt one(1);
  BigUInt sum = a + one;
  EXPECT_EQ(sum.to_hex(), "1000000000000000000000000");
  EXPECT_EQ(sum - one, a);
  EXPECT_EQ(sum - a, one);
}

TEST(BigUInt, SubtractUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), PreconditionError);
}

TEST(BigUInt, MulBasics) {
  EXPECT_EQ(BigUInt(0) * BigUInt(12345), BigUInt(0));
  EXPECT_EQ((BigUInt(0xffffffffull) * BigUInt(0xffffffffull)).to_hex(),
            "fffffffe00000001");
}

TEST(BigUInt, ShiftRoundTrip) {
  BigUInt v = BigUInt::from_hex("deadbeefcafe");
  EXPECT_EQ((v << 67) >> 67, v);
  EXPECT_EQ((v << 3).to_hex(), "6f56df77e57f0");
  EXPECT_EQ(v >> 200, BigUInt(0));
}

TEST(BigUInt, DivmodSmall) {
  auto [q, r] = BigUInt::from_hex("deadbeefdeadbeef").divmod_u32(1000);
  EXPECT_EQ(q, BigUInt(16045690984833335023ull / 1000));
  EXPECT_EQ(r, 16045690984833335023ull % 1000);
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(1).divmod(BigUInt(0)), PreconditionError);
  EXPECT_THROW(BigUInt(1).divmod_u32(0), PreconditionError);
}

TEST(BigUInt, DivmodSmallerDividend) {
  auto [q, r] = BigUInt(5).divmod(BigUInt::from_hex("ffffffffffffffff"));
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigUInt(5));
}

// The classic Knuth-D trap: divisor whose top limb forces qhat adjustment.
TEST(BigUInt, DivmodQhatAdjustmentCases) {
  // u = 0x7fff800100000000, v = 0x800080020005 — exercises the add-back path
  BigUInt u = BigUInt::from_hex("7fff8001000000000000000000000000");
  BigUInt v = BigUInt::from_hex("80008002000500060007");
  auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigUInt, PythonVectors) {
  for (const BigVector& vec : kBigVectors) {
    BigUInt a = BigUInt::from_hex(vec.a);
    BigUInt b = BigUInt::from_hex(vec.b);
    BigUInt m = BigUInt::from_hex(vec.m);
    EXPECT_EQ((a + b).to_hex(), vec.sum);
    EXPECT_EQ((a * b).to_hex(), vec.prod);
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q.to_hex(), vec.quot);
    EXPECT_EQ(r.to_hex(), vec.rem);
    EXPECT_EQ(BigUInt::mod_exp(a, b, m).to_hex(), vec.modexp);
  }
}

TEST(BigUInt, DivmodPropertyRandom) {
  Drbg rng(7);
  for (int i = 0; i < 200; ++i) {
    std::size_t abits = 1 + rng.uniform(512);
    std::size_t bbits = 1 + rng.uniform(256);
    BigUInt a = rng.big_with_bits(abits);
    BigUInt b = rng.big_with_bits(bbits);
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a) << "a=" << a.to_hex() << " b=" << b.to_hex();
    EXPECT_LT(r, b);
  }
}

TEST(BigUInt, AddSubPropertyRandom) {
  Drbg rng(8);
  for (int i = 0; i < 200; ++i) {
    BigUInt a = rng.big_with_bits(1 + rng.uniform(300));
    BigUInt b = rng.big_with_bits(1 + rng.uniform(300));
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a + b, b + a);
  }
}

TEST(BigUInt, KaratsubaMatchesSchoolbook) {
  // Sweep operand sizes straddling the Karatsuba threshold, including
  // lopsided shapes and limbs full of carries.
  Drbg rng(0x4a7a);
  for (std::size_t abits :
       {64u, 512u, 768u, 1024u, 1536u, 2048u, 4096u, 8191u}) {
    for (std::size_t bbits : {32u, 768u, 2048u, 4099u}) {
      BigUInt a = rng.big_with_bits(abits);
      BigUInt b = rng.big_with_bits(bbits);
      EXPECT_EQ(BigUInt::mul_karatsuba(a, b),
                BigUInt::mul_schoolbook(a, b))
          << abits << "x" << bbits;
    }
  }
  // All-ones operands maximize internal carries.
  BigUInt ones = (BigUInt(1) << 3072) - BigUInt(1);
  EXPECT_EQ(BigUInt::mul_karatsuba(ones, ones),
            BigUInt::mul_schoolbook(ones, ones));
}

TEST(BigUInt, MulDistributesOverAdd) {
  Drbg rng(9);
  for (int i = 0; i < 100; ++i) {
    BigUInt a = rng.big_with_bits(1 + rng.uniform(200));
    BigUInt b = rng.big_with_bits(1 + rng.uniform(200));
    BigUInt c = rng.big_with_bits(1 + rng.uniform(200));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigUInt, ModExpMatchesNaive) {
  Drbg rng(10);
  for (int i = 0; i < 40; ++i) {
    BigUInt base = rng.big_with_bits(1 + rng.uniform(64));
    std::uint64_t exp = rng.uniform(200);
    BigUInt m = rng.big_with_bits(64);
    if (m.is_even()) m = m + BigUInt(1);
    BigUInt naive(1);
    for (std::uint64_t j = 0; j < exp; ++j) naive = (naive * base) % m;
    EXPECT_EQ(BigUInt::mod_exp(base, BigUInt(exp), m), naive);
  }
}

TEST(BigUInt, ModExpEvenModulus) {
  // Even modulus exercises the non-Montgomery fallback.
  EXPECT_EQ(BigUInt::mod_exp(BigUInt(3), BigUInt(100), BigUInt(1000)),
            BigUInt(1));  // 3^100 mod 1000 == 1 (3^100 ends ...001)
  EXPECT_EQ(BigUInt::mod_exp(BigUInt(7), BigUInt(13), BigUInt(2048)),
            BigUInt(96889010407ull % 2048));
}

TEST(BigUInt, ModInverseProperty) {
  Drbg rng(11);
  int tested = 0;
  while (tested < 60) {
    BigUInt a = rng.big_with_bits(1 + rng.uniform(128));
    BigUInt m = rng.big_with_bits(2 + rng.uniform(128));
    if (m < BigUInt(2) || BigUInt::gcd(a, m) != BigUInt(1)) continue;
    BigUInt inv = BigUInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigUInt(1) % m);
    EXPECT_LT(inv, m);
    ++tested;
  }
}

TEST(BigUInt, ModInverseNonCoprimeThrows) {
  EXPECT_THROW(BigUInt::mod_inverse(BigUInt(6), BigUInt(9)),
               PreconditionError);
  EXPECT_THROW(BigUInt::mod_inverse(BigUInt(0), BigUInt(9)),
               PreconditionError);
}

TEST(BigUInt, GcdKnownValues) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(48), BigUInt(36)), BigUInt(12));
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(31)), BigUInt(1));
  EXPECT_EQ(BigUInt::gcd(BigUInt(0), BigUInt(5)), BigUInt(5));
}

TEST(Montgomery, MulMatchesPlainModMul) {
  Drbg rng(12);
  for (int i = 0; i < 60; ++i) {
    BigUInt m = rng.big_with_bits(128);
    if (m.is_even()) m = m + BigUInt(1);
    MontgomeryCtx ctx(m);
    BigUInt a = rng.big_below(m);
    BigUInt b = rng.big_below(m);
    BigUInt got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
    EXPECT_EQ(got, (a * b) % m);
  }
}

TEST(Montgomery, RequiresOddModulus) {
  EXPECT_THROW(MontgomeryCtx(BigUInt(10)), PreconditionError);
  EXPECT_THROW(MontgomeryCtx(BigUInt(1)), PreconditionError);
}

// Square-and-multiply on plain (a * b) % m: shares no code with either
// Montgomery kernel.
BigUInt naive_mod_exp(const BigUInt& base, const BigUInt& exp,
                      const BigUInt& m) {
  BigUInt b = base % m;
  BigUInt acc = BigUInt(1) % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = (acc * acc) % m;
    if (exp.bit(i)) acc = (acc * b) % m;
  }
  return acc;
}

TEST(Montgomery, WindowedMatchesBinaryAtRsaSizes) {
  // The windowed ladder (64-bit limbs) and the binary square-and-multiply
  // ladder (32-bit limbs) are two implementations of the same function;
  // cross-check them on random inputs at every RSA operand size the repo
  // uses, including edge exponents that stress the window splitter (0, 1,
  // and all-ones nibbles).
  Drbg rng(15);
  for (std::size_t bits : {std::size_t{512}, std::size_t{1024},
                           std::size_t{2048}}) {
    BigUInt m = rng.big_with_bits(bits);
    if (m.is_even()) m = m + BigUInt(1);
    MontgomeryCtx ctx(m);
    for (int i = 0; i < (bits == 2048 ? 2 : 6); ++i) {
      BigUInt base = rng.big_below(m);
      BigUInt exp = rng.big_with_bits(1 + rng.uniform(bits));
      EXPECT_EQ(ctx.mod_exp(base, exp), ctx.mod_exp_binary(base, exp))
          << "bits=" << bits << " i=" << i;
    }
    BigUInt base = rng.big_below(m);
    EXPECT_EQ(ctx.mod_exp(base, BigUInt(0)), ctx.mod_exp_binary(base, BigUInt(0)));
    EXPECT_EQ(ctx.mod_exp(base, BigUInt(1)), ctx.mod_exp_binary(base, BigUInt(1)));
    BigUInt all_ones = (BigUInt(1) << 64) - BigUInt(1);
    EXPECT_EQ(ctx.mod_exp(base, all_ones), ctx.mod_exp_binary(base, all_ones));
  }

  // Every 32-bit limb count from 1 to 65: odd counts run the windowed
  // kernel's zero-padded top 64-bit limb. Per count, three moduli: random,
  // 2^(32k) - 1 (every limb full) and 2^(32k-1) + 1 (only the top bit and
  // bit 0 set). Bases cover 0, 1, m - 1 and >= m; exponents cover 0, 1,
  // 65537 (the one-bit window), all-ones and random up to the modulus width.
  // The full-width exponents run on the random base only, which bounds the
  // binary reference's cost at 65 limbs.
  for (std::size_t k = 1; k <= 65; ++k) {
    const std::size_t bits = 32 * k;
    BigUInt random_m = rng.big_with_bits(bits);
    if (random_m.is_even()) random_m = random_m + BigUInt(1);
    for (const BigUInt& m :
         {random_m, (BigUInt(1) << bits) - BigUInt(1),
          (BigUInt(1) << (bits - 1)) + BigUInt(1)}) {
      MontgomeryCtx ctx(m);
      const BigUInt r = rng.big_below(m);
      const BigUInt wide_ones = (BigUInt(1) << bits) - BigUInt(1);
      const BigUInt wide_random = rng.big_with_bits(1 + rng.uniform(bits));
      auto check = [&](const BigUInt& base, const BigUInt& exp) {
        const BigUInt want = ctx.mod_exp_binary(base, exp);
        EXPECT_EQ(ctx.mod_exp(base, exp), want)
            << "limbs=" << k << " m=" << m.to_hex() << " base="
            << base.to_hex() << " exp=" << exp.to_hex();
        if (bits <= 128) {
          EXPECT_EQ(naive_mod_exp(base, exp, m), want)
              << "limbs=" << k << " m=" << m.to_hex();
        }
      };
      for (const BigUInt& base :
           {BigUInt(0), BigUInt(1), m - BigUInt(1), m + r, r}) {
        for (const BigUInt& exp :
             {BigUInt(0), BigUInt(1), BigUInt(65537),
              (BigUInt(1) << 64) - BigUInt(1)}) {
          check(base, exp);
        }
      }
      check(r, wide_ones);
      check(r, wide_random);
    }
  }
}

TEST(Montgomery, AdxProductMatchesPortableAtUnrolledLimbCounts) {
  // The windowed ladder on the dispatched product (MULX with ADCX/ADOX
  // carry chains at 4, 8, 16 and 32 64-bit limbs on BMI2+ADX hosts), on the
  // portable product, and the 32-bit binary ladder must agree. Moduli: a
  // random one, one with an all-ones top limb, one whose top limb has only
  // its top bit set (both over random low limbs), 2^(64N) - 1 and
  // 2^(64N-1) + 1. Bases 0, 1, m - 1, all-ones limbs (2^(64N) - 1, reduced
  // on entry), >= m and random; and the bases x * R^-1 whose Montgomery
  // form, the product's operand, is 1 or m - 1. Exponents 0-3, 65537 (the
  // verify shape), and full-length random and all-ones ones.
  struct StrategyGuard {
    ~StrategyGuard() { set_mod_exp_strategy(ModExpStrategy::kWindowed); }
  } guard;
  Drbg rng(18);
  for (std::size_t limbs : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                            std::size_t{32}}) {
    const std::size_t bits = 64 * limbs;
    const BigUInt wide_ones = (BigUInt(1) << bits) - BigUInt(1);
    const BigUInt top_limb = BigUInt(1) << (bits - 64);
    BigUInt low = rng.big_below(top_limb);
    if (low.is_even()) low = low + BigUInt(1);
    BigUInt random_m = rng.big_with_bits(bits);
    if (random_m.is_even()) random_m = random_m + BigUInt(1);
    for (const BigUInt& m :
         {random_m, wide_ones - top_limb + BigUInt(1) + low,
          (BigUInt(1) << (bits - 1)) + low, wide_ones,
          (BigUInt(1) << (bits - 1)) + BigUInt(1)}) {
      MontgomeryCtx ctx(m);
      const BigUInt r_inv =
          BigUInt::mod_inverse((BigUInt(1) << bits) % m, m);
      const BigUInt r = rng.big_below(m);
      auto check = [&](const BigUInt& base, const BigUInt& exp) {
        const BigUInt want = ctx.mod_exp_binary(base, exp);
        set_mod_exp_strategy(ModExpStrategy::kPortable);
        EXPECT_EQ(ctx.mod_exp(base, exp), want)
            << "portable limbs=" << limbs << " m=" << m.to_hex()
            << " base=" << base.to_hex() << " exp=" << exp.to_hex();
        set_mod_exp_strategy(ModExpStrategy::kWindowed);
        EXPECT_EQ(ctx.mod_exp(base, exp), want)
            << "dispatched limbs=" << limbs << " m=" << m.to_hex()
            << " base=" << base.to_hex() << " exp=" << exp.to_hex();
        if (limbs == 4) {
          EXPECT_EQ(naive_mod_exp(base, exp, m), want)
              << "limbs=" << limbs << " m=" << m.to_hex();
        }
      };
      const std::vector<BigUInt> bases = {
          BigUInt(0), BigUInt(1), m - BigUInt(1), wide_ones, m + r, r,
          r_inv, ((m - BigUInt(1)) * r_inv) % m};
      for (const BigUInt& base : bases) {
        for (std::uint64_t e : {0u, 1u, 2u, 3u, 65537u}) check(base, e);
      }
      for (const BigUInt& base : {r, m - BigUInt(1), r_inv}) {
        check(base, wide_ones);
        check(base, rng.big_with_bits(bits - rng.uniform(8)));
      }
    }
  }
}

TEST(Montgomery, StrategyHookRoutesBigUIntModExp) {
  // BigUInt::mod_exp honors the process-wide strategy hook; every strategy
  // must agree through the public entry point too.
  Drbg rng(16);
  BigUInt m = rng.big_with_bits(512);
  if (m.is_even()) m = m + BigUInt(1);
  BigUInt base = rng.big_below(m);
  BigUInt exp = rng.big_with_bits(512);
  set_mod_exp_strategy(ModExpStrategy::kBinary);
  BigUInt via_binary = BigUInt::mod_exp(base, exp, m);
  set_mod_exp_strategy(ModExpStrategy::kPortable);
  BigUInt via_portable = BigUInt::mod_exp(base, exp, m);
  set_mod_exp_strategy(ModExpStrategy::kWindowed);
  BigUInt via_windowed = BigUInt::mod_exp(base, exp, m);
  EXPECT_EQ(via_windowed, via_binary);
  EXPECT_EQ(via_portable, via_binary);
  EXPECT_EQ(mod_exp_strategy(), ModExpStrategy::kWindowed);
}

TEST(Prime, KnownPrimesAndComposites) {
  Drbg rng(13);
  for (std::uint32_t p : {2u, 3u, 5u, 65537u, 104729u}) {
    EXPECT_TRUE(is_probable_prime(BigUInt(p), rng)) << p;
  }
  for (std::uint32_t c : {1u, 4u, 561u /*Carmichael*/, 65536u, 104730u}) {
    EXPECT_FALSE(is_probable_prime(BigUInt(c), rng)) << c;
  }
  // Mersenne prime 2^127 - 1 and composite 2^128 + 1.
  EXPECT_TRUE(is_probable_prime((BigUInt(1) << 127) - BigUInt(1), rng));
  EXPECT_FALSE(is_probable_prime((BigUInt(1) << 128) + BigUInt(1), rng));
  // Mersenne primes with odd 32-bit limb counts (3 and 17), which run the
  // exponentiation kernel's zero-padded top limb, and their odd neighbours
  // (all composite; 2^521 - 3 has no factor below 1000, so it reaches
  // Miller-Rabin).
  for (std::size_t e : {std::size_t{89}, std::size_t{521}}) {
    const BigUInt mersenne = (BigUInt(1) << e) - BigUInt(1);
    EXPECT_TRUE(is_probable_prime(mersenne, rng)) << "2^" << e << " - 1";
    EXPECT_FALSE(is_probable_prime(mersenne - BigUInt(2), rng))
        << "2^" << e << " - 3";
    EXPECT_FALSE(is_probable_prime(mersenne + BigUInt(2), rng))
        << "2^" << e << " + 1";
  }
}

TEST(Prime, GeneratedPrimeShape) {
  Drbg rng(14);
  BigUInt p = generate_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.bit(126));  // top two bits forced for full-length RSA moduli
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(is_probable_prime(p, rng));
}

TEST(Drbg, DeterministicAndDistinctStreams) {
  Drbg a(99), b(99), c(100);
  EXPECT_EQ(a.bytes(32), b.bytes(32));
  EXPECT_NE(Drbg(99).bytes(32), c.bytes(32));
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(1), b(1);
  b.reseed(common::to_bytes("extra entropy"));
  EXPECT_NE(a.bytes(16), b.bytes(16));
}

TEST(Drbg, UniformBounds) {
  Drbg rng(15);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Drbg, BigBelowRespectsBound) {
  Drbg rng(16);
  BigUInt bound = BigUInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.big_below(bound), bound);
  }
}

TEST(Drbg, BigWithBitsExact) {
  Drbg rng(17);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 255u, 256u}) {
    EXPECT_EQ(rng.big_with_bits(bits).bit_length(), bits);
  }
}

}  // namespace
}  // namespace worm::crypto
