#include "crypto/prime.hpp"

#include <array>
#include <string>

#include "common/error.hpp"

namespace worm::crypto {

namespace {
// Primes below 1000 for cheap trial division before Miller-Rabin.
constexpr std::array<std::uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

std::size_t default_rounds(std::size_t bits) {
  // HAC Table 4.4 (error < 2^-80 for random candidates).
  if (bits >= 1300) return 2;
  if (bits >= 850) return 3;
  if (bits >= 650) return 4;
  if (bits >= 550) return 5;
  if (bits >= 450) return 6;
  if (bits >= 400) return 7;
  if (bits >= 350) return 8;
  if (bits >= 300) return 9;
  if (bits >= 250) return 12;
  if (bits >= 200) return 15;
  if (bits >= 150) return 18;
  return 27;
}
}  // namespace

bool is_probable_prime(const BigUInt& n, Drbg& rng, std::size_t rounds) {
  if (n < BigUInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigUInt(p)) return true;
    if (n.divmod_u32(p).second == 0) return false;
  }
  if (rounds == 0) rounds = default_rounds(n.bit_length());

  // n - 1 = d * 2^r with d odd.
  BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  MontgomeryCtx mont(n);
  BigUInt two(2);
  for (std::size_t i = 0; i < rounds; ++i) {
    // Base uniform in [2, n-2].
    BigUInt a = rng.big_below(n - BigUInt(3)) + two;
    BigUInt x = mont.mod_exp(a, d);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t j = 0; j + 1 < r; ++j) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigUInt generate_prime(Drbg& rng, std::size_t bits) {
  WORM_REQUIRE(bits >= 16, "generate_prime: need at least 16 bits");
  // An odd `bits`-bit number is prime with probability about
  // 2 / (bits ln 2), so kCandidatesPerBit * bits candidates all fail with
  // probability about e^(-2 * 64 / ln 2) < 2^-260. Honest arithmetic never
  // exhausts the budget; a broken Montgomery kernel, which makes
  // Miller-Rabin reject every prime, fails here instead of spinning.
  constexpr std::size_t kCandidatesPerBit = 64;
  std::size_t budget = kCandidatesPerBit * bits;
  while (budget > 0) {
    BigUInt cand = rng.big_with_bits(bits);
    // Force the second-highest bit (full-length RSA modulus) and oddness.
    if (!cand.bit(bits - 2)) cand = cand + (BigUInt(1) << (bits - 2));
    if (cand.is_even()) cand = cand + BigUInt(1);
    // Walk odd numbers from the candidate; bounded walk keeps the
    // distribution acceptable and the search fast.
    for (int step = 0; step < 512 && budget > 0; ++step, --budget) {
      if (cand.bit_length() != bits) break;
      if (is_probable_prime(cand, rng)) return cand;
      cand = cand + BigUInt(2);
    }
  }
  throw common::InternalError(
      "generate_prime: no " + std::to_string(bits) + "-bit prime among " +
      std::to_string(kCandidatesPerBit * bits) +
      " candidates; the modular arithmetic is broken");
}

}  // namespace worm::crypto
