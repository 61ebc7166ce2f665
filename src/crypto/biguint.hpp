// Arbitrary-precision unsigned integers, written from scratch for the RSA
// implementation (the paper's SCPU exposes RSA via the IBM CCA API; we link no
// external crypto library). 32-bit limbs, little-endian limb order, with
// Knuth Algorithm D division and Montgomery modular exponentiation (whose
// windowed kernel repacks into 64-bit limbs).
//
// The windowed kernel's Montgomery product is chosen once per modulus: on
// x86-64 hosts whose CPUID reports BMI2 and ADX, moduli of 4, 8, 16 or 32
// 64-bit limbs (256- to 2048-bit RSA moduli and CRT halves) run a MULX
// product with two carry chains (ADCX, ADOX), unrolled per limb count, whose
// final subtraction selects by mask. Every other limb count or host runs
// the portable unsigned __int128 product, which is also the differential
// reference. Both produce identical values: the choice is speed, never
// format.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace worm::crypto {

/// Non-negative big integer. Value semantics; normalized representation
/// (no high zero limbs, zero == empty limb vector).
class BigUInt {
 public:
  BigUInt() = default;
  BigUInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Parses big-endian bytes (leading zeros allowed), the RSA wire format.
  static BigUInt from_be_bytes(common::ByteView bytes);

  /// Parses a hex string (no 0x prefix). Throws ParseError on bad digits.
  static BigUInt from_hex(std::string_view hex);

  /// Minimal-length big-endian encoding ("0" encodes as one zero byte).
  [[nodiscard]] common::Bytes to_be_bytes() const;

  /// Big-endian encoding left-padded with zeros to exactly len bytes.
  /// Throws PreconditionError if the value does not fit.
  [[nodiscard]] common::Bytes to_be_bytes_padded(std::size_t len) const;

  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  [[nodiscard]] bool is_even() const { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  /// Value of bit i (LSB = bit 0).
  [[nodiscard]] bool bit(std::size_t i) const;

  /// Low 64 bits of the value.
  [[nodiscard]] std::uint64_t low_u64() const;

  std::strong_ordering operator<=>(const BigUInt& o) const;
  bool operator==(const BigUInt& o) const = default;

  BigUInt operator+(const BigUInt& o) const;
  /// Throws PreconditionError on underflow (values are unsigned).
  BigUInt operator-(const BigUInt& o) const;
  BigUInt operator*(const BigUInt& o) const;
  BigUInt operator/(const BigUInt& o) const { return divmod(o).first; }
  BigUInt operator%(const BigUInt& o) const { return divmod(o).second; }
  BigUInt operator<<(std::size_t bits) const;
  BigUInt operator>>(std::size_t bits) const;

  BigUInt& operator+=(const BigUInt& o) { return *this = *this + o; }
  BigUInt& operator-=(const BigUInt& o) { return *this = *this - o; }

  /// Quotient and remainder. Throws PreconditionError on division by zero.
  [[nodiscard]] std::pair<BigUInt, BigUInt> divmod(const BigUInt& d) const;

  /// Division by a single limb (fast path for trial division / decimal I/O).
  [[nodiscard]] std::pair<BigUInt, std::uint32_t> divmod_u32(
      std::uint32_t d) const;

  /// (base^exp) mod m. Uses Montgomery multiplication when m is odd (the RSA
  /// case); falls back to plain square-and-multiply otherwise. m must be > 1.
  static BigUInt mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m);

  /// Multiplicative inverse of a modulo m (extended Euclid). Throws
  /// PreconditionError if gcd(a, m) != 1.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

  static BigUInt gcd(BigUInt a, BigUInt b);

  [[nodiscard]] const std::vector<std::uint32_t>& limbs() const {
    return limbs_;
  }

  /// Schoolbook multiplication (always correct; operator* dispatches to
  /// Karatsuba above a limb-count threshold). Exposed for the equivalence
  /// property tests.
  static BigUInt mul_schoolbook(const BigUInt& a, const BigUInt& b);
  static BigUInt mul_karatsuba(const BigUInt& a, const BigUInt& b);

 private:
  friend class MontgomeryCtx;

  void normalize();
  static BigUInt from_limbs(std::vector<std::uint32_t> limbs);
  [[nodiscard]] BigUInt limb_slice(std::size_t from, std::size_t to) const;

  std::vector<std::uint32_t> limbs_;
};

/// Which modular-exponentiation kernel MontgomeryCtx::mod_exp runs. The
/// windowed path is the production default; the binary path and the
/// portable product are the references the cross-check tests and the crypto
/// bench compare it against.
enum class ModExpStrategy : std::uint8_t {
  kWindowed = 0,  // sliding window (up to 4 bits) over 64-bit limbs
  kBinary = 1,    // bit-at-a-time square-and-multiply over 32-bit limbs
  kPortable = 2,  // kWindowed's ladder on the portable product kernel
};

/// Overrides the process-wide mod_exp kernel (bench/test hook).
void set_mod_exp_strategy(ModExpStrategy s);
[[nodiscard]] ModExpStrategy mod_exp_strategy();

/// True when this host runs the windowed kernel's MULX/ADCX/ADOX product
/// (x86-64 with BMI2 and ADX) for moduli of 4, 8, 16 or 32 64-bit limbs.
[[nodiscard]] bool mont_mul_adx_supported();

/// Precomputed context for repeated modular multiplication mod an odd modulus
/// (Montgomery REDC, CIOS variant). One RSA exponentiation reuses one context
/// across all its squarings/multiplications.
class MontgomeryCtx {
 public:
  /// Throws PreconditionError unless m is odd and > 1.
  explicit MontgomeryCtx(const BigUInt& m);

  /// x * R mod m (into Montgomery domain, R = 2^(32k) for k 32-bit limbs).
  /// x must be < m.
  [[nodiscard]] BigUInt to_mont(const BigUInt& x) const;

  /// x * R^-1 mod m (out of Montgomery domain).
  [[nodiscard]] BigUInt from_mont(const BigUInt& x) const;

  /// Montgomery product a*b*R^-1 mod m over 32-bit limbs; operands in
  /// Montgomery domain.
  [[nodiscard]] BigUInt mul(const BigUInt& a, const BigUInt& b) const;

  /// base^exp mod m via this context (a base >= m is reduced first).
  /// Dispatches on mod_exp_strategy(); the windowed kernel works in its own
  /// 64-bit-limb Montgomery domain and raw limb buffers for the whole
  /// exponentiation.
  [[nodiscard]] BigUInt mod_exp(const BigUInt& base, const BigUInt& exp) const;

  /// Bit-at-a-time square-and-multiply on the 32-bit mul(), kept public as
  /// the differential reference for the windowed path.
  [[nodiscard]] BigUInt mod_exp_binary(const BigUInt& base,
                                       const BigUInt& exp) const;

  [[nodiscard]] const BigUInt& modulus() const { return m_; }

 private:
  // CIOS Montgomery product over k_-limb buffers (R = 2^(32k)), behind mul();
  // t is k_+2 limbs of scratch.
  void mont_mul_into(const std::uint32_t* a, const std::uint32_t* b,
                     std::uint32_t* out, std::uint32_t* t) const;
  // Final reduction step: out = t - m if t >= m else t; t is k_+1 limbs.
  void cond_subtract(const std::uint32_t* t, std::uint32_t* out) const;
  // CIOS Montgomery product over n64_.size()-limb little-endian buffers
  // with R64 = 2^(64 * n64_.size()): out = a*b*R64^-1 mod m for a, b < m.
  // t is n64_.size()+1 limbs of scratch; out may alias an input. The
  // portable product: mont_mul64_adx_ runs in its place where it is set.
  void mont_mul64_into(const std::uint64_t* a, const std::uint64_t* b,
                       std::uint64_t* out, std::uint64_t* t) const;
  // The sliding-window ladder, on mont_mul64_adx_ unless `portable`.
  [[nodiscard]] BigUInt mod_exp_windowed(const BigUInt& base,
                                         const BigUInt& exp,
                                         bool portable) const;

  BigUInt m_;
  BigUInt r2_;           // R^2 mod m
  std::uint32_t n0inv_;  // -m^-1 mod 2^32
  std::size_t k_;        // 32-bit limb count of m
  // The windowed kernel's view of m: 64-bit limbs, the top one zero-padded
  // when k_ is odd.
  std::vector<std::uint64_t> n64_;
  std::vector<std::uint64_t> r2_64_;  // R64^2 mod m
  std::uint64_t n0inv64_;             // -m^-1 mod 2^64
  // The MULX/ADX product unrolled for n64_.size() limbs (mont_mul64_into's
  // contract, with m's limbs and n0inv64_ passed in), or null where this
  // host or limb count has none.
  void (*mont_mul64_adx_)(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t n0inv,
                          std::uint64_t* out, std::uint64_t* t) = nullptr;
};

}  // namespace worm::crypto
