#include "crypto/biguint.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define WORM_MONT_ADX 1
#include <cpuid.h>
#else
#define WORM_MONT_ADX 0
#endif

namespace worm::crypto {

using common::Bytes;
using common::ByteView;

namespace {
constexpr std::uint64_t kBase = 1ull << 32;
}

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_limbs(std::vector<std::uint32_t> limbs) {
  BigUInt out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

BigUInt BigUInt::from_be_bytes(ByteView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // Byte i (big-endian) contributes to bit position 8*(size-1-i).
    std::size_t bitpos = 8 * (bytes.size() - 1 - i);
    out.limbs_[bitpos / 32] |= static_cast<std::uint32_t>(bytes[i])
                               << (bitpos % 32);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  return from_be_bytes(common::hex_decode(
      hex.size() % 2 == 0 ? std::string(hex) : "0" + std::string(hex)));
}

Bytes BigUInt::to_be_bytes() const {
  std::size_t nbytes = (bit_length() + 7) / 8;
  if (nbytes == 0) nbytes = 1;
  return to_be_bytes_padded(nbytes);
}

Bytes BigUInt::to_be_bytes_padded(std::size_t len) const {
  WORM_REQUIRE(bit_length() <= len * 8,
               "BigUInt::to_be_bytes_padded: value does not fit");
  Bytes out(len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    std::size_t bitpos = 8 * i;
    if (bitpos / 32 < limbs_.size()) {
      out[len - 1 - i] =
          static_cast<std::uint8_t>(limbs_[bitpos / 32] >> (bitpos % 32));
    }
  }
  return out;
}

std::string BigUInt::to_hex() const {
  std::string s = common::hex_encode(to_be_bytes());
  // Trim leading zero nibble noise but keep at least one digit.
  std::size_t first = s.find_first_not_of('0');
  if (first == std::string::npos) return "0";
  return s.substr(first);
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::uint64_t BigUInt::low_u64() const {
  std::uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering BigUInt::operator<=>(const BigUInt& o) const {
  if (limbs_.size() != o.limbs_.size())
    return limbs_.size() <=> o.limbs_.size();
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] <=> o.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt BigUInt::operator+(const BigUInt& o) const {
  std::vector<std::uint32_t> out(std::max(limbs_.size(), o.limbs_.size()) + 1,
                                 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  WORM_CHECK(carry == 0, "BigUInt::operator+: carry overflow");
  return from_limbs(std::move(out));
}

BigUInt BigUInt::operator-(const BigUInt& o) const {
  WORM_REQUIRE(*this >= o, "BigUInt::operator-: underflow");
  std::vector<std::uint32_t> out(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < o.limbs_.size()) diff -= o.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(diff);
  }
  WORM_CHECK(borrow == 0, "BigUInt::operator-: borrow left over");
  return from_limbs(std::move(out));
}

namespace {
// Operands below this limb count multiply faster with schoolbook than with
// Karatsuba's recursion overhead (64 limbs = 2048 bits; below that the recursion's temporaries cost more than the saved limb products, measured via BM_BigUIntMul).
constexpr std::size_t kKaratsubaThreshold = 64;
}  // namespace

BigUInt BigUInt::mul_schoolbook(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  std::vector<std::uint32_t> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      std::uint64_t cur = out[i + j] + ai * b.limbs_[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry != 0) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return from_limbs(std::move(out));
}

BigUInt BigUInt::limb_slice(std::size_t from, std::size_t to) const {
  if (from >= limbs_.size()) return BigUInt();
  to = std::min(to, limbs_.size());
  return from_limbs(std::vector<std::uint32_t>(
      limbs_.begin() + static_cast<std::ptrdiff_t>(from),
      limbs_.begin() + static_cast<std::ptrdiff_t>(to)));
}

BigUInt BigUInt::mul_karatsuba(const BigUInt& a, const BigUInt& b) {
  // Karatsuba: split at m limbs; three half-size products instead of four.
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  if (std::min(a.limbs_.size(), b.limbs_.size()) < kKaratsubaThreshold) {
    return mul_schoolbook(a, b);
  }
  std::size_t m = n / 2;
  BigUInt a0 = a.limb_slice(0, m);
  BigUInt a1 = a.limb_slice(m, a.limbs_.size());
  BigUInt b0 = b.limb_slice(0, m);
  BigUInt b1 = b.limb_slice(m, b.limbs_.size());

  BigUInt z0 = mul_karatsuba(a0, b0);
  BigUInt z2 = mul_karatsuba(a1, b1);
  BigUInt z1 = mul_karatsuba(a0 + a1, b0 + b1) - z0 - z2;
  return (z2 << (64 * m)) + (z1 << (32 * m)) + z0;
}

BigUInt BigUInt::operator*(const BigUInt& o) const {
  if (is_zero() || o.is_zero()) return BigUInt();
  if (std::min(limbs_.size(), o.limbs_.size()) >= kKaratsubaThreshold) {
    return mul_karatsuba(*this, o);
  }
  return mul_schoolbook(*this, o);
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigUInt();
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  return from_limbs(std::move(out));
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 32;
  std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigUInt();
  std::vector<std::uint32_t> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift];
    if (i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << 32;
    }
    out[i] = static_cast<std::uint32_t>(v >> bit_shift);
  }
  return from_limbs(std::move(out));
}

std::pair<BigUInt, std::uint32_t> BigUInt::divmod_u32(std::uint32_t d) const {
  WORM_REQUIRE(d != 0, "BigUInt::divmod_u32: division by zero");
  std::vector<std::uint32_t> q(limbs_.size(), 0);
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    std::uint64_t cur = (rem << 32) | limbs_[i];
    q[i] = static_cast<std::uint32_t>(cur / d);
    rem = cur % d;
  }
  return {from_limbs(std::move(q)), static_cast<std::uint32_t>(rem)};
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& d) const {
  WORM_REQUIRE(!d.is_zero(), "BigUInt::divmod: division by zero");
  if (*this < d) return {BigUInt(), *this};
  if (d.limbs_.size() == 1) {
    auto [q, r] = divmod_u32(d.limbs_[0]);
    return {std::move(q), BigUInt(r)};
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  std::size_t n = d.limbs_.size();
  std::size_t m = limbs_.size() - n;
  unsigned s = static_cast<unsigned>(std::countl_zero(d.limbs_.back()));

  // Normalized copies: v's top limb has its high bit set.
  BigUInt u_big = *this << s;
  BigUInt v_big = d << s;
  std::vector<std::uint32_t> u = u_big.limbs_;
  u.resize(limbs_.size() + 1, 0);  // u gets one extra high limb
  const std::vector<std::uint32_t>& v = v_big.limbs_;
  WORM_CHECK(v.size() == n, "divmod: normalization changed divisor length");

  std::vector<std::uint32_t> q(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    std::uint64_t top = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = top / v[n - 1];
    std::uint64_t rhat = top % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply and subtract: u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                       static_cast<std::int64_t>(p & 0xffffffffull) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large; add v back and decrement.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<std::uint32_t>(sum);
        c2 = sum >> 32;
      }
      t += static_cast<std::int64_t>(c2);
      t &= static_cast<std::int64_t>(kBase - 1);
    }
    u[j + n] = static_cast<std::uint32_t>(t);
    q[j] = static_cast<std::uint32_t>(qhat);
  }

  u.resize(n);
  BigUInt rem = from_limbs(std::move(u)) >> s;
  return {from_limbs(std::move(q)), std::move(rem)};
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  WORM_REQUIRE(m > BigUInt(1), "mod_inverse: modulus must be > 1");
  // Extended Euclid with explicit sign tracking for the Bezout coefficient.
  BigUInt old_r = a % m, r = m;
  BigUInt old_t = 1, t = 0;
  bool old_t_neg = false, t_neg = false;
  while (!r.is_zero()) {
    auto [q, rem] = old_r.divmod(r);
    old_r = std::move(r);
    r = std::move(rem);

    // new_t = old_t - q * t  (signed arithmetic over magnitudes).
    BigUInt qt = q * t;
    BigUInt new_t;
    bool new_t_neg;
    if (old_t_neg == t_neg) {
      if (old_t >= qt) {
        new_t = old_t - qt;
        new_t_neg = old_t_neg;
      } else {
        new_t = qt - old_t;
        new_t_neg = !old_t_neg;
      }
    } else {
      new_t = old_t + qt;
      new_t_neg = old_t_neg;
    }
    old_t = std::move(t);
    old_t_neg = t_neg;
    t = std::move(new_t);
    t_neg = new_t_neg;
  }
  WORM_REQUIRE(old_r == BigUInt(1), "mod_inverse: arguments not coprime");
  if (old_t_neg) return m - (old_t % m);
  return old_t % m;
}

// ---------------------------------------------------------------------------
// Montgomery context
// ---------------------------------------------------------------------------

namespace {
__extension__ typedef unsigned __int128 u128;

// x * y + z + carry as one 128-bit value: returns the low limb and leaves
// the high limb in carry (the sum cannot overflow 128 bits).
std::uint64_t mul_add(std::uint64_t x, std::uint64_t y, std::uint64_t z,
                      std::uint64_t& carry) {
  const u128 p = static_cast<u128>(x) * y + z + carry;
  carry = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

// -m^-1 mod 2^32 for odd m, via Newton–Hensel lifting.
std::uint32_t neg_inv_u32(std::uint32_t m) {
  std::uint32_t x = m;  // correct mod 2^3 already (m odd)
  for (int i = 0; i < 5; ++i) x *= 2u - m * x;
  return ~x + 1u;  // -(m^-1)
}

// -m^-1 mod 2^64 for odd m; each Newton step doubles the correct low bits.
std::uint64_t neg_inv_u64(std::uint64_t m) {
  std::uint64_t x = m;  // correct mod 2^3 already (m odd)
  for (int i = 0; i < 6; ++i) x *= 2u - m * x;
  return ~x + 1u;  // -(m^-1)
}

// Packs v (< 2^(64 * k64)) into k64 64-bit little-endian limbs.
void pack_limbs64(const std::vector<std::uint32_t>& v,
                  std::uint64_t* out, std::size_t k64) {
  for (std::size_t j = 0; j < k64; ++j) out[j] = 0;
  for (std::size_t j = 0; j < v.size(); ++j) {
    out[j / 2] |= static_cast<std::uint64_t>(v[j]) << (32 * (j % 2));
  }
}

// Sliding-window width for an exponent of `bits` bits. The 4-bit window's
// table costs 8 products and saves about 3 per 10 exponent bits, so below
// ~24 bits (a public exponent such as 65537) the ladder goes bit by bit and
// never builds the table.
std::size_t window_bits(std::size_t bits) { return bits > 23 ? 4 : 1; }

#if WORM_MONT_ADX

// Limbs 1 .. N-1 of one row of mont_mul64_adx, after limb 0 has left its
// low sum in CF and its high product half in h0: limb j of the row adds
// the low half of SRC[j]*rdx and t[j] along the CF chain (ADCX) and the high
// half of limb j-1 along the OF chain (ADOX), and lands at byte 8*j + OFF
// of t. Limb pairs unroll at assemble time (.Lwj is the limb index). Limb N
// takes t[N] and the last high half; the two chains' final carries add
// into top.
#define WORM_MONT_ADX_ROW_TAIL(SRC, OFF)                \
  ".set .Lwj, 1\n\t"                                    \
  ".rept (%c[nl] - 2) / 2\n\t"                          \
  "mulxq 8*.Lwj(" SRC "), %[lo], %[h1]\n\t"             \
  "adcxq 8*.Lwj(%[t]), %[lo]\n\t"                       \
  "adoxq %[h0], %[lo]\n\t"                              \
  "movq %[lo], 8*.Lwj" OFF "(%[t])\n\t"                 \
  "mulxq 8*.Lwj+8(" SRC "), %[lo], %[h0]\n\t"           \
  "adcxq 8*.Lwj+8(%[t]), %[lo]\n\t"                     \
  "adoxq %[h1], %[lo]\n\t"                              \
  "movq %[lo], 8*.Lwj+8" OFF "(%[t])\n\t"               \
  ".set .Lwj, .Lwj+2\n\t"                               \
  ".endr\n\t"                                           \
  "mulxq 8*.Lwj(" SRC "), %[lo], %[h1]\n\t"             \
  "adcxq 8*.Lwj(%[t]), %[lo]\n\t"                       \
  "adoxq %[h0], %[lo]\n\t"                              \
  "movq %[lo], 8*.Lwj" OFF "(%[t])\n\t"                 \
  "adcxq 8*.Lwj+8(%[t]), %[h1]\n\t"                     \
  "adoxq %[zero], %[h1]\n\t"                            \
  "movq %[h1], 8*.Lwj+8" OFF "(%[t])\n\t"               \
  "adcxq %[zero], %[top]\n\t"                           \
  "adoxq %[zero], %[top]\n\t"

// CIOS Montgomery product over N 64-bit limbs on MULX, ADCX and ADOX:
// out = a*b*R64^-1 mod m for a, b < m, where n is m's limbs and n0inv is
// -m^-1 mod 2^64. t is N+1 limbs of scratch; out may alias an input.
//
// Each outer step is one asm block of two rows over t in memory. The
// multiply row adds a*b[i]; the reduce row adds q*m with q = t[0]*n0inv and
// shifts t down one limb (its limb 0 cancels to zero). MULX leaves the
// flags alone, so the CF and OF chains run side by side and neither carry
// waits on the other. The bit that overflows t's N+1 limbs in the multiply
// row rides in `top` into the reduce row. The row length is fixed by N and
// the final subtraction selects by mask, so no branch depends on operand
// values.
template <std::size_t N>
__attribute__((target("bmi2,adx"))) void mont_mul64_adx(
    const std::uint64_t* a, const std::uint64_t* b, const std::uint64_t* n,
    std::uint64_t n0inv, std::uint64_t* out, std::uint64_t* t) {
  static_assert(N >= 4 && N % 2 == 0, "rows unroll limb pairs after limb 0");
  for (std::size_t j = 0; j <= N; ++j) t[j] = 0;
  for (std::size_t i = 0; i < N; ++i) {
    std::uint64_t d = b[i];  // the multiplier (rdx): b[i], then q
    std::uint64_t lo = 0, h0 = 0, h1 = 0, zero = 0, top = 0;
    asm volatile(
        "xorl %k[zero], %k[zero]\n\t"
        "xorl %k[top], %k[top]\n\t"
        // Multiply row: t += a * b[i].
        "mulxq (%[a]), %[lo], %[h0]\n\t"
        "adcxq (%[t]), %[lo]\n\t"
        "movq %[lo], (%[t])\n\t"
        WORM_MONT_ADX_ROW_TAIL("%[a]", "")
        // Reduce row: t = (t + q * m) / 2^64.
        "movq (%[t]), %[d]\n\t"
        "imulq %[inv], %[d]\n\t"
        "xorl %k[zero], %k[zero]\n\t"
        "mulxq (%[n]), %[lo], %[h0]\n\t"
        "adcxq (%[t]), %[lo]\n\t"
        WORM_MONT_ADX_ROW_TAIL("%[n]", "-8")
        "movq %[top], 8*.Lwj+8(%[t])"
        : [d] "+d"(d), [lo] "=&r"(lo), [h0] "=&r"(h0), [h1] "=&r"(h1),
          [zero] "=&r"(zero), [top] "=&r"(top)
        : [a] "r"(a), [n] "r"(n), [t] "r"(t), [inv] "rm"(n0inv),
          [nl] "i"(N)
        : "cc", "memory");
  }
  // t < 2m. out = t - m, then t where that subtraction borrowed past t's
  // top limb (t < m), chosen limb by limb through a mask.
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < N; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1u;
  }
  const std::uint64_t keep_t = 0 - (borrow & (t[N] ^ 1u));
  for (std::size_t j = 0; j < N; ++j) {
    out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
  }
}

#undef WORM_MONT_ADX_ROW_TAIL
#endif  // WORM_MONT_ADX
}  // namespace

bool mont_mul_adx_supported() {
#if WORM_MONT_ADX
  static const bool ok = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
  }();
  return ok;
#else
  return false;
#endif
}

MontgomeryCtx::MontgomeryCtx(const BigUInt& m) : m_(m) {
  WORM_REQUIRE(m.is_odd() && m > BigUInt(1),
               "MontgomeryCtx: modulus must be odd and > 1");
  k_ = m.limbs().size();
  n0inv_ = neg_inv_u32(m.limbs()[0]);
  // R^2 mod m with R = 2^(32k): one shift + one division at setup.
  BigUInt r = (BigUInt(1) << (32 * k_)) % m;
  r2_ = (r * r) % m;
  // The windowed kernel's R64 is R itself for even k, and R * 2^32 (the
  // zero-padded top limb) for odd k, where R64^2 = R^2 * 2^64.
  const std::size_t k64 = (k_ + 1) / 2;
  n64_.resize(k64);
  pack_limbs64(m.limbs(), n64_.data(), k64);
  n0inv64_ = neg_inv_u64(n64_[0]);
  const BigUInt r2_64 = k_ % 2 == 0 ? r2_ : (r2_ << 64) % m;
  r2_64_.resize(k64);
  pack_limbs64(r2_64.limbs(), r2_64_.data(), k64);
#if WORM_MONT_ADX
  if (mont_mul_adx_supported()) {
    switch (k64) {
      case 4: mont_mul64_adx_ = &mont_mul64_adx<4>; break;
      case 8: mont_mul64_adx_ = &mont_mul64_adx<8>; break;
      case 16: mont_mul64_adx_ = &mont_mul64_adx<16>; break;
      case 32: mont_mul64_adx_ = &mont_mul64_adx<32>; break;
      default: break;
    }
  }
#endif
}

BigUInt BigUInt::mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  WORM_REQUIRE(m > BigUInt(1), "mod_exp: modulus must be > 1");
  if (m.is_odd()) return MontgomeryCtx(m).mod_exp(base % m, exp);

  // Even modulus: split m = q * 2^j with q odd, exponentiate mod q
  // (Montgomery) and mod 2^j (square-and-multiply with bit masking — no
  // divisions), then recombine with Garner's CRT. The old fallback divided
  // by m after every multiply, which was quadratically slow for large m.
  std::size_t j = 0;
  while (!m.bit(j)) ++j;
  const BigUInt q = m >> j;

  auto mask_low = [j](const BigUInt& x) {
    if (x.bit_length() <= j) return x;
    std::size_t nlimbs = (j + 31) / 32;
    std::vector<std::uint32_t> limbs(
        x.limbs_.begin(),
        x.limbs_.begin() + static_cast<std::ptrdiff_t>(
                               std::min(nlimbs, x.limbs_.size())));
    if (j % 32 != 0 && limbs.size() == nlimbs) {
      limbs.back() &= (1u << (j % 32)) - 1u;
    }
    return from_limbs(std::move(limbs));
  };

  // a2 = base^exp mod 2^j. Masking keeps operands at <= j bits, so each step
  // is one (Karatsuba-dispatched) multiply plus a truncation.
  BigUInt b = mask_low(base);
  BigUInt a2(1);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    a2 = mask_low(a2 * a2);
    if (exp.bit(i)) a2 = mask_low(a2 * b);
  }
  if (q == BigUInt(1)) return a2;  // m is a pure power of two

  BigUInt a1 = MontgomeryCtx(q).mod_exp(base % q, exp);
  // r = a1 + q * (((a2 - a1) mod 2^j) * q^-1 mod 2^j)
  const BigUInt two_j = BigUInt(1) << j;
  BigUInt qinv = mod_inverse(q, two_j);
  BigUInt diff = mask_low(a2 + two_j - mask_low(a1));
  BigUInt h = mask_low(diff * qinv);
  return a1 + q * h;
}

void MontgomeryCtx::cond_subtract(const std::uint32_t* t,
                                  std::uint32_t* out) const {
  const auto& n = m_.limbs();
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;  // equal counts as >=
    for (std::size_t j = k_; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (!ge) {
    for (std::size_t j = 0; j < k_; ++j) out[j] = t[j];
    return;
  }
  std::int64_t borrow = 0;
  for (std::size_t j = 0; j < k_; ++j) {
    std::int64_t d = static_cast<std::int64_t>(t[j]) -
                     static_cast<std::int64_t>(n[j]) - borrow;
    if (d < 0) {
      d += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[j] = static_cast<std::uint32_t>(d);
  }
}

void MontgomeryCtx::mont_mul_into(const std::uint32_t* a,
                                  const std::uint32_t* b, std::uint32_t* out,
                                  std::uint32_t* t) const {
  // CIOS (Coarsely Integrated Operand Scanning) Montgomery multiplication.
  const auto& n = m_.limbs();
  for (std::size_t j = 0; j < k_ + 2; ++j) t[j] = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    std::uint64_t bi = b[i];
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      std::uint64_t cur = t[j] + static_cast<std::uint64_t>(a[j]) * bi + carry;
      t[j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::uint64_t cur = t[k_] + carry;
    t[k_] = static_cast<std::uint32_t>(cur);
    t[k_ + 1] = static_cast<std::uint32_t>(cur >> 32);

    std::uint32_t mfac = t[0] * n0inv_;
    cur = t[0] + static_cast<std::uint64_t>(mfac) * n[0];
    carry = cur >> 32;
    for (std::size_t j = 1; j < k_; ++j) {
      cur = t[j] + static_cast<std::uint64_t>(mfac) * n[j] + carry;
      t[j - 1] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    cur = t[k_] + carry;
    t[k_ - 1] = static_cast<std::uint32_t>(cur);
    t[k_] = t[k_ + 1] + static_cast<std::uint32_t>(cur >> 32);
    t[k_ + 1] = 0;
  }
  cond_subtract(t, out);
}

void MontgomeryCtx::mont_mul64_into(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::uint64_t* out,
                                    std::uint64_t* t) const {
  // CIOS (Coarsely Integrated Operand Scanning) with the multiply and reduce
  // passes of each outer step fused: the a*b[i] chain carries in c1, the
  // q*m chain in c2. t stays below 2m, so k+1 limbs hold it.
  const std::size_t k = n64_.size();
  const std::uint64_t* n = n64_.data();
  const std::uint64_t n0inv = n0inv64_;
  for (std::size_t j = 0; j <= k; ++j) t[j] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t bi = b[i];
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    const std::uint64_t lo = mul_add(a[0], bi, t[0], c1);
    const std::uint64_t q = lo * n0inv;
    (void)mul_add(q, n[0], lo, c2);  // low limb cancels to zero
    for (std::size_t j = 1; j < k; ++j) {
      t[j - 1] = mul_add(q, n[j], mul_add(a[j], bi, t[j], c1), c2);
    }
    const u128 top = static_cast<u128>(t[k]) + c1 + c2;
    t[k - 1] = static_cast<std::uint64_t>(top);
    t[k] = static_cast<std::uint64_t>(top >> 64);
  }
  // Final reduction: out = t - m if t >= m else t.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;  // equal counts as >=
    for (std::size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (!ge) {
    for (std::size_t j = 0; j < k; ++j) out[j] = t[j];
    return;
  }
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1u;
  }
}

BigUInt MontgomeryCtx::mul(const BigUInt& a, const BigUInt& b) const {
  std::vector<std::uint32_t> ap(k_, 0), bp(k_, 0), t(k_ + 2);
  std::copy(a.limbs().begin(), a.limbs().end(), ap.begin());
  std::copy(b.limbs().begin(), b.limbs().end(), bp.begin());
  std::vector<std::uint32_t> res(k_, 0);
  mont_mul_into(ap.data(), bp.data(), res.data(), t.data());
  return BigUInt::from_limbs(std::move(res));
}

BigUInt MontgomeryCtx::to_mont(const BigUInt& x) const { return mul(x, r2_); }

BigUInt MontgomeryCtx::from_mont(const BigUInt& x) const {
  return mul(x, BigUInt(1));
}

BigUInt MontgomeryCtx::mod_exp_binary(const BigUInt& base,
                                      const BigUInt& exp) const {
  BigUInt base_m = to_mont(base % m_);
  BigUInt acc = to_mont(BigUInt(1));
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = mul(acc, acc);
    if (exp.bit(i)) acc = mul(acc, base_m);
  }
  return from_mont(acc);
}

namespace {
std::atomic<ModExpStrategy> g_mod_exp_strategy{ModExpStrategy::kWindowed};
}  // namespace

void set_mod_exp_strategy(ModExpStrategy s) {
  g_mod_exp_strategy.store(s, std::memory_order_relaxed);
}

ModExpStrategy mod_exp_strategy() {
  return g_mod_exp_strategy.load(std::memory_order_relaxed);
}

BigUInt MontgomeryCtx::mod_exp(const BigUInt& base, const BigUInt& exp) const {
  switch (mod_exp_strategy()) {
    case ModExpStrategy::kBinary: return mod_exp_binary(base, exp);
    case ModExpStrategy::kPortable: return mod_exp_windowed(base, exp, true);
    case ModExpStrategy::kWindowed: break;
  }
  return mod_exp_windowed(base, exp, false);
}

BigUInt MontgomeryCtx::mod_exp_windowed(const BigUInt& base,
                                        const BigUInt& exp,
                                        bool portable) const {
  if (exp.is_zero()) return BigUInt(1);  // m > 1
  // Sliding window over 64-bit-limb Montgomery-form buffers: a table of the
  // odd powers b^1, b^3, ..., b^(2^w - 1) (one squaring + 2^(w-1) - 1
  // multiplies of setup), then one table multiply per window instead of
  // one per set bit. The top window seeds the accumulator, and nothing
  // leaves Montgomery form until the end. Squarings run through the same
  // product as multiplies.
  const std::size_t k = n64_.size();
  const std::size_t nbits = exp.bit_length();
  const std::size_t w = window_bits(nbits);
  const std::size_t entries = std::size_t{1} << (w - 1);

  // All scratch in one allocation: table[e] = b^(2e+1), then b^2 (reused
  // as the constant 1 for the exit conversion), acc, and the product's t.
  std::vector<std::uint64_t> buf((entries + 2) * k + k + 1);
  std::uint64_t* table = buf.data();
  std::uint64_t* aux = table + entries * k;
  std::uint64_t* acc = aux + k;
  std::uint64_t* t = acc + k;

  const auto adx = portable ? nullptr : mont_mul64_adx_;
  auto mul = [&](const std::uint64_t* x, const std::uint64_t* y,
                 std::uint64_t* out) {
    if (adx != nullptr) {
      adx(x, y, n64_.data(), n0inv64_, out, t);
    } else {
      mont_mul64_into(x, y, out, t);
    }
  };

  pack_limbs64((base % m_).limbs(), aux, k);
  mul(aux, r2_64_.data(), table);
  if (entries > 1) {
    mul(table, table, aux);
    for (std::size_t e = 1; e < entries; ++e) {
      mul(&table[(e - 1) * k], aux, &table[e * k]);
    }
  }

  bool seeded = false;
  std::size_t i = nbits;  // bits [0, i) are still to be consumed
  while (i > 0) {
    if (!exp.bit(i - 1)) {
      mul(acc, acc, acc);
      --i;
      continue;
    }
    // Window [l, i): at most w bits, both ends set — its value is odd, so
    // the odd-power table covers it.
    std::size_t l = i > w ? i - w : 0;
    while (!exp.bit(l)) ++l;
    std::size_t win = 0;
    for (std::size_t j = i; j-- > l;) win = (win << 1) | (exp.bit(j) ? 1u : 0u);
    const std::uint64_t* power = &table[(win >> 1) * k];
    if (!seeded) {
      std::copy(power, power + k, acc);
      seeded = true;
    } else {
      for (std::size_t j = l; j < i; ++j) mul(acc, acc, acc);
      mul(acc, power, acc);
    }
    i = l;
  }

  // Out of Montgomery form (multiply by 1), then back to 32-bit limbs.
  std::fill(aux, aux + k, 0);
  aux[0] = 1;
  mul(acc, aux, acc);
  std::vector<std::uint32_t> limbs(2 * k);
  for (std::size_t j = 0; j < k; ++j) {
    limbs[2 * j] = static_cast<std::uint32_t>(acc[j]);
    limbs[2 * j + 1] = static_cast<std::uint32_t>(acc[j] >> 32);
  }
  return BigUInt::from_limbs(std::move(limbs));
}

}  // namespace worm::crypto
