#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define WORM_CRC32C_X86 1
#include <immintrin.h>
#else
#define WORM_CRC32C_X86 0
#endif

namespace worm::common {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if WORM_CRC32C_X86

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::uint32_t crc,
                                                             ByteView v) {
  const std::uint8_t* p = v.data();
  std::size_t n = v.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n != 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

#endif  // WORM_CRC32C_X86

std::uint32_t portable_extend(std::uint32_t crc, ByteView v) {
  std::uint32_t c = ~crc;
  for (std::uint8_t b : v) c = kTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return ~c;
}

}  // namespace

bool crc32c_hardware() {
#if WORM_CRC32C_X86
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
#else
  return false;
#endif
}

std::uint32_t crc32c_portable(ByteView v) { return portable_extend(0, v); }

std::uint32_t crc32c_extend(std::uint32_t crc, ByteView v) {
#if WORM_CRC32C_X86
  if (crc32c_hardware()) return crc32c_sse42(crc, v);
#endif
  return portable_extend(crc, v);
}

std::uint32_t crc32c(ByteView v) { return crc32c_extend(0, v); }

}  // namespace worm::common
