#include "common/bytes.hpp"

#include <stdexcept>

namespace worm::common {

Bytes to_bytes(ByteView v) { return Bytes(v.begin(), v.end()); }

Bytes to_bytes(std::string_view s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s.data()),
               reinterpret_cast<const std::uint8_t*>(s.data()) + s.size());
}

std::string to_string(ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

std::string hex_encode(ByteView v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(v.size() * 2);
  for (std::uint8_t b : v) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("hex_decode: invalid hex character");
}
}  // namespace

Bytes hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("hex_decode: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) |
                                            hex_nibble(hex[i + 1])));
  }
  return out;
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace worm::common
