// ChaCha20 (RFC 8439), from scratch: the primitive under the deterministic
// DRBG (see drbg.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace worm::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  using Key = std::array<std::uint8_t, kKeySize>;
  using Nonce = std::array<std::uint8_t, kNonceSize>;

  ChaCha20(const Key& key, const Nonce& nonce, std::uint32_t counter = 0);

  /// XORs the keystream into data (encryption == decryption).
  void crypt(common::ByteView in, common::Bytes& out);

  /// One-shot convenience.
  static common::Bytes crypt(const Key& key, const Nonce& nonce,
                             common::ByteView in, std::uint32_t counter = 0);

  /// Fills out with raw keystream (DRBG building block).
  void keystream(std::uint8_t* out, std::size_t len);

 private:
  void block(std::array<std::uint8_t, 64>& out);

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, 64> partial_{};
  std::size_t partial_used_ = 64;  // 64 == empty
};

}  // namespace worm::crypto
