// Byte-buffer primitives shared by every module: owned buffers, views,
// hex encoding, and constant-time comparison for authenticator values.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace worm::common {

/// Owned, contiguous byte buffer. The de-facto wire/disk currency of the repo.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view over bytes.
using ByteView = std::span<const std::uint8_t>;

/// Builds an owned buffer from a view.
Bytes to_bytes(ByteView v);

/// Builds an owned buffer from the raw characters of a string (no encoding).
Bytes to_bytes(std::string_view s);

/// Interprets a byte buffer as text (no validation; test/diagnostic helper).
std::string to_string(ByteView v);

/// Lower-case hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string hex_encode(ByteView v);

/// Decodes lower/upper-case hex. Throws std::invalid_argument on bad input.
Bytes hex_decode(std::string_view hex);

/// Constant-time equality for MACs/signatures/digests. Length leaks (it must:
/// both operands' lengths are public protocol constants); contents do not.
bool ct_equal(ByteView a, ByteView b);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

}  // namespace worm::common
