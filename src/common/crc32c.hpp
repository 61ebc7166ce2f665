// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78, initial value and
// final XOR 0xFFFFFFFF: the iSCSI / RFC 3720 checksum). NOT cryptographic —
// it detects accidental (or injected) corruption on untrusted paths: mailbox
// frames, on-platter record payloads, journal frames. Integrity against an
// adversary comes from the SCPU signatures, never from this.
//
// The kernel is chosen once per process: the SSE4.2 `crc32` instruction
// (8 bytes per step) when CPUID reports it, else a table-driven byte loop.
// Both produce identical values — the choice is speed, never format.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace worm::common {

/// CRC-32C of `v` through the process's kernel.
std::uint32_t crc32c(ByteView v);

/// CRC-32C of a message that continues with `v`, given `crc`, the CRC-32C
/// of what came before it (0 for an empty start): crc32c_extend(crc32c(a), b)
/// == crc32c(a || b). Lets a writer checksum a frame it streams in pieces.
std::uint32_t crc32c_extend(std::uint32_t crc, ByteView v);

/// The table-driven reference: what crc32c runs on hosts without SSE4.2,
/// and what the tests and the crypto bench compare the hardware path with.
std::uint32_t crc32c_portable(ByteView v);

/// True when crc32c runs the SSE4.2 instruction on this host.
bool crc32c_hardware();

}  // namespace worm::common
