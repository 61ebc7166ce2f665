// The wire protocol between WormClient and WormServer: length-prefixed
// binary frames over a stream socket, encoded with the same common/serial
// conventions as the SCPU mailbox commands. One frame = u32 body length +
// body; a request body is `op | rid | fields`, a response body is
// `op | rid | status | attestation? | payload`.
//
// Integrity model: the server is untrusted. Responses carry the record +
// proof envelopes verbatim (Vrd, payloads, deletion proofs, signed SN
// bounds) and the client verifies them against its own TrustAnchors with
// ClientVerifier — nothing here authenticates the server beyond the framing.
// The per-response attestation slot forwards S_s(SN_current) watermark
// movement from the connection's session, giving remote clients the same
// amortized freshness an in-process reader gets (clients check its SCPU
// signature, so a lying server gains nothing).
//
// Parsing is strict, mirroring worm/commands: every decoder consumes its
// whole body and expect_end()s; counts are validated against remaining
// bytes; unknown opcodes and status codes raise ParseError. The wire fuzz
// test drives every opcode through truncation/mutation against these
// decoders.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/serial.hpp"
#include "worm/session.hpp"
#include "worm/status.hpp"

namespace worm::server {

/// Bumped on any incompatible frame change; kHello carries the client's
/// version and the server refuses mismatches with kBadRequest.
/// v2: the per-response attestation slot became a bitmask carrying an
/// optional EpochCert next to the optional S_s(SN_current).
/// v3: kWrite/kRead carry a shard-routing header (map version + shard id,
/// both 0 for standalone deployments); new kShardMap op returns the
/// serving replica's shard id and encoded cluster shard map; new
/// kStaleRoute rejection for mismatched routing headers.
/// v4: kWrite carries expected_sn (0 = unsequenced; otherwise the write is
/// conditional on the store assigning exactly that SN) and the new
/// kSnMismatch result answers a failed condition with the replica's actual
/// next SN, so replicated writers converge deterministic SN assignment.
/// v5: new kReadBatch op carries a u16-counted vector of SNs under one
/// shard-routing header; the response answers per-SN WireStatus + payload
/// slots while the frame's single attestation bitmask slot amortizes one
/// freshness proof across every slot (batching is transport, not trust —
/// each slot is still independently verified client-side).
inline constexpr std::uint16_t kProtocolVersion = 5;

/// Bits of the v2 per-response attestation slot.
inline constexpr std::uint8_t kAttSnCurrent = 1u << 0;
inline constexpr std::uint8_t kAttEpochCert = 1u << 1;

/// Default per-frame byte bound (body, excluding the u32 prefix). A peer
/// declaring a larger frame is cut off before any allocation.
inline constexpr std::size_t kMaxFrameBytes = 4u << 20;

/// Hard cap on SNs per kReadBatch frame, enforced at decode time on both
/// sides. Bounds the per-frame work a hostile count can demand and keeps a
/// worst-case response (cap x max payload) from colliding with
/// kMaxFrameBytes; clients chunk larger read sets into multiple frames.
inline constexpr std::uint16_t kMaxReadBatchSns = 512;

enum class MsgOp : std::uint8_t {
  kHello = 1,       // principal + HMAC token; must be the first frame
  kWrite = 2,       // WriteRequest -> Sn (or kBusy under backpressure)
  kRead = 3,        // Sn -> record + proof envelope
  kLitHold = 4,     // LitigationRequest
  kLitRelease = 5,  // LitigationRequest
  kPing = 6,        // keep-alive; refreshes the session attestation
  kShardMap = 7,    // -> shard id + encoded cluster shard map (v3)
  kReadBatch = 8,   // u16-counted SN vector -> per-SN status/payload slots
                    // sharing one attestation slot (v5)
};

const char* to_string(MsgOp op);

/// Validated u8 -> MsgOp; throws common::ParseError on an unknown opcode.
[[nodiscard]] MsgOp msg_op_from_u8(std::uint8_t v);

/// One decoded request. Plain struct-of-fields (only the op's own fields
/// are meaningful) — the protocol is small enough that a variant would be
/// ceremony.
struct Request {
  MsgOp op = MsgOp::kPing;
  std::uint64_t rid = 0;  // client-chosen, echoed in the response

  // kHello
  std::uint16_t version = kProtocolVersion;
  std::string principal;
  common::Bytes token;

  // kWrite / kRead: shard-routing header. The client's view of the cluster
  // shard map (version) and the shard it believes this server owns; the
  // server rejects a mismatch with kStaleRoute before touching any SN, so a
  // skewed map can never silently misroute. Both stay 0 between a plain
  // WormClient and a standalone server.
  std::uint32_t route_version = 0;
  std::uint32_t route_shard = 0;

  // kWrite
  core::WriteRequest write;
  /// v4 sequencing condition: 0 admits unconditionally (standalone clients);
  /// any other value admits only if the store's next assigned SN equals it —
  /// otherwise the server answers kSnMismatch carrying its actual next SN
  /// and writes nothing. ~0 can never match and acts as a pure cursor probe.
  std::uint64_t expected_sn = 0;

  // kRead
  core::Sn sn = core::kInvalidSn;

  // kReadBatch: the SNs to serve, in answer order. At most kMaxReadBatchSns
  // per frame; the shard-routing header above covers every SN in the frame.
  std::vector<core::Sn> sns;

  // kLitHold / kLitRelease
  core::LitigationRequest lit;
};

/// One per-SN answer inside a kReadBatch response. The slot status spans the
/// full WireStatus space: read-family codes carry the same proof envelope a
/// solo kRead response would, anything else carries a message (e.g. every
/// slot of a stale-routed batch answers kStaleRoute, so rid-matched
/// completion always returns exactly count slots).
struct BatchSlot {
  core::WireStatus status = core::WireStatus::kInternalError;
  core::ReadOutcome outcome;  // read-family statuses only
  std::string message;        // error/rejection statuses only
};

struct Response {
  MsgOp op = MsgOp::kPing;  // echoes the request
  std::uint64_t rid = 0;
  core::WireStatus status = core::WireStatus::kInternalError;

  /// Present when the session watermark moved past what this connection was
  /// last sent; clients verify the SCPU signature before adopting it.
  std::optional<core::SignedSnCurrent> attestation;

  /// Present when the session's epoch cert advanced past what this
  /// connection was last sent. One cert covers every response in its epoch
  /// interval — the amortized freshness carrier; clients verify its SCPU
  /// signature (and epoch monotonicity) before adopting it.
  std::optional<core::EpochCert> epoch_cert;

  // Payload, by op/status:
  core::Sn sn = core::kInvalidSn;   // kWrite + kOk (assigned SN), and
                                    // kWrite + kSnMismatch (replica's next)
  core::ReadOutcome outcome;        // kRead + any read-family status
  std::string message;              // any error/rejection status
  std::uint32_t shard_id = 0;       // kShardMap + kOk
  common::Bytes shard_map;          // kShardMap + kOk: encoded cluster map,
                                    // opaque to the server (decoded by
                                    // cluster::ShardMap::deserialize)
  std::vector<BatchSlot> slots;     // kReadBatch + kOk: one slot per
                                    // requested SN, in request order; the
                                    // frame's attestation slot above covers
                                    // all of them
};

// --- framing ---------------------------------------------------------------

/// u32 length prefix + body.
[[nodiscard]] common::Bytes encode_frame(const common::Bytes& body);

/// Extracts one complete frame body starting at `buf[off]`, advancing `off`
/// past it, or nullopt when the buffer does not yet hold a full frame.
/// Consumed bytes stay in place until compact_frames — callers draining a
/// pipelined burst take frames in a loop and compact once, keeping the read
/// path linear in buffered bytes. Throws ParseError when the declared length
/// exceeds kMaxFrameBytes — the caller must drop the connection, since the
/// stream cannot be resynchronized.
[[nodiscard]] std::optional<common::Bytes> take_frame(const common::Bytes& buf,
                                                      std::size_t& off);

/// Erases the `off` consumed bytes from the front of `buf` and zeroes `off`.
void compact_frames(common::Bytes& buf, std::size_t& off);

// --- bodies ----------------------------------------------------------------

[[nodiscard]] common::Bytes encode_request(const Request& req);
[[nodiscard]] Request decode_request(common::ByteView body);

[[nodiscard]] common::Bytes encode_response(const Response& resp);
[[nodiscard]] Response decode_response(common::ByteView body);

/// Zero-copy variants: append one complete frame (u32 prefix + body)
/// directly onto `out` — the server's per-connection output buffer — with
/// no intermediate body allocation. The length prefix is back-patched.
void append_request_frame(common::Bytes& out, const Request& req);
void append_response_frame(common::Bytes& out, const Response& resp);

/// The read envelope by itself (what a kRead response carries after the
/// status): exposed for tests that check proof-stream equivalence.
void encode_read_outcome(common::ByteWriter& w, const core::ReadOutcome& r);
[[nodiscard]] core::ReadOutcome decode_read_outcome(core::WireStatus status,
                                                    common::ByteReader& r);

}  // namespace worm::server
