// WormClient: the remote counterpart of a WormSession. Connects (with
// backoff), authenticates with a kHello frame, then issues requests over a
// single keep-alive connection.
//
// Result model mirrors the in-process API:
//  * read() returns a full ReadOutcome — every read-family wire status
//    decodes back into the same variant an in-process reader would get, so
//    ClientVerifier consumes a remote envelope and a local one identically;
//  * write() returns a WriteResult rather than throwing on backpressure:
//    kBusy is the protocol's explicit flow-control answer, not an error —
//    callers pace themselves (bench_server's open-loop generator does
//    exactly this);
//  * server-side exceptions arrive as stable WireStatus codes and are
//    rethrown here as the matching exception type (worm/status.hpp), so a
//    remote TransientStorageError is catchable as one.
//
// The client trusts the server for nothing but transport: callers verify
// outcomes against their own TrustAnchors (obtained out of band) and adopt
// the per-response attestation only after checking its SCPU signature.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/net.hpp"
#include "server/protocol.hpp"

namespace worm::server {

struct ClientConfig {
  /// Non-empty: connect over this Unix-domain socket. Empty: loopback TCP.
  std::string unix_path;
  std::uint16_t tcp_port = 0;

  std::string principal;
  common::Bytes token;

  /// Connect attempts before giving up (each separated by an exponential
  /// backoff: 1 ms, doubling, capped at 250 ms).
  std::uint32_t connect_attempts = 6;
  /// Absolute bound on one whole request/response round trip (send + wait,
  /// measured against a monotonic deadline — a trickling server cannot reset
  /// it). read_many renews the same bound on every completed chunk, so a
  /// whole burst is bounded by chunks x io_timeout.
  common::Duration io_timeout = common::Duration::seconds(10);

  /// Pipelined read_many shape: SNs per kReadBatch frame (clamped to
  /// [1, kMaxReadBatchSns]) and the bound on frames in flight at once.
  std::uint16_t read_chunk = 32;
  std::size_t read_window = 4;
};

/// Outcome of a remote write. kBusy is a first-class answer, not a throw.
struct WriteResult {
  core::WireStatus status = core::WireStatus::kInternalError;
  /// The assigned SN on kOk; on kSnMismatch, the SN the replica would
  /// assign next (the failed condition's counter-offer).
  core::Sn sn = core::kInvalidSn;
  std::string message;

  [[nodiscard]] bool ok() const { return status == core::WireStatus::kOk; }
  [[nodiscard]] bool busy() const {
    return status == core::WireStatus::kBusy;
  }
  /// The replica rejected this frame's routing header: refresh the shard
  /// map and re-route — retrying the same frame here cannot succeed.
  [[nodiscard]] bool stale_route() const {
    return status == core::WireStatus::kStaleRoute;
  }
  /// The sequencing condition failed: nothing was written, and `sn` carries
  /// the replica's actual next SN.
  [[nodiscard]] bool sn_mismatch() const {
    return status == core::WireStatus::kSnMismatch;
  }
};

/// A kShardMap answer: which shard this replica owns plus the encoded
/// cluster map (decode with cluster::ShardMap::deserialize).
struct ShardMapResult {
  std::uint32_t shard_id = 0;
  common::Bytes shard_map;
};

/// One per-SN result of a batched read. Unlike read(), error statuses do
/// not throw — a single bad slot must not discard its siblings' answers —
/// so callers branch on status (is_read() slots carry the same outcome a
/// solo read() would return, still unverified: batching is transport, not
/// trust).
struct BatchReadResult {
  core::WireStatus status = core::WireStatus::kInternalError;
  core::ReadOutcome outcome;  // read-family statuses only
  std::string message;        // error/rejection statuses only

  [[nodiscard]] bool is_read() const { return core::is_read_status(status); }
  /// The serving replica rejected the chunk's routing header: refresh the
  /// shard map and re-route this SN.
  [[nodiscard]] bool stale_route() const {
    return status == core::WireStatus::kStaleRoute;
  }
};

class WormClient {
 public:
  /// Connects and authenticates. Throws NetError when every connect attempt
  /// fails, or the mapped server error when the hello is refused.
  explicit WormClient(ClientConfig config);

  WormClient(const WormClient&) = delete;
  WormClient& operator=(const WormClient&) = delete;

  [[nodiscard]] const std::string& principal() const {
    return config_.principal;
  }

  /// Remote read; read-family statuses return the decoded outcome, error
  /// statuses rethrow as the matching exception type.
  [[nodiscard]] core::ReadOutcome read(core::Sn sn);

  /// Pipelined batched read: chunks `sns` into kReadBatch frames, keeps up
  /// to read_window frames in flight, and reassembles the per-SN answers in
  /// request order (rid-matched, safe against out-of-order completion). A
  /// dropped connection is retried per chunk: after a reconnect, only the
  /// still-unanswered chunks are resent. Throws NetError when the
  /// connection cannot be reestablished and ParseError on an echo the
  /// server never earned; per-SN failures come back as statuses, not
  /// throws.
  [[nodiscard]] std::vector<BatchReadResult> read_many(
      const std::vector<core::Sn>& sns);

  /// Remote write via the server's non-blocking admission. kOk, kBusy,
  /// kStaleRoute and kSnMismatch come back as results; error statuses
  /// rethrow. expected_sn != 0 makes the write conditional on the replica
  /// assigning exactly that SN (protocol v4; ~0 = pure cursor probe).
  [[nodiscard]] WriteResult write(core::WriteRequest request,
                                  core::Sn expected_sn = 0);

  /// Sets the shard-routing header stamped on every subsequent kRead/kWrite
  /// frame. A routing layer calls this after resolving the shard map; plain
  /// clients leave it at 0/0 (the standalone-server default).
  void set_route(std::uint32_t version, std::uint32_t shard);

  /// Fetches the serving replica's shard id and encoded cluster map.
  /// Throws (kBadRequest) against a standalone server.
  [[nodiscard]] ShardMapResult fetch_shard_map();

  void lit_hold(const core::LitigationRequest& request);
  void lit_release(const core::LitigationRequest& request);

  /// Keep-alive round trip (also picks up a fresh attestation if the
  /// session watermark moved).
  void ping();

  /// Latest S_s(SN_current) attestation the server forwarded. NOT yet
  /// verified — check its signature with ClientVerifier before trusting.
  [[nodiscard]] const std::optional<core::SignedSnCurrent>& attestation()
      const {
    return attestation_;
  }

  /// Latest epoch attestation certificate the server forwarded — the
  /// amortized freshness carrier (one signature per epoch interval). NOT yet
  /// verified — check with ClientVerifier::verify_epoch_cert, which also
  /// convicts epoch replay and SN_current rollback.
  [[nodiscard]] const std::optional<core::EpochCert>& epoch_cert() const {
    return epoch_cert_;
  }

  /// read_many's pipelined window: kReadBatch frames sent, and the most
  /// frames it ever had in flight at once.
  [[nodiscard]] std::uint64_t read_window_chunks() const {
    return window_chunks_;
  }
  [[nodiscard]] std::uint64_t read_window_inflight_max() const {
    return window_inflight_max_;
  }

 private:
  /// One request/response round trip; verifies the rid/op echo and captures
  /// any forwarded attestation.
  [[nodiscard]] Response transact(Request req);
  /// Writes every byte of `frames`, waiting for POLLOUT while the kernel
  /// buffer is full. Throws NetError on a lost connection or once the
  /// absolute `deadline` passes; `op` names the request in the message.
  void send_all(const common::Bytes& frames, common::Duration deadline,
                MsgOp op);
  /// Decodes the next response frame, reading and polling until one is
  /// buffered. Throws NetError on a closed connection or a passed deadline.
  [[nodiscard]] Response next_response(common::Duration deadline, MsgOp op);
  /// kHello handshake on a fresh socket (constructor + reconnect path).
  void handshake();
  /// Adopts a response's forwarded attestation/epoch cert (unverified —
  /// callers check signatures before trusting).
  void adopt_attestations(const Response& resp);

  ClientConfig config_;
  common::Socket sock_;
  common::Bytes in_;
  std::size_t in_off_ = 0;  // consumed-frame offset; see compact_frames
  common::ScratchArena out_;  // reused request-frame encode buffer
  std::uint64_t next_rid_ = 1;
  std::uint32_t route_version_ = 0;
  std::uint32_t route_shard_ = 0;
  std::optional<core::SignedSnCurrent> attestation_;
  std::optional<core::EpochCert> epoch_cert_;
  std::uint64_t window_inflight_max_ = 0;  // high-water mark of frames in flight
  std::uint64_t window_chunks_ = 0;        // kReadBatch frames sent
};

}  // namespace worm::server
