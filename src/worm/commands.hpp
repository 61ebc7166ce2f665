// Serialized command channel to the SCPU firmware — the wire form of the
// CCA-style API the host uses on a real IBM 4764 (requests and responses are
// byte strings crossing the PCI-X boundary). worm::WormStore binds to the
// firmware in-process; this channel is the transport used when the host and
// device are separated (and the surface the fault-injection tests fuzz:
// malformed bytes must come back as error responses, never crash the
// certified logic or corrupt its state).
//
// Wire format. Request: u8 opcode, then opcode-specific fields. Response:
// u8 status, then the opcode-specific payload (ok) or a length-prefixed
// message (all other statuses). Each crossing is framed with a per-crossing
// sequence number and a CRC-32C checksum, common::crc32c (modelled as
// out-of-band parameters of the in-process boundary rather than physically
// concatenated bytes).
//
// Reliability contract (see DESIGN.md §9):
//  * Sequenced commands (nonzero seq — the mutating opcodes) are idempotent
//    to resend: the device keeps a bounded cache of recent responses keyed
//    by (seq, crc32c(request)), so a duplicate delivery returns the cached
//    response WITHOUT re-executing. send() retries transient transport
//    faults (lost or corrupted frames) with bounded exponential backoff
//    until the attempt or sim-time deadline budget runs out, then throws
//    ChannelTimeoutError.
//  * Unsequenced commands (seq 0 — status, heartbeat, sign_base, the pending
//    queries, process_idle, ...) are naturally idempotent and bypass the
//    dedup cache; they retry the same way.
//  * A zeroized device answers kStatusDead; the channel converts that to
//    ScpuDeadError immediately (no retry — the outage is permanent).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/fault.hpp"
#include "worm/firmware.hpp"

namespace worm::core {

// Value 1 is retired and must not be reused: a lone write is a kWriteBatch of
// one, and the device answers opcode 1 with an error.
enum class OpCode : std::uint8_t {
  kHeartbeat = 2,
  kSignBase = 3,
  kAdvanceBase = 4,
  kCertifyWindow = 5,
  kStrengthen = 6,
  kAuditHash = 7,
  kLitHold = 8,
  kLitRelease = 9,
  kGetCertificates = 10,
  kVexpRebuildBegin = 11,
  kVexpRebuildAdd = 12,
  kVexpRebuildEnd = 13,
  kProcessIdle = 14,
  kSignMigration = 15,
  kDeferredPending = 16,
  kHashAuditsPending = 17,
  kWriteBatch = 18,
  kStatus = 19,
  kEpochCert = 20,
};

/// Hard cap on writes per kWriteBatch crossing: bounds the device-side
/// buffering one crossing may demand, independently of what the length
/// fields in hostile input claim.
inline constexpr std::uint32_t kMaxBatchItems = 1024;

/// Device-state snapshot returned by kStatus: the one crossing the host
/// makes to (re)seed its scheduling mirrors (SN bounds, strengthening
/// backlog, VEXP completeness) instead of poking firmware state directly.
struct ScpuStatus {
  Sn sn_current = 0;
  Sn sn_base = 1;
  bool vexp_incomplete = false;
  std::uint32_t deferred_count = 0;
  common::SimTime earliest_deadline = common::SimTime::max();
  // Highest sequenced crossing the device has executed. A restarting host
  // continues numbering at last_seq + 1 so its fresh crossings can never
  // collide with (and be swallowed by) the dedup cache.
  std::uint64_t last_seq = 0;
};

/// Thrown by typed wrappers when the device answered with an error status.
class ChannelError : public common::Error {
 public:
  using Error::Error;
};

/// Transient transport failure that outlived the retry budget (attempts or
/// sim-time deadline). The command may or may not have executed; resending
/// the same Prepared frame later is safe (sequenced dedup).
class ChannelTimeoutError : public ChannelError {
 public:
  using ChannelError::ChannelError;
};

/// The device zeroized (tamper response). Permanent: the host should degrade
/// to read-only verified mode, not retry.
class ScpuDeadError : public ChannelError {
 public:
  using ChannelError::ChannelError;
};

/// Certificates bundle returned by kGetCertificates.
struct CertificateBundle {
  common::Bytes meta_pub;      // serialized RsaPublicKey (key s)
  common::Bytes deletion_pub;  // serialized RsaPublicKey (key d)
  std::vector<ShortKeyCert> short_certs;
};

/// Host-side patience for one command. All waiting is charged to the
/// SimClock through the device's cost model — nothing sleeps for real.
/// (Namespace-scope so it can serve as a default argument below; spelled
/// ScpuChannel::RetryPolicy at use sites.)
struct ChannelRetryPolicy {
  // Attempts per command (first try included).
  std::size_t max_attempts = 6;
  // Backoff before retry k is initial * factor^(k-1), capped by what the
  // deadline budget still allows.
  common::Duration initial_backoff = common::Duration::millis(1);
  std::uint32_t backoff_factor = 2;
  // Total sim-time a single command may spend waiting before
  // ChannelTimeoutError.
  common::Duration deadline = common::Duration::seconds(2);
  // Charged once per lost crossing: how long the host waits before
  // declaring a response missing.
  common::Duration response_timeout = common::Duration::millis(5);
};

class ScpuChannel {
 public:
  /// Running totals for the transport itself (the transport half of the
  /// mailbox.* keys in WormStore::counters()), as wire_stats() snapshots
  /// them.
  struct WireStats {
    std::uint64_t commands = 0;       // crossings dispatched (device side)
    std::uint64_t bytes_crossed = 0;  // request + response bytes
    std::uint64_t errors = 0;         // crossings answered with error status
    std::uint64_t retries = 0;        // host resends after transport faults
    std::uint64_t dedup_hits = 0;     // duplicate deliveries suppressed
    std::uint64_t transport_faults = 0;  // lost/corrupt frames observed
    std::uint64_t timeouts = 0;       // commands that exhausted the budget
  };

  using RetryPolicy = ChannelRetryPolicy;

  /// A framed command: the sequence number plus the exact request bytes.
  /// WormStore journals this frame as its write-ahead intent and resends it
  /// verbatim during recovery — same seq, same bytes, exactly-once effect.
  struct Prepared {
    std::uint64_t seq = 0;  // 0 == unsequenced (idempotent, no dedup)
    common::Bytes request;
  };

  /// Every crossing charges the device's CostModel::transfer_cost; a
  /// zero-transfer model prices the in-process binding. `fault` attaches the
  /// named fault points "channel.request", "channel.response" and
  /// "scpu.tamper" (null = quiet).
  explicit ScpuChannel(Firmware& firmware, RetryPolicy retry = RetryPolicy(),
                       common::FaultInjector* fault = nullptr)
      : fw_(firmware), retry_(retry), fault_(fault) {}

  /// Raw entry point: one unsequenced crossing, no retry. Malformed or
  /// rejected commands produce an error *response*; this function only
  /// throws on host-side bugs (never for hostile request bytes). Every
  /// crossing — including a rejected one — charges the transfer cost for
  /// the bytes actually moved.
  [[nodiscard]] common::Bytes call(common::ByteView request);

  /// Frames `request` with the next sequence number.
  [[nodiscard]] Prepared prepare(common::Bytes request);

  /// Drives one framed command through the lossy wire: applies the fault
  /// points, retries per policy, throws ChannelTimeoutError / ScpuDeadError.
  /// Returns the full response (status byte + payload).
  [[nodiscard]] common::Bytes send(const Prepared& cmd);

  /// send() + status check: returns the ok-payload or throws ChannelError.
  [[nodiscard]] common::Bytes send_ok(const Prepared& cmd);

  /// Seq continuation across host restarts (from ScpuStatus::last_seq + 1).
  void set_next_seq(std::uint64_t next) { next_seq_ = next; }

  /// The transport's counts so far. Reads relaxed atomics only, so any
  /// thread may call it, a crossing in flight included; the counts of a
  /// crossing still in flight may be partly in.
  [[nodiscard]] WireStats wire_stats() const;

  // --- request/response codecs --------------------------------------------
  // Public and static so WormStore can journal an encoded intent before the
  // crossing and re-decode it during recovery; the device dispatch uses the
  // same functions, keeping one wire format.

  /// Encodes a kWriteBatch request into `w` (the store passes a reusable
  /// arena writer).
  static void encode_write_batch_into(
      common::ByteWriter& w, const std::vector<Firmware::BatchItem>& items,
      WitnessMode mode, HashMode hash_mode);
  static common::Bytes encode_lit_hold(const Vrd& vrd,
                                       common::SimTime hold_until,
                                       std::uint64_t lit_id,
                                       common::SimTime cred_issued_at,
                                       common::ByteView credential);
  static common::Bytes encode_lit_release(const Vrd& vrd, std::uint64_t lit_id,
                                          common::SimTime cred_issued_at,
                                          common::ByteView credential);
  static common::Bytes encode_strengthen(
      const std::vector<Vrd>& vrds,
      const std::vector<std::vector<common::Bytes>>& payloads_per_vrd);
  static common::Bytes encode_audit_hash(
      Sn sn, const std::vector<common::Bytes>& payloads);
  static common::Bytes encode_certify_window(
      Sn lo, Sn hi, const std::vector<DeletionProof>& proofs,
      const std::vector<DeletedWindow>& windows);
  static common::Bytes encode_advance_base(
      Sn new_base, const std::vector<DeletionProof>& proofs,
      const std::vector<DeletedWindow>& windows);

  /// kWriteBatch ack: the witnesses plus the device's SN_current after the
  /// whole group landed. The trailing attestation lets the host advance its
  /// scheduling mirror straight off the ack — one group-commit flush updates
  /// the read path's view without inferring it from individual witnesses.
  struct BatchAck {
    std::vector<WriteWitness> witnesses;
    Sn sn_current_after = 0;
    // The newest EpochCert (absent only from a zeroized device), carried
    // opportunistically so steady writes keep every session's freshness
    // cache warm with zero dedicated attestation crossings.
    std::optional<EpochCert> epoch_cert;
  };
  static BatchAck decode_write_batch_response(common::ByteView payload);
  static Firmware::LitUpdate decode_lit_response(common::ByteView payload);
  static std::vector<StrengthenResult> decode_strengthen_response(
      common::ByteView payload);
  static DeletedWindow decode_window_response(common::ByteView payload);
  static SignedSnBase decode_base_response(common::ByteView payload);

  /// First byte of a request frame (for journal replay dispatch).
  static OpCode request_opcode(common::ByteView request);

  /// Parses a kWriteBatch request — the device's decoder, and recovery's way
  /// back to the RDLs it needs to rebuild the VRDs around resent witnesses.
  /// Rejects empty and oversized batches (kMaxBatchItems).
  struct ParsedWriteBatch {
    std::vector<Firmware::BatchItem> items;
    WitnessMode mode = WitnessMode::kStrong;
    HashMode hash_mode = HashMode::kScpuHash;
  };
  static ParsedWriteBatch decode_write_batch_request(common::ByteView request);
  /// SN a journaled kLitHold/kLitRelease request targets.
  static Sn decode_lit_request_sn(common::ByteView request);

  // --- typed wrappers (encode -> send -> decode) ---------------------------
  // Unsequenced queries and idle-duty commands, retried per policy. The
  // mutating opcodes have no wrapper, and neither has the hash audit, whose
  // repeat the device refuses: WormStore journals their encoded frames and
  // sends them through prepare() / send_ok() itself, so the device's
  // response cache answers a resend.

  [[nodiscard]] ScpuStatus status();
  [[nodiscard]] SignedSnCurrent heartbeat();
  [[nodiscard]] SignedSnBase sign_base();
  [[nodiscard]] CertificateBundle get_certificates();
  void vexp_rebuild_begin();
  void vexp_rebuild_add(const Vrd& vrd);
  void vexp_rebuild_end();
  void process_idle();
  [[nodiscard]] MigrationAttestation sign_migration(common::ByteView manifest_hash,
                                      std::uint64_t source_id,
                                      std::uint64_t dest_id);
  [[nodiscard]] std::vector<Sn> deferred_pending(std::uint32_t limit);
  [[nodiscard]] std::vector<Sn> hash_audits_pending(std::uint32_t limit);

 private:
  common::Bytes dispatch(common::ByteView request);
  // Device-side endpoint for one delivered frame: checksum verification,
  // dedup, dispatch, response caching, transfer-cost accounting.
  common::Bytes receive(std::uint64_t seq, std::uint32_t request_crc,
                        common::ByteView request);
  common::Bytes invoke_ok(common::Bytes request);  // unsequenced send_ok

  Firmware& fw_;
  RetryPolicy retry_;
  common::FaultInjector* fault_;
  std::uint64_t next_seq_ = 1;
  // WireStats' counts, bumped by the crossing thread alone.
  struct WireCounts {
    std::atomic<std::uint64_t> commands{0};
    std::atomic<std::uint64_t> bytes_crossed{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> dedup_hits{0};
    std::atomic<std::uint64_t> transport_faults{0};
    std::atomic<std::uint64_t> timeouts{0};
  };
  WireCounts wire_;
};

}  // namespace worm::core
