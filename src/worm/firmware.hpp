// The certified WORM logic that runs *inside* the secure coprocessor
// enclosure (paper §4). This class is the trusted computing base: it owns
// the signing keys, issues serial numbers, witnesses every regulated update,
// runs the Retention Monitor daemon over the VEXP, manages the sliding
// window bounds, and implements the §4.3 deferred-strength optimization.
//
// Host code never touches its private state; interaction is through the
// public methods (the CCA-style command surface — see commands.hpp for the
// serialized wire form) and the outbound HostAgent interrupt interface.
// Every method charges simulated time against the device's calibrated cost
// model, which is what makes the Figure 1 reproduction possible.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "scpu/scpu_device.hpp"
#include "worm/proofs.hpp"
#include "worm/types.hpp"

namespace worm::core {

/// Which witnessing construct a write uses (§4.1 "Peak Performance", §4.3).
enum class WitnessMode : std::uint8_t {
  kStrong = 0,    // permanent-key signatures at write time
  kDeferred = 1,  // short-lived signatures now, strengthened during idle
  kHmac = 2,      // SCPU-keyed MACs now, signed during idle
};

/// Who computes the content hash for datasig (§4.2.2 "Write"): the SCPU
/// reading the data itself, or the main CPU under the slightly weaker
/// trusted-hash burst model where the SCPU audits the hash later.
enum class HashMode : std::uint8_t {
  kScpuHash = 0,
  kHostHash = 1,
};

/// Key strengths: the paper's strong reference strength (keys s and d).
inline constexpr std::size_t kStrongBits = 1024;
inline constexpr std::size_t kDeletionBits = 1024;
/// Litigation credentials older than this are refused.
inline constexpr common::Duration kLitCredentialMaxAge =
    common::Duration::hours(24);
/// Epoch attestation (O(1)-amortized freshness): at most one EpochCert
/// signature per interval, refreshed lazily whenever any command enters the
/// device with the current cert older than this. Well below the default
/// sn_current_max_age, so a cert riding a batch ack is always fresh enough
/// for clients judging by that policy.
inline constexpr common::Duration kEpochInterval =
    common::Duration::seconds(30);
/// Streaming chunk for DMA + hashing of record payloads.
inline constexpr std::size_t kDataChunk = 65536;

struct FirmwareConfig {
  std::size_t short_bits = 512;  // §4.3 short-lived baseline
  /// Security lifetime of a short-lived construct: it must be strengthened
  /// this soon after creation (paper: 512-bit resists "60-180 mins").
  common::Duration short_sig_lifetime = common::Duration::minutes(60);
  /// Short-term signing keys rotate this often (old epochs are retained for
  /// verification until their signatures are all strengthened).
  common::Duration short_key_rotation = common::Duration::minutes(30);
  /// SN_current heartbeat period (§4.2.1 mechanism (ii): refresh "every few
  /// minutes (even in the absence of data updates)").
  common::Duration heartbeat_interval = common::Duration::minutes(2);
  /// Clients reject S_s(SN_current) stamps older than this.
  common::Duration sn_current_max_age = common::Duration::minutes(5);
  /// Validity horizon written into S_s(SN_base) (anti-replay).
  common::Duration sn_base_validity = common::Duration::minutes(10);
  /// Secure-memory budget for the VEXP (bytes); ~24 bytes/entry.
  std::size_t vexp_memory_bytes = 1u << 20;
  /// Deterministic seed for this device's key material and window ids.
  std::uint64_t seed = 0x574f524d;  // "WORM"
};

/// Outbound interrupt surface: how the Retention Monitor tells the host to
/// act. The host is untrusted — ignoring these calls only ever makes it
/// *keep* data past retention ("remembering", which the threat model
/// §2.1 explicitly does not defend against), never lets it rewrite history.
class HostAgent {
 public:
  virtual ~HostAgent() = default;

  /// Retention expired for sn: shred the data and replace the VRDT entry
  /// with `proof`.
  virtual void on_expire(Sn sn, DeletionProof proof) = 0;

  /// Fresh heartbeat for the host to serve to readers.
  virtual void on_heartbeat(SignedSnCurrent current) = 0;
};

/// Result of a witnessed write.
struct WriteWitness {
  Sn sn = kInvalidSn;
  Attr attr;                // with creation_time stamped by the SCPU
  common::Bytes data_hash;  // chained hash the datasig covers
  SigBox metasig;
  SigBox datasig;
};

/// One record's worth of strengthening work (§4.3): the firmware verifies
/// the short-lived witnesses and replaces them with strong signatures.
struct StrengthenResult {
  Sn sn = kInvalidSn;
  SigBox metasig;
  SigBox datasig;
};

class Firmware {
 public:
  Firmware(scpu::ScpuDevice& device, FirmwareConfig config,
           crypto::RsaPublicKey regulator_pub);
  ~Firmware();

  Firmware(const Firmware&) = delete;
  Firmware& operator=(const Firmware&) = delete;

  void set_host_agent(HostAgent* agent) { host_ = agent; }

  // --- certificates (what clients trust) ---------------------------------

  [[nodiscard]] crypto::RsaPublicKey meta_public_key() const;
  [[nodiscard]] crypto::RsaPublicKey deletion_public_key() const;
  /// Certificates for every short-term key epoch still in verification use.
  [[nodiscard]] std::vector<ShortKeyCert> short_key_certs() const;
  /// Raw HMAC verification is impossible for clients by design; exposed to
  /// no one. (Tests reach it via the firmware's own verify path.)

  // --- WORM operations (§4.2.2) -------------------------------------------

  /// Witnesses a write. `payloads` carries the record data when
  /// hash_mode == kScpuHash; `claimed_hash` carries the host-computed
  /// chained hash when hash_mode == kHostHash (audited later).
  WriteWitness write(const Attr& attr_in,
                     const std::vector<storage::RecordDescriptor>& rdl,
                     const std::vector<common::Bytes>& payloads,
                     common::ByteView claimed_hash, WitnessMode mode,
                     HashMode hash_mode);

  /// One pending write inside a kWriteBatch crossing (§4.1 amortization:
  /// many witnesses ride one mailbox round-trip).
  struct BatchItem {
    Attr attr;
    std::vector<storage::RecordDescriptor> rdl;
    std::vector<common::Bytes> payloads;  // kScpuHash mode
    common::Bytes claimed_hash;           // kHostHash mode
  };

  /// Witnesses a batch of writes atomically: every item is admission-checked
  /// before any serial number is issued, then each record receives exactly
  /// the witness it would get from a sequential write() — one consecutive SN
  /// range, byte-identical signatures. Only the crossing is amortized;
  /// clients cannot distinguish batched from sequential history.
  std::vector<WriteWitness> write_batch(const std::vector<BatchItem>& items,
                                        WitnessMode mode, HashMode hash_mode);

  /// Places a litigation hold (§4.2.2): verifies the authority credential
  /// and the VRD's metasig, rewrites attr, re-signs. Returns the updated
  /// attr + metasig. Throws ScpuError on bad credential/signature.
  struct LitUpdate {
    Attr attr;
    SigBox metasig;
  };
  LitUpdate lit_hold(const Vrd& vrd, common::SimTime hold_until,
                     std::uint64_t lit_id, common::SimTime cred_issued_at,
                     common::ByteView credential);
  LitUpdate lit_release(const Vrd& vrd, std::uint64_t lit_id,
                        common::SimTime cred_issued_at,
                        common::ByteView credential);

  /// On-demand S_s(SN_current) heartbeat (also fired periodically).
  SignedSnCurrent heartbeat();

  /// Latest epoch certificate, re-signed first if the epoch interval has
  /// elapsed (at most one signature per interval — the amortization).
  EpochCert epoch_cert();

  /// Like epoch_cert() but nullopt once the device is zeroized — the form
  /// the batch-ack encoder uses so a kWriteBatch response can carry the
  /// cert opportunistically.
  std::optional<EpochCert> epoch_cert_opt();

  /// Fresh S_s(SN_base).
  SignedSnBase sign_base();

  /// Advances SN_base to `new_base` given deletion proofs / deleted windows
  /// covering every SN in [current base, new_base). Returns the new signed
  /// base. Throws ScpuError on gaps or bad proofs.
  SignedSnBase advance_base(Sn new_base,
                            const std::vector<DeletionProof>& proofs,
                            const std::vector<DeletedWindow>& windows);

  /// Certifies a deleted window over [lo, hi] (>= 3 entries, §4.2.1) after
  /// verifying deletion evidence for every covered SN: a per-SN deletion
  /// proof, or a previously certified window (which lets idle-time
  /// compaction merge adjacent windows into one maximal span).
  DeletedWindow certify_window(Sn lo, Sn hi,
                               const std::vector<DeletionProof>& proofs,
                               const std::vector<DeletedWindow>& windows = {});

  /// Strengthens deferred witnesses (§4.3). For each VRD the firmware
  /// verifies the short-lived sigs (or HMACs), then re-signs with the strong
  /// key. VRDs whose data hash is still host-claimed-and-unaudited must come
  /// with payloads (outer vector parallel to vrds; empty inner vector =
  /// none supplied).
  std::vector<StrengthenResult> strengthen(
      const std::vector<Vrd>& vrds,
      const std::vector<std::vector<common::Bytes>>& payloads_per_vrd);

  /// Signs a compliant-migration manifest (source-side attestation of the
  /// exact record set that left this store).
  MigrationAttestation sign_migration(common::ByteView manifest_hash,
                                      std::uint64_t source_store_id,
                                      std::uint64_t dest_store_id);

  /// Audits one host-claimed data hash by re-reading the payloads
  /// (trusted-hash burst model, §4.2.2). Throws ScpuError on mismatch —
  /// the host lied about the content it committed.
  void audit_hash(Sn sn, const std::vector<common::Bytes>& payloads);

  // --- VEXP / Retention Monitor (§4.2.2 "Record Expiration") -------------

  /// SNs whose short-lived witnesses still await strengthening, oldest
  /// deadline first.
  [[nodiscard]] std::vector<Sn> deferred_pending(std::size_t limit) const;
  [[nodiscard]] std::size_t deferred_count() const { return deferred_.size(); }
  /// Earliest strengthening deadline (SimTime::max() when queue empty).
  [[nodiscard]] common::SimTime earliest_deadline() const;

  /// SNs with unaudited host-claimed hashes.
  [[nodiscard]] std::vector<Sn> hash_audits_pending(std::size_t limit) const;

  /// True when VEXP had to drop entries (secure memory pressure) and a
  /// rebuild scan is needed to guarantee timely deletion.
  [[nodiscard]] bool vexp_incomplete() const { return vexp_incomplete_; }

  /// Idle-time VEXP rebuild: host streams the active VRDs; the firmware
  /// verifies each metasig and re-inserts its expiry.
  void vexp_rebuild_begin();
  void vexp_rebuild_add(const Vrd& vrd);
  void vexp_rebuild_end();

  [[nodiscard]] std::size_t vexp_size() const { return vexp_.size(); }

  /// Idle-time housekeeping the firmware does for itself (short-key
  /// rotation/pre-generation). The host calls this when load is light.
  void process_idle();

  // --- battery-backed persistence (power cycles) ---------------------------

  /// Serializes the battery-backed state: serial-number counters, short-key
  /// epochs, HMAC key, VEXP, litigation holds, strengthening queue and
  /// pending hash audits. On a real 4764 this state lives in battery-backed
  /// RAM and survives host reboots; the simulation makes the survival
  /// explicit. Long-term keys are deterministic in the device seed and are
  /// not serialized.
  [[nodiscard]] common::Bytes save_nvram() const;

  /// Restores battery-backed state into a freshly constructed firmware
  /// (same seed/config). Throws PreconditionError if this device has
  /// already issued serial numbers, ParseError on corrupt state.
  void restore_nvram(common::ByteView nvram);

  // --- introspection -------------------------------------------------------

  [[nodiscard]] Sn sn_current() const { return sn_current_; }
  [[nodiscard]] Sn sn_base() const { return sn_base_; }
  [[nodiscard]] const FirmwareConfig& config() const { return config_; }
  [[nodiscard]] scpu::ScpuDevice& device() { return dev_; }

  struct Counters {
    std::uint64_t writes = 0;
    std::uint64_t deletions = 0;
    std::uint64_t strengthened = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t hash_audits = 0;
    std::uint64_t lit_ops = 0;
    std::uint64_t key_rotations = 0;
    std::uint64_t epoch_certs = 0;  // EpochCert signatures issued
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // --- mailbox transport endpoint (device side) ----------------------------
  // Exactly-once execution of sequenced crossings: the channel delivers each
  // mutating command with a per-crossing sequence number; the firmware keeps
  // a bounded cache of recent responses so a duplicate delivery (lost
  // response, host crash, retry) returns the original answer WITHOUT
  // re-executing. Lives here — not in the host-side channel object — because
  // it must survive host restarts, like the rest of battery-backed state.

  /// Highest sequenced crossing executed (0 = none). Reported in kStatus so
  /// a restarting host resumes numbering past it.
  [[nodiscard]] std::uint64_t transport_last_seq() const {
    return transport_last_seq_;
  }
  /// Cached response for `seq`, or null when unknown (never executed, aged
  /// out of the bounded cache, or recorded for a different request — the
  /// frame checksum keys the entry too, so only a byte-identical resend
  /// dedups; a reused seq with different content executes fresh).
  [[nodiscard]] const common::Bytes* transport_cached(
      std::uint64_t seq, std::uint32_t request_crc) const;
  /// Records the response of a just-executed sequenced crossing.
  void transport_remember(std::uint64_t seq, std::uint32_t request_crc,
                          common::Bytes response);

 private:
  struct ShortKey {
    crypto::RsaPrivateKey key;
    std::uint32_t bits = 0;
    common::SimTime valid_from{};
    common::SimTime valid_until{};
  };

  struct DeferredEntry {
    Sn sn = kInvalidSn;
    common::SimTime deadline{};
  };

  common::Bytes sign_with(const crypto::RsaPrivateKey& key,
                          common::ByteView payload, std::size_t bits);
  /// write() body; `precomputed_hash` (kScpuHash only) carries a chained
  /// hash the batch path already computed in 4-lane lock-step — the cost is
  /// still charged per item, identically to the sequential path.
  WriteWitness write_impl(const Attr& attr_in,
                          const std::vector<storage::RecordDescriptor>& rdl,
                          const std::vector<common::Bytes>& payloads,
                          common::ByteView claimed_hash, WitnessMode mode,
                          HashMode hash_mode,
                          const common::Bytes* precomputed_hash);
  bool verify_metasig(const Vrd& vrd);
  bool verify_datasig(const Vrd& vrd);
  bool verify_sigbox(const SigBox& box, common::ByteView payload);
  common::Bytes compute_chained_hash(
      const std::vector<common::Bytes>& payloads, bool charge);
  const ShortKey& current_short_key();
  void rotate_short_key();
  /// Re-signs the epoch cert when none exists yet or the interval elapsed;
  /// otherwise a cheap early-out.
  void roll_epoch_if_due();
  void vexp_insert(common::SimTime expiry, Sn sn);
  void reschedule_rm();
  /// Expires every VEXP entry due by now (the body of rm_fire).
  void expire_due();
  void rm_fire();
  void heartbeat_fire();
  DeletionProof make_deletion_proof(Sn sn);
  /// The deletion evidence advance_base and certify_window both require:
  /// every SN in [lo, hi] carries a valid deletion proof or lies in one of
  /// `windows`, whose bound signatures are verified first. Charges each
  /// verification; throws ScpuError, prefixed with `op`, on the first
  /// failure.
  void check_deletion_evidence(Sn lo, Sn hi,
                               const std::vector<DeletionProof>& proofs,
                               const std::vector<DeletedWindow>& windows,
                               const char* op);
  void verify_lit_credential(Sn sn, std::uint64_t lit_id,
                             common::SimTime issued_at,
                             common::ByteView credential, bool hold);

  scpu::ScpuDevice& dev_;
  FirmwareConfig config_;
  crypto::RsaPublicKey regulator_pub_;
  crypto::Drbg drbg_;

  // Key material (battery-backed secure storage).
  const crypto::RsaPrivateKey* strong_key_ = nullptr;   // s
  const crypto::RsaPrivateKey* deletion_key_ = nullptr; // d
  std::map<std::uint32_t, ShortKey> short_keys_;        // by epoch id
  std::uint32_t current_short_id_ = 0;
  std::optional<crypto::RsaPrivateKey> spare_short_key_;  // pre-generated
  common::Bytes hmac_key_;

  Sn sn_current_ = 0;
  Sn sn_base_ = 1;

  // Epoch attestation state. The counter is battery-backed (persisted in
  // nvram) so epochs stay monotone across restarts — the property clients
  // use to convict rollback; the cert itself is just a cache and is
  // re-signed on demand after a restore.
  std::uint64_t epoch_ = 0;
  std::optional<EpochCert> epoch_cert_;

  // VEXP: expiry-sorted list of serial numbers, secure-memory bounded.
  std::multimap<common::SimTime, Sn> vexp_;
  std::map<Sn, common::SimTime> vexp_index_;  // membership / dedup
  bool vexp_incomplete_ = false;
  bool vexp_rebuilding_ = false;
  static constexpr std::size_t kVexpEntryBytes = 24;

  std::map<Sn, common::SimTime> lit_holds_;  // sn -> hold expiry

  std::deque<DeferredEntry> deferred_;
  std::set<Sn> deferred_sns_;
  std::map<Sn, common::Bytes> pending_hash_audits_;  // sn -> claimed hash

  HostAgent* host_ = nullptr;
  common::AlarmId rm_alarm_ = 0;
  bool rm_scheduled_ = false;
  common::AlarmId hb_alarm_ = 0;

  // Mailbox endpoint state (see transport_* above). The cache is a FIFO of
  // the most recent responses; a seq that has fallen out of it executes
  // fresh. The store resends an unanswered command before it sends the next
  // one, so at most one is ever outstanding and a lost answer is still here
  // when its resend asks.
  static constexpr std::size_t kTransportCacheDepth = 16;
  struct TransportEntry {
    std::uint64_t seq;
    std::uint32_t crc;  // crc32c of the request frame that produced it
    common::Bytes response;
  };
  std::uint64_t transport_last_seq_ = 0;
  std::deque<TransportEntry> transport_cache_;

  Counters counters_;
};

}  // namespace worm::core
