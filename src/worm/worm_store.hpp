// Host-side (untrusted main CPU) orchestration of the Strong WORM protocol:
// the component a storage server embeds. It persists data records and the
// VRDT, crosses the SCPU mailbox (ScpuChannel, the serialized CCA-style
// transport) for every regulated update, serves reads entirely from its own
// (fast, untrusted) resources, and runs the idle-time duties: strengthening
// deferred witnesses, auditing host-claimed hashes, compacting deleted
// windows and advancing the window base.
//
// Nothing here is trusted by clients — their assurance comes from verifying
// the SCPU signatures carried in the results (client_verifier.hpp).
//
// Threading model: the read path (read/read_many/deadline_pressure) runs
// under a shared lock, so any number of reader threads proceed in parallel
// (§4.2.2 — reads are main-CPU-only and must scale with host resources).
// Everything that mutates host state takes that lock (state_mu_)
// exclusively. Every mailbox crossing takes commit_mu_ first, which keeps
// the mailbox strictly serialized and journal order equal to sequence order,
// and every crossing runs with state_mu_ released: the store lock is taken
// before it, to gather what the command needs and journal its intent, and
// after it, to journal the SCPU's answer and then apply it. So reads and
// write_async admissions never wait for the SCPU, whether it witnesses
// writes, litigation or idle duties. The journal records only what was sent
// and what the SCPU answered; recovery replays each answer through the fold
// a live crossing applies it with (DESIGN.md §9). The operation whose
// appends make a checkpoint due writes it before it releases commit_mu_,
// under the shared state_mu_, so reads go on while the VRDT streams out.
// Lock order: commit_mu_ -> state_mu_, with the journal's own mutex a leaf.
// Every read answers from the VRDT itself under state_mu_, so a read issued
// after a mutation returns never sees the pre-mutation result. See
// DESIGN.md §7.
//
// The discipline is machine-checked (DESIGN.md §8): every piece of host soft
// state is GUARDED_BY(state_mu_), the mailbox is GUARDED_BY(commit_mu_),
// every locked helper declares REQUIRES / REQUIRES_SHARED, the crossing
// helpers and the duties are EXCLUDES(state_mu_), a clang build under
// -Werror=thread-safety refuses to compile an access that breaks the model,
// and worm-analyze flags every mailbox crossing made with state_mu_ held.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/sim_clock.hpp"
#include "scpu/cost_model.hpp"
#include "storage/record_store.hpp"
#include "worm/commands.hpp"
#include "worm/firmware.hpp"
#include "worm/journal.hpp"
#include "worm/proofs.hpp"
#include "worm/vrdt.hpp"
#include "worm/write_pipeline.hpp"

namespace worm::core {

/// Everything a client must trust to verify WORM assurances: the SCPU's
/// public keys (via regulator-signed certificates in deployment; modelled
/// directly here) and the acceptance policies for time-stamped proofs.
struct TrustAnchors {
  crypto::RsaPublicKey meta_key;      // verifies metasig/datasig/window/SN sigs
  crypto::RsaPublicKey deletion_key;  // verifies S_d deletion proofs
  std::vector<ShortKeyCert> short_certs;
  common::Duration sn_current_max_age{};  // freshness policy (§4.2.1 (ii))
  common::Duration short_sig_acceptance{};  // §4.3 security lifetime
};

/// Margin for the foreground deadline check: a write that arrives with a
/// strengthening deadline inside this margin services the urgent duties
/// first (§4.3 — the burst must yield before witnesses go stale).
inline constexpr common::Duration kStrengthenMargin =
    common::Duration::minutes(10);

/// Records one pump_idle duty strengthens or hash-audits: one mailbox
/// crossing's worth, inside the wire batch bound (kMaxBatchItems).
inline constexpr std::size_t kIdleBatch = 64;

/// How the store uses the SCPU mailbox.
struct MailboxConfig {
  /// Maximum writes witnessed per kWriteBatch crossing, and the group size
  /// at which the write pipeline sends its queued writes. In [1, 1024].
  std::size_t max_batch = 64;
  /// Per-command retry and backoff policy, handed to the transport as is
  /// (see ChannelRetryPolicy for the per-field defaults).
  ScpuChannel::RetryPolicy retry{};
};

struct StoreConfig {
  /// Witness mode for writes that don't specify one. Default kStrong: every
  /// write leaves with a full RSA witness (no deferred strengthening).
  WitnessMode default_mode = WitnessMode::kStrong;
  /// Where payload hashing happens. Default kScpuHash: the device hashes, so
  /// payload bytes cross the mailbox (the paper's baseline).
  HashMode hash_mode = HashMode::kScpuHash;
  /// Host-CPU cost model (hashing in kHostHash mode is charged here).
  /// Default: the paper's P4 evaluation host.
  scpu::CostModel host_model = scpu::CostModel::host_p4();
  /// Minimum contiguous expired run for window compaction. Default 3, the
  /// paper's break-even run length; must be nonzero.
  std::size_t compaction_min_run = 3;
  /// Identity of this store in migration manifests. Default 1.
  std::uint64_t store_id = 1;
  /// Content-addressed data-record sharing (§4.2: VRs may overlap, letting
  /// "repeatedly stored objects (such as popular email attachments)" be
  /// stored once). Shared records are reference-counted; physical shredding
  /// happens only when the LAST referencing virtual record expires.
  /// Default off.
  bool dedup = false;
  /// Mailbox transport tuning (see MailboxConfig for the per-field
  /// defaults, including the retry/backoff policy).
  MailboxConfig mailbox{};
  /// Write-ahead journal for host soft state (VRDT + in-flight sequenced
  /// commands). Empty (the default) disables journaling — the store then
  /// restarts only via adopt_vrdt(). See journal.hpp and recover().
  std::string journal_path{};
  /// Fault injector armed across the store's own fault points (storage is
  /// wired separately by the test rig). Not owned; must outlive the store.
  /// Default nullptr: every fault point compiles to a no-op check.
  common::FaultInjector* fault = nullptr;
  /// Group-commit write pipeline (write_async + committer thread). Disabled
  /// by default: the store stays fully synchronous and single-threaded
  /// drivers keep byte-identical behavior. See WritePipelineConfig.
  WritePipelineConfig pipeline{};

  /// Rejects configurations that cannot work before any of them is used,
  /// throwing PreconditionError naming the offending field. Called by the
  /// WormStore constructor.
  void validate() const;
};

/// A write, spelled out. Designated initializers read like the operation:
///   store.write({.payloads = {bytes}, .attr = attr});
/// Every write path refuses (PreconditionError) a request with no payloads,
/// a shredding byte outside ShredPolicy or a retention <= 0 before storing
/// or journaling it.
struct WriteRequest {
  std::vector<common::Bytes> payloads{};
  Attr attr{};
  // Defaults to StoreConfig::default_mode when unset.
  std::optional<WitnessMode> mode = std::nullopt;
};

/// A litigation hold or release with its authority credential. `hold_until`
/// is ignored by lit_release.
struct LitigationRequest {
  Sn sn = kInvalidSn;
  std::uint64_t lit_id = 0;
  common::SimTime hold_until{};
  common::SimTime cred_issued_at{};
  common::Bytes credential;
};

class InsiderHandle;

class WormStore final : public HostAgent {
 public:
  WormStore(common::SimClock& clock, Firmware& firmware,
            storage::RecordStore& records, StoreConfig config);
  ~WormStore() override;

  WormStore(const WormStore&) = delete;
  WormStore& operator=(const WormStore&) = delete;

  // --- WORM operations -----------------------------------------------------

  /// Stores a virtual record made of `request.payloads` (one data record
  /// each) under `request.attr`, witnessed by the SCPU over the mailbox.
  /// Returns the issued serial number — discarding it orphans the record
  /// (nothing else names it), so the compiler rejects a dropped result.
  /// With the pipeline off this is write_batch() of one request; with it on,
  /// write_async(request).get().
  [[nodiscard]] Sn write(const WriteRequest& request) EXCLUDES(state_mu_);

  /// Witnesses many pending writes with as few mailbox crossings as possible
  /// (kWriteBatch, at most StoreConfig::mailbox.max_batch per crossing).
  /// Requests with the same effective witness mode share crossings; returned
  /// SNs parallel `requests`. Crosses inline on the caller's thread,
  /// pipeline or not; a device rejection throws and leaves later chunks
  /// unstaged and uncrossed.
  [[nodiscard]] std::vector<Sn> write_batch(
      std::span<const WriteRequest> requests) EXCLUDES(state_mu_);

  /// Asynchronous write through the group-commit pipeline (requires
  /// StoreConfig::pipeline.enabled). Waits for a queue slot (backpressure),
  /// journals the admission — the write is durable before the ticket can
  /// resolve — then enqueues it for the committer thread, which crosses the
  /// mailbox once per group: when the group fills, or when one of its
  /// tickets is asked (WriteTicket::ready() makes it due without blocking).
  /// The ticket's get() blocks until the group lands and yields the issued
  /// Sn; with the pipeline on, write() is exactly write_async(request).get().
  /// Safe to call from many threads concurrently (admission-side hashing
  /// runs in parallel; only the journal append serializes, under the
  /// journal's own lock — an admission never waits for the store lock or a
  /// crossing).
  [[nodiscard]] WriteTicket write_async(WriteRequest request)
      EXCLUDES(state_mu_);

  /// Non-blocking write_async: admits the write if the pipeline has queue
  /// space, returns nullopt when it is at capacity (the caller surfaces
  /// explicit backpressure — the server maps this to the kBusy wire status —
  /// instead of stalling). As with write_async, the slot is claimed BEFORE
  /// the admission is journaled, so a rejected call leaves no journal record
  /// for recover() to re-execute. Same preconditions as write_async.
  [[nodiscard]] std::optional<WriteTicket> try_write_async(WriteRequest request)
      EXCLUDES(state_mu_);

  /// Flushes every queued write and waits for the committer to apply them.
  /// No-op without the pipeline. Never call while holding state_mu_ (lint
  /// rule blocking-under-state-mu).
  void drain_writes() EXCLUDES(state_mu_);

  /// Graceful shutdown: drain the pipeline, then stop the committer.
  /// Destruction without close() is the crash path — queued writes fail with
  /// TransientStorageError and recover() re-executes their journaled
  /// admissions.
  void close() EXCLUDES(state_mu_);

  /// Serves a read using main-CPU resources only (§4.2.2): data + VRD on
  /// success, or the applicable proof of rightful absence, or — when
  /// transient faults or degraded mode leave no honest proof at hand —
  /// ReadUnavailable. Never throws for infrastructure trouble: reads map
  /// every such condition into the outcome. Safe to call from any number of
  /// threads concurrently with writes and idle duties.
  [[nodiscard]] ReadOutcome read(Sn sn) EXCLUDES(state_mu_);

  /// Reads many SNs on the caller's thread. Results parallel `sns`; each
  /// element is exactly what read() would have returned.
  [[nodiscard]] std::vector<ReadOutcome> read_many(const std::vector<Sn>& sns)
      EXCLUDES(state_mu_);

  /// Applies a litigation hold / release with an authority credential.
  void lit_hold(const LitigationRequest& request) EXCLUDES(state_mu_);
  void lit_release(const LitigationRequest& request) EXCLUDES(state_mu_);

  /// Idle-period duties (§4.1, §4.3): strengthen deferred witnesses, audit
  /// host-claimed hashes, compact expired windows, advance the base, rebuild
  /// the VEXP if it overflowed — each at most once, in that order. Returns
  /// true if any work was done.
  bool pump_idle() EXCLUDES(state_mu_);

  /// True when the earliest strengthening deadline is within `margin` — the
  /// §4.3 contract says short-lived witnesses must be strengthened inside
  /// their security lifetime, so a conforming host must interrupt even a
  /// burst and pump when this trips. Answered from host-side mirrors (no
  /// mailbox crossing). Pinned by tests; the library cannot force a
  /// malicious host to call it (clients then see kStaleProof).
  [[nodiscard]] bool deadline_pressure(
      common::Duration margin = kStrengthenMargin) const EXCLUDES(state_mu_);

  // --- HostAgent (SCPU -> host interrupts) ---------------------------------

  void on_expire(Sn sn, DeletionProof proof) override EXCLUDES(state_mu_);
  void on_heartbeat(SignedSnCurrent current) override EXCLUDES(state_mu_);

  // --- client-facing state --------------------------------------------------

  /// Trust anchors clients verify against (in deployment these arrive as CA
  /// certificates; the transfer itself is out of band). Fetches the
  /// certificate bundle over the mailbox.
  [[nodiscard]] TrustAnchors anchors() EXCLUDES(state_mu_);

  /// Latest S_s(SN_current) heartbeat (what a read of a too-high SN returns).
  /// Returned by value: the stored copy can be replaced concurrently by the
  /// heartbeat interrupt.
  [[nodiscard]] SignedSnCurrent latest_heartbeat() const EXCLUDES(state_mu_) {
    common::SharedLock lk(state_mu_);
    return heartbeat_;
  }

  /// The SN the SCPU will assign to the next admitted write: the committed
  /// watermark mirror plus every admitted-but-unassigned pipeline write,
  /// plus one. Serves the v4 sequenced-write condition (expected_sn) and
  /// the router's admission-side capacity check without a mailbox crossing.
  /// Both terms are read under the state lock, and the pipeline decrements
  /// unassigned() inside the flush's exclusive hold of that same lock right
  /// after the mirror absorbs the commit — so the sum never double-counts a
  /// write the mirror already reflects (a heartbeat that lands mid-crossing
  /// does not move the mirror, see on_heartbeat). Writes admitted
  /// concurrently with this read are inherently unordered against it.
  [[nodiscard]] Sn next_sn() const EXCLUDES(state_mu_) {
    common::SharedLock lk(state_mu_);
    std::size_t pending = pipeline_ != nullptr ? pipeline_->unassigned() : 0;
    return sn_current_mirror_ + pending + 1;
  }

  /// Forces a fresh S_s(SN_current) attestation over the mailbox (kHeartbeat
  /// crossing) and returns it. Long-running servers call this when the cached
  /// heartbeat approaches the clients' freshness policy, since the
  /// alarm-driven heartbeat only fires when a simulation driver advances the
  /// clock. Degraded stores return the last cached attestation — the keys are
  /// gone, no fresher statement can exist.
  [[nodiscard]] SignedSnCurrent refresh_heartbeat() EXCLUDES(state_mu_);

  /// Newest EpochCert this store has seen (riding batch acks). nullopt
  /// before the first one. Returned by value: replaced concurrently by
  /// writers.
  [[nodiscard]] std::optional<EpochCert> latest_epoch_cert() const
      EXCLUDES(state_mu_) {
    common::SharedLock lk(state_mu_);
    return epoch_cert_;
  }

  /// The deployment freshness policy (TrustAnchors::sn_current_max_age)
  /// without an anchors() mailbox crossing — what the server's ping gate and
  /// sessions judge watermark/epoch-cert staleness against.
  [[nodiscard]] common::Duration freshness_horizon() const {
    return firmware_.config().sn_current_max_age;
  }

  /// Source-side attestation of a compliant-migration manifest.
  MigrationAttestation sign_migration(common::ByteView manifest_hash,
                                      std::uint64_t dest_store_id)
      EXCLUDES(state_mu_);

  /// Quiescent-state introspection for drivers and tests; not synchronized
  /// (the analysis opt-out below), so never call it concurrently with
  /// mutators.
  [[nodiscard]] const Vrdt& vrdt() const NO_THREAD_SAFETY_ANALYSIS {
    return vrdt_;
  }
  [[nodiscard]] storage::RecordStore& records() { return records_; }
  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] common::SimTime now() const { return clock_.now(); }

  /// Host restart: adopts a persisted VRDT and derives the rest of host
  /// state from its active VRDs — the block allocator and, with dedup
  /// enabled, the content index and reference counts. A journaled store
  /// checkpoints the adopted table. Only valid on a store that has not
  /// served writes yet.
  void adopt_vrdt(Vrdt vrdt) EXCLUDES(commit_mu_, state_mu_);

  /// What recover() did, for logs and tests. Replayed answers count only in
  /// `replayed` (and recovery.replayed): the store.* counters count what this
  /// process did, so recover() leaves them at what its resends and
  /// re-executions add.
  struct RecoveryReport {
    std::size_t replayed = 0;   // journal records folded into host state
    std::size_t resent = 0;     // pending intents resent to the device
    std::size_t abandoned = 0;  // resends the device rejected (never ran)
    std::size_t unresolved = 0;  // crossings that timed out; still pending
    bool torn_tail = false;     // the journal ended in a damaged frame
    std::size_t torn_bytes = 0;
    // Pipeline admissions (kQueuedWrite) that never made a group crossing
    // before the crash, re-executed as fresh batch crossings.
    std::size_t queued_replayed = 0;
    std::vector<Sn> recovered_sns;  // SNs materialized by resent writes
  };

  /// Crash recovery (journaled stores): replays the write-ahead journal into
  /// the VRDT, applying every journaled answer to its intent, derives the
  /// block allocator and dedup index from the result, resends every intent
  /// whose answer never landed (the device's per-sequence response cache
  /// makes the resend exactly-once; a rejected one zeroes what it staged),
  /// reconciles with the device's signed status, re-executes the pipeline
  /// admissions no intent superseded, and replaces the journal with a fresh
  /// checkpoint. A resend that times out stays pending, and the admissions
  /// then wait, journaled, for the next recover(); the checkpoint carries
  /// both. Only valid on a store that has not served writes yet. If the
  /// device turns out to be zeroized, the store comes up in degraded
  /// read-only mode instead of failing. A checkpoint that cannot be written
  /// throws, but on a degraded store it is logged and counted instead; the
  /// journal goes on with the file it replayed either way.
  RecoveryReport recover() EXCLUDES(state_mu_);

  /// True once the SCPU zeroized (tamper response) — the store then serves
  /// reads from existing proofs and rejects every mutation with
  /// ReadOnlyStoreError. There is no way back: the keys are gone.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Every store counter by its stable `<subsystem>.<counter>` name — the
  /// one place those names exist (DESIGN.md §6 lists them). Safe to call
  /// concurrently with any operation, and never waits out a crossing: the
  /// transport's counts are atomics, and the rest need only the shared
  /// store lock, which no crossing holds. With writers or a duty pass
  /// active, the numbers may catch them partway (a group's crossing counted
  /// before its mailbox.batches, or its tickets resolved before its journal
  /// checkpoint ran), so call drain_writes() first when they must be
  /// settled.
  [[nodiscard]] std::map<std::string_view, std::uint64_t> counters() const
      EXCLUDES(state_mu_);

 private:
  friend class InsiderHandle;

  storage::RecordDescriptor store_payload(const common::Bytes& payload)
      REQUIRES(state_mu_);
  /// Drops one reference to `rd` and shreds it by `policy` once nothing else
  /// references it; true when it shredded.
  bool release_rd(const storage::RecordDescriptor& rd,
                  storage::ShredPolicy policy) REQUIRES(state_mu_);
  void charge_host(common::Duration d) { clock_.charge(d); }
  std::vector<common::Bytes> read_payloads(const Vrd& vrd);
  /// Answers the read from host state under the caller's lock, or nullopt
  /// when the answer needs a mailbox crossing (expired base proof).
  std::optional<ReadOutcome> read_locked(Sn sn) REQUIRES_SHARED(state_mu_);
  /// Answers a read below the base whose cached proof expired: fetches a
  /// fresh S_s(SN_base) with the store lock released, then caches it.
  ReadOutcome read_below_base(Sn sn) REQUIRES(commit_mu_) EXCLUDES(state_mu_);

  /// Throws ReadOnlyStoreError when the store is degraded (mutation entry
  /// guard).
  void require_mutable() const;
  /// Flips to degraded read-only mode and rethrows as ReadOnlyStoreError.
  [[noreturn]] void enter_degraded(const ScpuDeadError& cause);

  /// Adopts a batch-ack epoch cert when its epoch is newer than the cached
  /// one.
  void adopt_epoch_cert_locked(const std::optional<EpochCert>& cert)
      REQUIRES(state_mu_);

  /// Frames `frame` with the next sequence number, journals it as an intent
  /// (the exact wire frame) before it crosses, and puts it on the pending
  /// list, journaled or not. `qids` names the pipeline admissions
  /// (kQueuedWrite records) a write crossing carries: the intent record
  /// atomically supersedes them, so recovery resends the frame (dedup-exact)
  /// instead of re-executing them and a crash between journal and ack can
  /// never apply a write twice. commit_mu_ makes journal order sequence
  /// order.
  ScpuChannel::Prepared journal_intent(
      common::Bytes frame, const std::vector<std::uint64_t>& qids = {})
      REQUIRES(commit_mu_, state_mu_);
  /// Journals the device's answer to intent `seq` (kComplete): its
  /// ok-payload, or a rejection when `payload` is null. Then takes the
  /// intent off the pending list. Runs before the answer is applied, in the
  /// same hold of state_mu_; an append that keeps failing (a few tries at a
  /// transient fault) throws and leaves the intent pending.
  void journal_answer(std::uint64_t seq, const common::Bytes* payload)
      REQUIRES(state_mu_);
  /// The one sequenced crossing of every command but a write, in the write
  /// committer's three steps: journals `frame` as an intent under state_mu_,
  /// crosses with state_mu_ released, then journals the answer and applies
  /// it (apply_answer_locked) under state_mu_ again. A device rejection is
  /// journaled and rethrown; a timeout leaves the intent pending for the
  /// next sequenced crossing; device death propagates.
  void cross_sequenced(common::Bytes frame) REQUIRES(commit_mu_)
      EXCLUDES(state_mu_);
  /// Resends every pending intent in seq order, each crossing with
  /// state_mu_ released and its answer journaled and applied under it; a
  /// rejected one releases what its frame staged. The store runs it before
  /// it prepares each new sequenced frame, so the device holds at most one
  /// unanswered sequenced command, and recover() runs it after its seq
  /// continuation. A timeout, device death or host fault stops it there,
  /// before the caller's command is sent, with that intent still pending.
  /// `report`, when given, counts what recovery resent.
  void resend_pending(RecoveryReport* report = nullptr) REQUIRES(commit_mu_)
      EXCLUDES(state_mu_);
  /// A record whose VRD is gone while its blocks may still hold plaintext:
  /// an expiry replay folded over an active VRD (on_expire journals the
  /// proof before it shreds, so a crash may have cut the shred short), or a
  /// write whose answer landed after its SN was deleted.
  struct Expired {
    storage::RecordDescriptor rd;
    storage::ShredPolicy policy = storage::ShredPolicy::kNone;
  };
  /// Applies a sequenced command's answer, from a live crossing, a resend
  /// or the journal's replay; returns the SNs a kWriteBatch landed. It
  /// journals nothing: its caller journals the answer first. A hold or
  /// strengthening skips an entry that is no longer active, so an expiry
  /// that landed after the frame was built is not overwritten; a write
  /// whose SN is already deleted keeps its proof (apply_write_ack_locked).
  /// Replay passes `replayed`, its list of records to shred once host state
  /// is derived; live callers leave it null and the fold releases them.
  std::vector<Sn> apply_answer_locked(common::ByteView frame,
                                      common::ByteView payload,
                                      std::vector<Expired>* replayed = nullptr)
      REQUIRES(state_mu_);

  // --- the write path -------------------------------------------------------

  /// One write the committer has not staged yet. Exactly one of `request`
  /// (synchronous and recovered writes) and `admitted` (pipeline
  /// admissions) is set.
  struct UnstagedWrite {
    const WriteRequest* request = nullptr;
    WritePipeline::Pending* admitted = nullptr;
    std::uint64_t qid = 0;  // journaled admission it completes; 0 = none
  };
  /// Stores the payloads and takes the hash (or carries the payloads for
  /// the device to hash). Synchronous and recovered writes hash on the
  /// serialized clock (charged); admitted ones reuse their admitting
  /// thread's hash and MOVE their payloads into the frame, so multi-MB
  /// payloads are never copied.
  /// Each stored record lands in `item` as soon as it is written, so a
  /// throw mid-stage leaves nothing the caller cannot release.
  void stage(const WriteRequest& request, Firmware::BatchItem& item)
      REQUIRES(state_mu_);
  void stage(WritePipeline::Pending& p, Firmware::BatchItem& item)
      REQUIRES(state_mu_);
  /// Releases what a chunk staged when no VRD will ever name it (the device
  /// rejected the chunk or its resend, or its intent never reached the
  /// journal): each record is zero-filled (release_records_locked).
  std::size_t release_staged(const std::vector<Firmware::BatchItem>& items)
      REQUIRES(state_mu_);
  /// The records active VRDs and pending kWriteBatch frames name.
  std::vector<storage::RecordDescriptor> named_records_locked() const
      REQUIRES(state_mu_);
  /// Drops from each record every block `named` holds and every block past
  /// the device. A descriptor from the journal is untrusted, so no shred of
  /// one may zero a live record or write past the device.
  void drop_named_blocks(std::vector<Expired>& records,
                         const std::vector<storage::RecordDescriptor>& named);
  /// Shreds each record by its own policy and frees its blocks, except the
  /// blocks something live names (drop_named_blocks); a dedup-shared record
  /// drops one reference instead. Returns the blocks shredded. Never throws
  /// a storage error: a record whose shred fails keeps its blocks, and what
  /// they hold, and is owed (owed_shreds_); the rest still go.
  std::size_t release_records_locked(std::vector<Expired> records)
      REQUIRES(state_mu_);
  /// Each committed write's fate, in order: its SN, or the device rejection
  /// of its chunk (nothing in that chunk ran). Called under state_mu_.
  using Landed = std::function<void(std::size_t index, Sn sn,
                                    const std::exception_ptr& rejected)>;
  /// The one write committer: consecutive same-mode writes, chunked at
  /// mailbox.max_batch, cross as one journaled kWriteBatch per chunk, in
  /// three steps: stage the chunk and journal its intent under state_mu_,
  /// cross with state_mu_ released, then journal the ack and apply it under
  /// state_mu_ again. Each chunk first resends what the device has not
  /// answered (resend_pending), and is staged only when its turn comes. A
  /// rejected chunk's staged records are released (release_staged);
  /// committing goes on unless `landed` throws. Timeouts, device death and
  /// host faults propagate; one that strikes before the intent is journaled
  /// releases the chunk's staged records first.
  void commit_writes(std::span<const UnstagedWrite> writes,
                     const Landed& landed) REQUIRES(commit_mu_)
      EXCLUDES(state_mu_);
  /// Applies a kWriteBatch ack (VRDs around `items`' RDLs, SN mirror, epoch
  /// cert); returns the issued SNs. Journals nothing, like
  /// apply_answer_locked. An answer that lands after its SN was deleted (it
  /// was lost, and the expiry, a window or the base came first) leaves the
  /// deletion standing; its records go to `replayed`, or are released now.
  std::vector<Sn> apply_write_ack_locked(
      common::ByteView payload, std::vector<Firmware::BatchItem>& items,
      WitnessMode mode, std::vector<Expired>* replayed = nullptr)
      REQUIRES(state_mu_);
  /// The one async admission step: write_async blocks on a full queue,
  /// try_write_async (blocking = false) answers nullopt.
  std::optional<WriteTicket> admit(WriteRequest request, bool blocking)
      EXCLUDES(state_mu_);
  /// Journals a write_async admission (kQueuedWrite) before the ticket
  /// exists, under the journal's own lock.
  void journal_queued_write(std::uint64_t qid, const WriteRequest& request);
  /// Committer callback: commits one pipeline group in admission order,
  /// resolving every ticket (success or error). Never throws — errors land
  /// in the tickets.
  void flush_group(std::vector<WritePipeline::Pending>&& group)
      EXCLUDES(commit_mu_, state_mu_);

  // --- recover() phases, in order ------------------------------------------

  struct Replayed {
    std::map<std::uint64_t, WriteRequest> queued;  // qid -> admission
    std::vector<Expired> expired;                  // to shred again
  };
  /// Folds the journal into host state: each answered intent's answer goes
  /// through apply_answer_locked, and every intent without one is left on
  /// the pending list.
  Replayed replay_journal_locked(RecoveryReport& report) REQUIRES(state_mu_);
  /// Derives the host state nothing persists from the state that is: the
  /// records named by active VRDs and by the kWriteBatch frames of pending
  /// intents rebuild the dedup index, the reference counts and the block
  /// allocator. Each `expired` record is shredded again by its own policy
  /// first, except the blocks something live names (drop_named_blocks: a
  /// dedup-shared record, or a block a later write reused).
  void derive_host_state_locked(std::vector<Expired> expired = {})
      REQUIRES(state_mu_);
  /// Re-seeds the mirrors and the heartbeat from the device's signed view,
  /// journaling a trim first when the device's SN_base passed what the host
  /// still holds, and dropping a cached base the device has moved past.
  void reconcile_with_device() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  /// Crosses the admissions no intent superseded, in admission order. A
  /// timeout leaves its intent pending and the later admissions journaled.
  void reexecute_queued(const std::map<std::uint64_t, WriteRequest>& queued,
                        RecoveryReport& report) REQUIRES(commit_mu_)
      EXCLUDES(state_mu_);

  // --- journal checkpoints ---------------------------------------------------

  /// The one checkpoint: replaces the journal with the VRDT, one kIntent
  /// per pending intent and the admissions no intent superseded
  /// (HostJournal::checkpoint). commit_mu_ keeps every chunk out of the span
  /// between its intent and its answer; the shared state_mu_ keeps answers,
  /// expiries and trims out from the first byte to the rename while reads
  /// go on. Throws what the journal threw, and fails (counted like any
  /// failed checkpoint) while a shred is owed: the records since the last
  /// checkpoint are what replay redoes it from.
  void checkpoint_locked() REQUIRES(commit_mu_) REQUIRES_SHARED(state_mu_);
  /// recover()'s checkpoint and the online trigger's: retries the owed
  /// shreds under the exclusive state_mu_, then runs checkpoint_locked()
  /// under the shared one.
  void checkpoint() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  /// The online trigger, run by every chunk, duty and litigation crossing
  /// once its answer is applied: checkpoints when the journal says one is
  /// due. A failure is logged and counted (journal.checkpoint_failures),
  /// and the next due check tries again.
  void maybe_checkpoint() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  /// Shreds each owed record again; keeps the ones that still fail.
  void retry_owed_shreds_locked() REQUIRES(state_mu_);

  // WAL appends for the host state that no SCPU answer carries; each runs
  // BEFORE the in-memory mutation it describes.
  void journal_put_deleted(const DeletionProof& proof) REQUIRES(state_mu_);
  void journal_trim_below(Sn sn_base) REQUIRES(state_mu_);

  /// lit_hold and lit_release: builds the frame from the active VRD, then
  /// crosses it (cross_sequenced).
  void litigate(const LitigationRequest& request, bool hold)
      EXCLUDES(state_mu_);
  /// Applies a litigation attr+metasig refresh.
  void apply_lit_update(Sn sn, Firmware::LitUpdate up) REQUIRES(state_mu_);
  /// Applies strengthen results.
  void apply_strengthen_results(std::vector<StrengthenResult> results)
      REQUIRES(state_mu_);
  void note_deferred_witness(common::SimTime creation_time)
      REQUIRES(state_mu_);
  void sync_deferred_mirror() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  void maybe_service_deadline() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  /// What proves the SNs from `lo` up deleted: their deletion proofs and
  /// certified windows, up to `hi` or the first SN proven by neither. `end`
  /// is the SN the walk stopped at.
  struct DeletionEvidence {
    Sn end = kInvalidSn;
    std::vector<DeletionProof> proofs;
    std::vector<DeletedWindow> windows;
  };
  DeletionEvidence deletion_evidence_locked(Sn lo, Sn hi) const
      REQUIRES_SHARED(state_mu_);
  // The idle duties. Each gathers what it needs under the shared lock and
  // crosses with it released; the sequenced ones apply their answers
  // through cross_sequenced.
  bool do_strengthen_batch() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  bool do_hash_audits() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  bool do_compaction() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  bool do_advance_base() REQUIRES(commit_mu_) EXCLUDES(state_mu_);
  bool do_vexp_rebuild() REQUIRES(commit_mu_) EXCLUDES(state_mu_);

  common::SimClock& clock_;
  // Held only for host-agent (interrupt) registration and out-of-band
  // deployment parameters; every operation crosses channel_.
  Firmware& firmware_;
  storage::RecordStore& records_;
  StoreConfig config_;
  // Orders every mailbox crossing. Lock order: commit_mu_, then state_mu_;
  // the journal's mutex is a leaf.
  mutable common::AnnotatedMutex commit_mu_;
  // Readers shared; every mutation exclusive. No crossing holds it.
  mutable common::AnnotatedSharedMutex state_mu_;
  // The mailbox is not internally synchronized (DESIGN.md §6): guarding it
  // with commit_mu_ makes "no crossing without the commit lock"
  // compile-time.
  ScpuChannel channel_ GUARDED_BY(commit_mu_);
  // The same channel, for counters() alone: wire_stats() reads relaxed
  // atomics, so a stats read never waits out a crossing for commit_mu_.
  const ScpuChannel& wire_;
  // The mailbox.* counts the store makes itself; the transport's are in
  // wire_.wire_stats().
  struct MailboxCounts {
    std::uint64_t batches = 0;          // kWriteBatch crossings
    std::uint64_t batched_writes = 0;   // writes those crossings carried
    std::uint64_t queue_hwm = 0;        // most writes handed to one commit
    std::uint64_t duty_runs = 0;        // idle duties that found work
    std::uint64_t urgent_services = 0;  // duty runs forced by deadline pressure
  };
  MailboxCounts mailbox_ GUARDED_BY(state_mu_);
  Vrdt vrdt_ GUARDED_BY(state_mu_);
  // Write-ahead journal; a pathless journal is a no-op sink. Internally
  // synchronized, so admissions append without state_mu_.
  HostJournal journal_;
  // Every sequenced frame sent (or about to be) whose answer is not
  // journaled yet, by seq, journaled or not, with the admissions its
  // intent superseded. Non-empty means host soft state may lag the device
  // until the next sequenced crossing resends them (resend_pending).
  struct PendingIntent {
    common::Bytes frame;
    std::vector<std::uint64_t> qids;
  };
  std::map<std::uint64_t, PendingIntent> pending_seqs_ GUARDED_BY(state_mu_);
  // True from a write chunk's intent to its applied ack: the device may hold
  // SNs above sn_current_mirror_ that the host has not applied yet.
  bool writes_in_flight_ GUARDED_BY(state_mu_) = false;
  // Records whose shred failed while the store served: an expiry's
  // (on_expire), a late answer's or a released chunk's
  // (release_records_locked). Their blocks stay allocated, so a retry never
  // zeroes another record. Replaying the kPutDeleted or kComplete that
  // released an expiry's or a late answer's record shreds it again, so no
  // checkpoint runs while any is owed.
  std::vector<Expired> owed_shreds_ GUARDED_BY(state_mu_);
  // Degraded read-only mode: set when the SCPU reports zeroization. Atomic
  // so admissions check it without state_mu_.
  std::atomic<bool> degraded_{false};
  // Cumulative recovery statistics (recovery.* counters).
  std::uint64_t recovery_replayed_ GUARDED_BY(state_mu_) = 0;
  std::uint64_t recovery_resent_ GUARDED_BY(state_mu_) = 0;
  std::uint64_t recovery_torn_bytes_ GUARDED_BY(state_mu_) = 0;
  std::uint64_t recovery_orphan_blocks_ GUARDED_BY(state_mu_) = 0;
  SignedSnCurrent heartbeat_ GUARDED_BY(state_mu_);
  // Newest epoch cert seen (batch acks); adoption is
  // monotone in the epoch number.
  std::optional<EpochCert> epoch_cert_ GUARDED_BY(state_mu_);
  std::optional<SignedSnBase> base_ GUARDED_BY(state_mu_);
  // Reusable encode buffer for the write committer's batch frames: steady
  // state builds each mailbox frame with zero buffer growth once warm.
  common::ScratchArena encode_scratch_ GUARDED_BY(state_mu_);
  // Admission ids for journaled queued writes (kQueuedWrite / kIntent);
  // atomic so admissions take one without state_mu_.
  std::atomic<std::uint64_t> next_qid_{0};

  // Host-side mirrors of device scheduling state, maintained from command
  // results so the read path and deadline_pressure() never cross the
  // mailbox (§4.2.2: reads are main-CPU only).
  Sn sn_current_mirror_ GUARDED_BY(state_mu_) = 0;
  Sn sn_base_mirror_ GUARDED_BY(state_mu_) = 1;
  std::uint64_t deferred_mirror_count_ GUARDED_BY(state_mu_) = 0;
  common::SimTime deferred_mirror_earliest_ GUARDED_BY(state_mu_) =
      common::SimTime::max();
  common::Duration short_sig_lifetime_{};  // deployment parameter

  // Atomics: reads bump these under the shared lock, so plain increments
  // from two readers would race.
  struct OpCounters {
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> read_many_batches{0};
    std::atomic<std::uint64_t> reads_unavailable{0};
    std::atomic<std::uint64_t> expirations{0};
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<std::uint64_t> base_advances{0};
    std::atomic<std::uint64_t> dedup_hits{0};      // served by an existing RD
    std::atomic<std::uint64_t> deferred_shreds{0}; // delayed by live refs
  };
  OpCounters ops_;

  // Dedup state (config_.dedup only): content digest -> shared descriptor,
  // and per-record-id reference counts.
  std::map<common::Bytes, storage::RecordDescriptor> content_index_
      GUARDED_BY(state_mu_);
  std::map<std::uint64_t, std::uint32_t> rd_refs_ GUARDED_BY(state_mu_);

  // Group-commit pipeline; null unless config_.pipeline.enabled. Declared
  // last so it is destroyed — and its committer thread joined — before any
  // member that thread's flush touches. Its unassigned() count is read by
  // the read path (under the shared lock) for read-your-writes.
  std::unique_ptr<WritePipeline> pipeline_;
};

/// The insider adversary's surface (§2.1 threat model: Mallory owns the
/// machine). Constructing one is the explicit, greppable act of stepping
/// outside the honest API — nothing on WormStore itself hands out mutable
/// host soft-state any more. Used by src/adversary and the adversary tests;
/// production code has no business instantiating it.
class InsiderHandle {
 public:
  explicit InsiderHandle(WormStore& store) : store_(store) {}

  /// Mutable access to the host's VRDT — the soft state an insider can
  /// rewrite at will (and the SCPU witnesses exist to catch). Reads answer
  /// from this table itself, so the next read serves whatever she wrote.
  /// Bypasses the store's locks, like any insider write to host memory —
  /// the one deliberate hole in the lock discipline, hence the analysis
  /// opt-out (worm-lint keeps its constructor greppable instead).
  [[nodiscard]] Vrdt& vrdt() NO_THREAD_SAFETY_ANALYSIS {
    return store_.vrdt_;
  }

 private:
  WormStore& store_;
};

}  // namespace worm::core
