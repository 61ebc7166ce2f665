// ClusterClient: the cluster-first public surface. Speaks the v4 frame
// protocol to every replica of every shard — n independent WormServer
// processes per shard, each fronting its own SCPU-backed store — and gives
// callers quorum-checked results instead of single-server answers:
//
//  * writes are client-sequenced: the client keeps a per-shard SN cursor
//    (learned from the replicas' own kSnMismatch counter-offers — the
//    (f+1)-th largest report, so f liars cannot steer it), stamps every
//    kWrite with expected_sn, and counts acks only from replicas that
//    committed at exactly that slot against the masking-quorum write
//    threshold (cluster/quorum.hpp). SN assignment is therefore
//    deterministic across replicas, a retry can never double-commit, and a
//    replica that fell behind is detected (it answers kSnMismatch with a
//    lower next) and repaired in place by backfilling the missing records
//    from quorum reads;
//  * one sequencing client per shard: the cursor protocol serializes one
//    writer's own retries, not two writers racing each other. Deployments
//    enforce it with ServerConfig::writer_principal (replicas refuse kWrite
//    from anyone else); even unenforced, a race is loud — the commit-time
//    expected_sn guard answers kSnMismatch, never a silent divergence;
//  * reads collect every replica's self-certifying envelope, verify each
//    against THAT replica's own trust anchors (independent SCPUs — the
//    signatures legitimately differ), and accept only content on which at
//    least f+1 verified replicas agree. A tampered replica is outvoted and
//    convicted: its verdict and detail come back in the result so the
//    operator can eject it;
//  * routing headers (map version + shard id) are stamped on every frame;
//    a kStaleRoute rejection triggers a shard-map refresh and a bounded
//    retry. A refreshed map is adopted only when its envelope verifies
//    under the operator's signing key (ClusterConfig::map_key) AND its
//    version is strictly newer — a Byzantine replica can force the refresh
//    but cannot forge the rollout or roll the client back;
//  * per-shard freshness: the newest POSITIVELY verified S_s(SN_current)
//    watermark seen from each shard's replicas is tracked separately —
//    shards have independent SCPUs, so there is no single cluster
//    watermark.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/quorum.hpp"
#include "cluster/shard_map.hpp"
#include "server/client/worm_client.hpp"
#include "worm/client_verifier.hpp"

namespace worm::cluster {

/// One replica endpoint plus the trust anchors of ITS SCPU (obtained out of
/// band, like every verifier's anchors; the server is untrusted transport).
struct ReplicaEndpoint {
  server::ClientConfig client;
  core::TrustAnchors anchors;
};

/// The n replicas of one shard.
struct ShardReplicaSet {
  ShardId shard = 0;
  std::vector<ReplicaEndpoint> replicas;
};

struct ClusterConfig {
  /// The client's initial view of the partitioning (trusted by fiat, like
  /// the trust anchors: it arrives out of band from the operator). Refreshed
  /// over the wire on kStaleRoute; its version is stamped on every routed
  /// frame.
  ShardMap map;
  /// The operator's shard-map signing key. Replicas are untrusted transport
  /// for routing exactly as for records: a refreshed map is adopted only if
  /// its envelope verifies under this key AND its version is strictly newer
  /// than the current one. Required — the constructor refuses an unset key.
  crypto::RsaPublicKey map_key;
  /// Replication parameters, uniform across shards. quorum.n must equal
  /// each shard's replica count.
  QuorumParams quorum;
  std::vector<ShardReplicaSet> shards;
};

/// A replica whose answer failed verification against its own anchors: the
/// quorum masked it, this records it.
struct ReplicaConviction {
  ShardId shard = 0;
  std::uint32_t replica = 0;  // index within the shard's replica set
  core::Verdict verdict = core::Verdict::kTampered;
  std::string detail;
};

/// Outcome of a quorum write. `ok` requires write_quorum() distinct replicas
/// acking the write at the same client-chosen SN (the v4 expected_sn
/// condition — replicas refuse any other slot with kSnMismatch, so retries
/// never double-commit and replicas never diverge on what SN holds what).
/// `busy` means at least one replica pushed back (kBusy) and the caller
/// should pace before retrying. `repaired` counts records backfilled into
/// lagging replicas after the quorum landed.
struct QuorumWrite {
  bool ok = false;
  bool busy = false;
  core::Sn sn = core::kInvalidSn;  // GLOBAL SN once ok
  std::uint32_t acks = 0;
  std::uint32_t repaired = 0;
  std::string message;
  /// Convictions recorded by the quorum reads the laggard repair path
  /// issued (empty when no repair ran).
  std::vector<ReplicaConviction> convictions;
};

/// Outcome of a quorum read: the agreed outcome (Unavailable when no f+1
/// verified agreement exists), the verdict that verified the winning
/// envelope, how many replicas agreed, and every conviction recorded along
/// the way.
struct QuorumRead {
  core::ReadOutcome outcome;
  core::Outcome verdict;
  std::uint32_t agreeing = 0;
  std::vector<ReplicaConviction> convictions;

  [[nodiscard]] bool trustworthy() const { return verdict.trustworthy(); }
};

class ClusterClient {
 public:
  /// Connects and authenticates to every replica of every shard. Throws
  /// common::PreconditionError on invalid quorum parameters or a replica
  /// set whose size differs from quorum.n; NetError/auth errors propagate
  /// from the underlying clients.
  ClusterClient(ClusterConfig config, const common::TimeSource& trusted_time);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] const QuorumParams& quorum() const { return quorum_; }

  /// Sequenced quorum write, round-robin across shards that are non-empty,
  /// configured, and not at capacity. Establishes the shard's SN cursor
  /// (probe) on first touch, retries through cursor corrections and at most
  /// one verified shard-map refresh, and backfills lagging replicas once
  /// the quorum lands. Never re-issues a write whose quorum already
  /// succeeded.
  [[nodiscard]] QuorumWrite write(const core::WriteRequest& request);

  /// Quorum read of a global SN: read_many() of that one SN. Routing
  /// errors (no shard owns the SN) throw common::PreconditionError; replica
  /// misbehavior never throws — it shows up as convictions and, without
  /// quorum, an Unavailable outcome.
  [[nodiscard]] QuorumRead read(core::Sn global_sn);

  /// Quorum reads of many global SNs: one batched fan-out per shard, and
  /// at most one verified shard-map refresh for the whole set.
  [[nodiscard]] std::vector<QuorumRead> read_many(
      const std::vector<core::Sn>& global_sns);

  /// Re-fetches the shard map from the cluster: adopts the first replica
  /// answer whose envelope verifies under the operator key and whose
  /// version is strictly newer than the current map, then re-stamps every
  /// connection's routing header. Returns true when a map was adopted,
  /// false when replicas answered but none offered a verified newer map;
  /// throws common::PreconditionError when no replica answered at all.
  bool refresh_map();

  /// Newest verified S_s(SN_current) seen from `shard`'s replicas (nullopt
  /// before any verified attestation arrived).
  [[nodiscard]] std::optional<core::SignedSnCurrent> watermark(
      ShardId shard) const;

 private:
  struct Replica {
    std::unique_ptr<server::WormClient> client;
    std::unique_ptr<core::ClientVerifier> verifier;
  };
  struct Shard {
    ShardId id = 0;
    std::vector<Replica> replicas;
    std::optional<core::SignedSnCurrent> watermark;
    /// Local SN the next sequenced write targets. 0 = unknown: probe the
    /// replicas (a never-matching expected_sn) and adopt the (f+1)-th
    /// largest counter-offer before committing anything.
    core::Sn next_write = 0;
  };

  /// One fan-out of a sequenced write at a fixed expected SN: which replica
  /// indices acked that exact slot, which counter-offered what, and the
  /// flow-control flags.
  struct WriteAttempt {
    std::vector<std::uint32_t> acked;
    std::vector<std::pair<std::uint32_t, core::Sn>> mismatches;
    bool stale = false;
    bool busy = false;
    std::string message;
  };

  [[nodiscard]] Shard& shard_for(ShardId id);
  /// Round-robin pick over shards that own SNs, have a configured replica
  /// set, and are not past their mapped span. Null when nothing qualifies.
  [[nodiscard]] Shard* pick_shard();
  [[nodiscard]] WriteAttempt write_once(Shard& shard,
                                        const core::WriteRequest& request,
                                        core::Sn expected);
  /// The (f+1)-th largest next-SN the attempt's mismatching replicas
  /// reported (at most f replicas can lie, so that value is vouched for by
  /// at least one honest replica). Falls back to `expected` when fewer than
  /// f+1 replicas counter-offered — too few honest witnesses to move on.
  [[nodiscard]] core::Sn cursor_from_mismatches(const WriteAttempt& attempt,
                                                core::Sn expected) const;
  /// Backfills every replica that reported a next-SN below the just-
  /// committed slot: missing records are reconstructed from quorum reads
  /// (trustworthy f+1 agreement only) and re-written to the laggard under
  /// the same sequencing condition, ending with the record at `committed`.
  /// Returns the number of records landed; convictions recorded along the
  /// way are appended to `convictions`.
  std::uint32_t repair_laggards(Shard& shard, const WriteAttempt& attempt,
                                core::Sn committed,
                                const core::WriteRequest& request,
                                std::vector<ReplicaConviction>& convictions);
  /// One quorum fan-out for a whole batch of local SNs: each replica is
  /// asked once over the pipelined kReadBatch wire path (one window of
  /// frames instead of one RTT per SN), then every slot is independently
  /// verified against that replica's own anchors and voted per-slot — a
  /// Byzantine replica is convicted per slot while its honest siblings'
  /// slots still count. Every quorum read routes through here, a single SN
  /// as a batch of one: the batch is transport, not trust.
  [[nodiscard]] std::vector<QuorumRead> read_batch_once(
      Shard& shard, const std::vector<core::Sn>& local_sns, bool& stale);
  /// Adopts a replica's forwarded attestation into the shard watermark
  /// after verifying it against that replica's anchors.
  void adopt_watermark(Shard& shard, Replica& replica);
  void restamp_routes();

  ShardMap map_;
  crypto::RsaPublicKey map_key_;
  QuorumParams quorum_;
  std::vector<Shard> shards_;
  std::size_t next_shard_ = 0;  // round-robin write cursor
};

}  // namespace worm::cluster
