// Session-scoped access to a WormStore: one authenticated principal and one
// (lazily built) ClientVerifier. This is the API both tenants of the store
// use —
//   * in-process callers construct one directly (examples/ all do) and get
//     principal-tagged operations plus freshness and verification helpers
//     without hand-wiring a ClientVerifier from store.anchors();
//   * the network server builds one per authenticated connection and runs
//     every request through it — src/server/ never touches the store type
//     itself (worm_lint rule server-store-isolation), so the session layer
//     is the single choke point where a principal meets the store.
//
// Freshness (§4.2.1 (ii)) is the store's state, not the session's: the
// store holds the newest S_s(SN_current) and epoch cert, whoever caused
// them — a heartbeat alarm, another session's write, a refresh. watermark()
// and epoch_cert() read them, fresh() judges the newer of the two against
// the caller's trusted clock, and refresh() forces a new attestation over
// the mailbox. The server forwards what the store holds to its client
// per-response, giving remote clients the same amortized freshness an
// in-process reader gets.
//
// A session is NOT internally synchronized: it is one principal's handle
// (one connection, one thread). Concurrency happens across sessions — the
// store underneath is the thread-safe object.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "worm/client_verifier.hpp"
#include "worm/worm_store.hpp"

namespace worm::core {

/// HMAC-SHA256 session token binding `principal` to the shared secret.
/// Deployment would mint these out of band (the paper's regulator channel);
/// here the server's auth registry holds the per-principal secret.
[[nodiscard]] common::Bytes mint_session_token(common::ByteView secret,
                                               std::string_view principal);

/// Constant-time token check (common::ct_equal — no length/early-exit oracle).
[[nodiscard]] bool check_session_token(common::ByteView secret,
                                       std::string_view principal,
                                       common::ByteView token);

class WormSession {
 public:
  /// `trusted_time` is the principal's synchronized clock — the thing
  /// freshness is judged against; it also feeds the session's verifier.
  /// The store must outlive the session.
  WormSession(WormStore& store, std::string principal,
              const common::TimeSource& trusted_time);

  WormSession(const WormSession&) = delete;
  WormSession& operator=(const WormSession&) = delete;

  [[nodiscard]] const std::string& principal() const { return principal_; }

  // --- operations (forwarded to the store) ---------------------------------

  [[nodiscard]] ReadOutcome read(Sn sn);
  [[nodiscard]] std::vector<ReadOutcome> read_many(const std::vector<Sn>& sns);
  [[nodiscard]] Sn write(const WriteRequest& request);
  [[nodiscard]] WriteTicket write_async(WriteRequest request);
  /// Non-blocking admission; nullopt = pipeline at capacity (kBusy).
  [[nodiscard]] std::optional<WriteTicket> try_write_async(
      WriteRequest request);
  void lit_hold(const LitigationRequest& request);
  void lit_release(const LitigationRequest& request);

  /// True when the store runs the group-commit pipeline (async admission
  /// available); the server refuses writes over the wire otherwise.
  [[nodiscard]] bool async_capable() const;
  /// The SN the store will assign to the next admitted write — what the
  /// server checks a v4 sequenced write's expected_sn against. See
  /// WormStore::next_sn for the (benign) snapshot caveat.
  [[nodiscard]] Sn next_sn() const;
  /// Forwarded pipeline drain (see WormStore).
  void drain_writes();

  /// The underlying store's named counters (WormStore::counters). This is
  /// the session-layer (and therefore cluster-layer) path to store metrics:
  /// the shard router aggregates them through its sessions without ever
  /// naming the store type.
  [[nodiscard]] std::map<std::string_view, std::uint64_t> counters() const;

  // --- freshness ----------------------------------------------------------

  /// The store's latest S_s(SN_current) (invalid sn and no signature before
  /// the store ever held one). Returned by value: the heartbeat alarm and
  /// other sessions' operations replace the store's copy concurrently.
  [[nodiscard]] SignedSnCurrent watermark() const {
    return store_.latest_heartbeat();
  }

  /// The store's latest EpochCert (nullopt before its firmware ever stamped
  /// one). The cert is the amortized freshness carrier: one signature covers
  /// every read inside its epoch interval.
  [[nodiscard]] std::optional<EpochCert> epoch_cert() const {
    return store_.latest_epoch_cert();
  }

  /// Freshness check helper: is the newest attestation the store holds —
  /// watermark or epoch cert, whichever was stamped later — recent enough,
  /// by this session's trusted clock, to satisfy `max_age` (typically
  /// TrustAnchors::sn_current_max_age)?
  [[nodiscard]] bool fresh(common::Duration max_age) const;

  /// Forces a fresh attestation over the mailbox (the store keeps it as its
  /// latest). On a degraded store this returns the last one ever stamped.
  SignedSnCurrent refresh();

  /// The store's configured freshness horizon (sn_current_max_age) — the
  /// max_age callers should pass fresh() when they have no tighter bound.
  [[nodiscard]] common::Duration freshness_horizon() const {
    return store_.freshness_horizon();
  }

  // --- verification --------------------------------------------------------

  /// The session's verifier against the store's trust anchors (fetched once,
  /// on first use — an anchors() mailbox crossing).
  [[nodiscard]] ClientVerifier& verifier();

  struct VerifiedRead {
    ReadOutcome outcome;
    Outcome verdict;
  };
  /// read() + verify_read() in one step, for in-process callers who want
  /// the checked answer (remote clients verify on their own side instead).
  [[nodiscard]] VerifiedRead verified_read(Sn sn);

 private:
  WormStore& store_;
  std::string principal_;
  const common::TimeSource& time_;
  std::unique_ptr<ClientVerifier> verifier_;
};

}  // namespace worm::core
