// Client-side verification (the "Bob"/federal-investigator role). Clients
// trust only the SCPU public-key certificates and a (roughly) synchronized
// time source (§4.2.2 footnote); everything the storage server hands them is
// checked against those anchors. The verdicts below are the paper's §4.1
// client assurances made executable: on a successful read, "the block was
// not tampered with"; on a failed read, either "deleted according to its
// retention policy" or "never existed in this store" — anything else is
// evidence of tampering.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "worm/proofs.hpp"
#include "worm/sig_memo.hpp"
#include "worm/worm_store.hpp"

namespace worm::core {

enum class Verdict : std::uint8_t {
  /// Data and attributes authentic under an SCPU signature.
  kAuthentic = 0,
  /// Absence proven: rightful end-of-retention deletion.
  kDeletedVerified = 1,
  /// Absence proven: the SN was never allocated.
  kNeverExistedVerified = 2,
  /// The record carries only an HMAC witness: integrity cannot be verified
  /// by the client until the SCPU upgrades it (§4.3 "HMACs"). Not evidence
  /// of tampering, but not yet an assurance either.
  kUnverifiableYet = 3,
  /// A proof was presented but is stale (replayed old S_s(SN_current) /
  /// expired S_s(SN_base)) — treat as hostile until refreshed.
  kStaleProof = 4,
  /// Verification failed: the store's answer is cryptographically wrong.
  kTampered = 5,
  /// The store answered ReadUnavailable (transient fault or degraded mode):
  /// no proof, but no forged proof either. Unavailability is never evidence
  /// of tampering (Theorem 1 convicts wrong answers, not absent ones) —
  /// retry, or escalate through channels outside the protocol.
  kUnavailable = 6,
};

const char* to_string(Verdict v);

struct Outcome {
  Verdict verdict = Verdict::kTampered;
  std::string detail;

  [[nodiscard]] bool trustworthy() const {
    return verdict == Verdict::kAuthentic ||
           verdict == Verdict::kDeletedVerified ||
           verdict == Verdict::kNeverExistedVerified;
  }
};

class ClientVerifier {
 public:
  /// `trusted_time` is the client's synchronized clock, used for freshness
  /// checks on timestamped proofs. Every verifier gets its own signature
  /// memo by default; pass a shared one to pool memoized verifications
  /// across verifiers (e.g. many auditor threads over one store).
  ///
  /// Construction does the per-anchor work once: it prepares the meta and
  /// deletion keys, checks each short-key certificate's signature under the
  /// meta key, and parses and prepares each certificate's key. A
  /// certificate whose signature fails or whose key bytes do not parse does
  /// not make construction throw; every signature under its key id reads
  /// kTampered. The key-id match, the certificate's validity window and
  /// every freshness check still run on each call.
  ClientVerifier(TrustAnchors anchors, const common::TimeSource& trusted_time,
                 std::shared_ptr<SigVerifyMemo> memo = nullptr);

  /// The memo's hit/miss counts (how much RSA work repetition saved).
  [[nodiscard]] SigMemoStats memo_stats() const { return memo_->stats(); }

  /// Full read-response verification for a request of `requested` SN.
  [[nodiscard]] Outcome verify_read(Sn requested,
                                    const ReadOutcome& result) const;

  // Individual checks (composable; verify_read is built from these).

  /// VRD signatures + payload hash against the VRD's data_hash.
  [[nodiscard]] Outcome verify_vrd(
      const Vrd& vrd, const std::vector<common::Bytes>& payloads) const;

  [[nodiscard]] bool verify_deletion_proof(const DeletionProof& proof) const;
  [[nodiscard]] Outcome verify_base(const SignedSnBase& base,
                                    Sn requested) const;
  [[nodiscard]] Outcome verify_current(const SignedSnCurrent& current,
                                       Sn requested) const;
  [[nodiscard]] Outcome verify_window(const DeletedWindow& window,
                                      Sn requested) const;

  /// Verifies an epoch attestation certificate. Non-const: the verifier
  /// remembers the highest epoch (and its SN_current) it has accepted, so a
  /// later presentation of an earlier epoch is convicted as replay and a
  /// same-or-later epoch covering a *smaller* SN_current is convicted as
  /// rollback. The signature check itself is memoized, so steady-state
  /// re-verification of the cached cert costs one map lookup, not one RSA op.
  [[nodiscard]] Outcome verify_epoch_cert(const EpochCert& cert);

  /// Checks a short-term key certificate's signature under the meta key.
  [[nodiscard]] bool verify_short_cert(const ShortKeyCert& cert) const;

 private:
  /// One anchored short-term key, as construction left it.
  struct ShortKey {
    std::uint32_t key_id = 0;
    common::SimTime valid_until{};
    // Empty when the meta key does not sign the certificate or its key
    // bytes do not parse.
    std::optional<crypto::PreparedRsaKey> key;
  };

  [[nodiscard]] Outcome verify_sigbox(const SigBox& box,
                                      common::ByteView payload) const;

  const common::TimeSource& time_;
  // Memoizes only the pure signature check; every time-dependent check
  // (cert validity, proof freshness) runs on each call regardless.
  std::shared_ptr<SigVerifyMemo> memo_;
  crypto::PreparedRsaKey meta_key_;
  crypto::PreparedRsaKey deletion_key_;
  std::vector<ShortKey> short_keys_;  // in anchor order; the first match wins
  common::Duration sn_current_max_age_;
  common::Duration short_sig_acceptance_;
  // High-water marks for verify_epoch_cert's monotonicity checks.
  std::uint64_t last_epoch_ = 0;
  Sn last_epoch_sn_ = 0;
};

}  // namespace worm::core
