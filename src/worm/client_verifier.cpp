#include "worm/client_verifier.hpp"

#include "common/error.hpp"
#include "crypto/chained_hash.hpp"
#include "crypto/rsa.hpp"
#include "worm/envelopes.hpp"

namespace worm::core {

using common::Bytes;
using common::ByteView;

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kAuthentic:
      return "authentic";
    case Verdict::kDeletedVerified:
      return "deleted-verified";
    case Verdict::kNeverExistedVerified:
      return "never-existed-verified";
    case Verdict::kUnverifiableYet:
      return "unverifiable-yet";
    case Verdict::kStaleProof:
      return "stale-proof";
    case Verdict::kTampered:
      return "TAMPERED";
    case Verdict::kUnavailable:
      return "unavailable";
  }
  return "?";
}

ClientVerifier::ClientVerifier(TrustAnchors anchors,
                               const common::TimeSource& trusted_time,
                               std::shared_ptr<SigVerifyMemo> memo)
    : time_(trusted_time),
      memo_(memo != nullptr ? std::move(memo)
                            : std::make_shared<SigVerifyMemo>()),
      meta_key_(std::move(anchors.meta_key)),
      deletion_key_(std::move(anchors.deletion_key)),
      sn_current_max_age_(anchors.sn_current_max_age),
      short_sig_acceptance_(anchors.short_sig_acceptance) {
  short_keys_.reserve(anchors.short_certs.size());
  for (const ShortKeyCert& cert : anchors.short_certs) {
    ShortKey& sk = short_keys_.emplace_back();
    sk.key_id = cert.key_id;
    sk.valid_until = cert.valid_until;
    if (!verify_short_cert(cert)) continue;
    try {
      sk.key.emplace(crypto::RsaPublicKey::deserialize(cert.pubkey));
    } catch (const common::ParseError&) {
      // Left empty, like a forged certificate's.
    }
  }
}

bool ClientVerifier::verify_short_cert(const ShortKeyCert& cert) const {
  return memo_->verify(
      meta_key_,
      short_key_cert_payload(cert.key_id, cert.bits, cert.pubkey,
                             cert.valid_from, cert.valid_until),
      cert.sig);
}

Outcome ClientVerifier::verify_sigbox(const SigBox& box,
                                      ByteView payload) const {
  switch (box.kind) {
    case SigKind::kStrong:
      if (memo_->verify(meta_key_, payload, box.value)) {
        return {Verdict::kAuthentic, ""};
      }
      return {Verdict::kTampered, "strong signature invalid"};
    case SigKind::kShortTerm: {
      for (const ShortKey& sk : short_keys_) {
        if (sk.key_id != box.key_id) continue;
        if (!sk.key.has_value()) {
          return {Verdict::kTampered,
                  "short-key certificate forged or malformed"};
        }
        // §4.3: a short-lived construct is acceptable only within its
        // security lifetime, measured from the key's validity window.
        if (time_.now() > sk.valid_until + short_sig_acceptance_) {
          return {Verdict::kStaleProof,
                  "short-lived signature past its security lifetime and "
                  "never strengthened"};
        }
        if (memo_->verify(*sk.key, payload, box.value)) {
          return {Verdict::kAuthentic, ""};
        }
        return {Verdict::kTampered, "short-term signature invalid"};
      }
      return {Verdict::kTampered, "unknown short-term key epoch"};
    }
    case SigKind::kHmac:
      // Only the SCPU holds the MAC key; the client must wait for the
      // idle-time upgrade (§4.3 "HMACs").
      return {Verdict::kUnverifiableYet,
              "record carries an HMAC witness; not yet client-verifiable"};
  }
  return {Verdict::kTampered, "unknown signature kind"};
}

Outcome ClientVerifier::verify_vrd(const Vrd& vrd,
                                   const std::vector<Bytes>& payloads) const {
  if (vrd.sn == kInvalidSn) return {Verdict::kTampered, "invalid SN"};
  if (payloads.size() != vrd.rdl.size()) {
    return {Verdict::kTampered, "payload count does not match RDL"};
  }
  // Recompute the chained content hash over the returned data.
  crypto::ChainedHash chain;
  for (const auto& p : payloads) chain.add(p);
  if (chain.digest_bytes() != vrd.data_hash) {
    return {Verdict::kTampered, "data does not match the witnessed hash"};
  }
  Outcome meta = verify_sigbox(vrd.metasig, metasig_payload(vrd.sn, vrd.attr));
  if (meta.verdict != Verdict::kAuthentic) {
    if (meta.detail.empty()) meta.detail = "metasig";
    return meta;
  }
  Outcome data =
      verify_sigbox(vrd.datasig, datasig_payload(vrd.sn, vrd.data_hash));
  if (data.verdict != Verdict::kAuthentic) {
    if (data.detail.empty()) data.detail = "datasig";
    return data;
  }
  return {Verdict::kAuthentic, ""};
}

bool ClientVerifier::verify_deletion_proof(const DeletionProof& proof) const {
  return memo_->verify(deletion_key_,
                       deletion_proof_payload(proof.sn, proof.deleted_at),
                       proof.sig);
}

Outcome ClientVerifier::verify_base(const SignedSnBase& base,
                                    Sn requested) const {
  if (!memo_->verify(
          meta_key_,
          sn_base_payload(base.sn_base, base.stamped_at, base.expires_at),
          base.sig)) {
    return {Verdict::kTampered, "SN_base signature invalid"};
  }
  if (time_.now() > base.expires_at) {
    // Replay of an old base to pretend a record was long deleted (§4.2.1).
    return {Verdict::kStaleProof, "S_s(SN_base) expired; demand a fresh one"};
  }
  if (requested >= base.sn_base) {
    return {Verdict::kTampered,
            "requested SN is not below the proven base window"};
  }
  return {Verdict::kDeletedVerified, "below SN_base: rightfully deleted"};
}

Outcome ClientVerifier::verify_current(const SignedSnCurrent& current,
                                       Sn requested) const {
  if (!memo_->verify(
          meta_key_,
          sn_current_payload(current.sn_current, current.stamped_at),
          current.sig)) {
    return {Verdict::kTampered, "SN_current signature invalid"};
  }
  // §4.2.1 mechanism (ii): reject stamps older than a few minutes — the
  // defense against hiding recent records behind an old S_s(SN_current).
  if (time_.now() - current.stamped_at > sn_current_max_age_) {
    return {Verdict::kStaleProof,
            "S_s(SN_current) stamp too old; possible record hiding"};
  }
  if (requested <= current.sn_current) {
    return {Verdict::kTampered,
            "requested SN was allocated but the store claims it was not"};
  }
  return {Verdict::kNeverExistedVerified, "above SN_current: never stored"};
}

Outcome ClientVerifier::verify_epoch_cert(const EpochCert& cert) {
  if (!memo_->verify(meta_key_,
                     epoch_cert_payload(cert.epoch, cert.sn_current,
                                        cert.stamped_at),
                     cert.sig)) {
    return {Verdict::kTampered, "epoch cert signature invalid"};
  }
  // Same freshness horizon as S_s(SN_current): an authentic-but-old cert is
  // exactly the record-hiding replay §4.2.1 (ii) defends against.
  if (time_.now() - cert.stamped_at > sn_current_max_age_) {
    return {Verdict::kStaleProof,
            "epoch cert stamp too old; possible record hiding"};
  }
  // The epoch counter is battery-backed and strictly monotone in the
  // firmware, so a lower epoch than one we already accepted is a replay...
  if (cert.epoch < last_epoch_) {
    return {Verdict::kStaleProof,
            "epoch cert older than one already verified; replay"};
  }
  // ...and a same-or-later epoch whose SN_current moved *backwards* means
  // the store is trying to un-allocate records: conviction, not staleness.
  if (cert.sn_current < last_epoch_sn_) {
    return {Verdict::kTampered,
            "epoch cert rolls SN_current backwards; record hiding"};
  }
  last_epoch_ = cert.epoch;
  last_epoch_sn_ = cert.sn_current;
  return {Verdict::kAuthentic, ""};
}

Outcome ClientVerifier::verify_window(const DeletedWindow& window,
                                      Sn requested) const {
  // Both bounds must verify AND carry the same window id — the correlation
  // that stops the main CPU splicing bounds of unrelated windows (§4.2.1).
  bool lo_ok = memo_->verify(
      meta_key_,
      window_bound_payload(false, window.window_id, window.lo,
                           window.created_at),
      window.sig_lo);
  bool hi_ok = memo_->verify(
      meta_key_,
      window_bound_payload(true, window.window_id, window.hi,
                           window.created_at),
      window.sig_hi);
  if (!lo_ok || !hi_ok) {
    return {Verdict::kTampered, "deleted-window bounds invalid or spliced"};
  }
  if (!window.contains(requested)) {
    return {Verdict::kTampered, "requested SN outside the proven window"};
  }
  return {Verdict::kDeletedVerified, "inside a certified deleted window"};
}

Outcome ClientVerifier::verify_read(Sn requested,
                                    const ReadOutcome& result) const {
  if (const auto* ok = result.get_if<ReadOk>()) {
    if (ok->vrd.sn != requested) {
      return {Verdict::kTampered, "store answered with a different SN"};
    }
    return verify_vrd(ok->vrd, ok->payloads);
  }
  if (const auto* del = result.get_if<ReadDeleted>()) {
    if (del->proof.sn != requested) {
      return {Verdict::kTampered, "deletion proof names a different SN"};
    }
    if (!verify_deletion_proof(del->proof)) {
      return {Verdict::kTampered, "deletion proof signature invalid"};
    }
    return {Verdict::kDeletedVerified, "deletion proof verified"};
  }
  if (const auto* below = result.get_if<ReadBelowBase>()) {
    return verify_base(below->base, requested);
  }
  if (const auto* nyet = result.get_if<ReadNotAllocated>()) {
    return verify_current(nyet->current, requested);
  }
  if (const auto* win = result.get_if<ReadInDeletedWindow>()) {
    return verify_window(win->window, requested);
  }
  if (const auto* gone = result.get_if<ReadUnavailable>()) {
    // No proof came back, but no *wrong* proof either. A store that stays
    // unavailable forever is a compliance failure, not a cryptographic one.
    return {Verdict::kUnavailable,
            std::string(gone->retryable ? "transient: " : "permanent: ") +
                gone->reason};
  }
  if (const auto* fail = result.get_if<ReadFailure>()) {
    return {Verdict::kTampered, "store produced no proof: " + fail->reason};
  }
  return {Verdict::kTampered, "unrecognized response"};
}

}  // namespace worm::core
