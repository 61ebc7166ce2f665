#include "worm/firmware.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "crypto/chained_hash.hpp"
#include "crypto/hmac.hpp"
#include "scpu/key_cache.hpp"
#include "worm/envelopes.hpp"

namespace worm::core {

using common::Bytes;
using common::ByteView;
using common::Duration;
using common::ScpuError;
using common::SimTime;

namespace {
// Seed tweaks so one device seed yields independent keys per role.
constexpr std::uint64_t kStrongKeyTweak = 0x73u;   // 's'
constexpr std::uint64_t kDeletionKeyTweak = 0x64u; // 'd'
constexpr std::uint64_t kShortKeyTweak = 0x740000u;
}  // namespace

Firmware::Firmware(scpu::ScpuDevice& device, FirmwareConfig config,
                   crypto::RsaPublicKey regulator_pub)
    : dev_(device),
      config_(std::move(config)),
      regulator_pub_(std::move(regulator_pub)),
      drbg_(config_.seed) {
  // Long-term keys are installed at deployment time (the 4764 ships with
  // pre-generated key material), so construction charges no simulated time.
  strong_key_ =
      &scpu::cached_rsa_key(config_.seed ^ kStrongKeyTweak, kStrongBits);
  deletion_key_ = &scpu::cached_rsa_key(config_.seed ^ kDeletionKeyTweak,
                                        kDeletionBits);
  hmac_key_ = drbg_.bytes(32);

  // First short-term key epoch.
  ShortKey sk;
  sk.key = scpu::cached_rsa_key(config_.seed ^ kShortKeyTweak,
                                config_.short_bits);
  sk.bits = static_cast<std::uint32_t>(config_.short_bits);
  sk.valid_from = dev_.now();
  sk.valid_until = dev_.now() + config_.short_key_rotation;
  current_short_id_ = 1;
  short_keys_.emplace(current_short_id_, std::move(sk));

  hb_alarm_ = dev_.clock().schedule_after(config_.heartbeat_interval,
                                          [this] { heartbeat_fire(); });
}

Firmware::~Firmware() {
  dev_.clock().cancel(hb_alarm_);
  if (rm_scheduled_) dev_.clock().cancel(rm_alarm_);
}

// Command/DMA round-trip costs are charged by the transport (ScpuChannel)
// from the actual wire encodings, not estimated here — see commands.cpp.

Bytes Firmware::sign_with(const crypto::RsaPrivateKey& key, ByteView payload,
                          std::size_t bits) {
  dev_.charge(dev_.cost().sign_cost(bits));
  return crypto::rsa_sign(key, payload);
}

crypto::RsaPublicKey Firmware::meta_public_key() const {
  dev_.ensure_alive();
  return strong_key_->public_key();
}

crypto::RsaPublicKey Firmware::deletion_public_key() const {
  dev_.ensure_alive();
  return deletion_key_->public_key();
}

std::vector<ShortKeyCert> Firmware::short_key_certs() const {
  dev_.ensure_alive();
  std::vector<ShortKeyCert> certs;
  // Each certificate is a fresh strong signature (rare: clients fetch
  // anchors at session setup, not per read).
  dev_.charge(dev_.cost().sign_cost(kStrongBits) *
              static_cast<std::int64_t>(short_keys_.size()));
  for (const auto& [id, sk] : short_keys_) {
    ShortKeyCert c;
    c.key_id = id;
    c.bits = sk.bits;
    c.pubkey = sk.key.public_key().serialize();
    c.valid_from = sk.valid_from;
    c.valid_until = sk.valid_until;
    c.sig = crypto::rsa_sign(
        *strong_key_, short_key_cert_payload(c.key_id, c.bits, c.pubkey,
                                             c.valid_from, c.valid_until));
    certs.push_back(std::move(c));
  }
  return certs;
}

Bytes Firmware::compute_chained_hash(const std::vector<Bytes>& payloads,
                                     bool charge) {
  std::size_t total = 0;
  for (const auto& p : payloads) total += p.size();
  if (charge) {
    dev_.charge(dev_.cost().hash_cost(total, kDataChunk));
  }
  crypto::ChainedHash chain;
  for (const auto& p : payloads) chain.add(p);
  return chain.digest_bytes();
}

const Firmware::ShortKey& Firmware::current_short_key() {
  const ShortKey& cur = short_keys_.at(current_short_id_);
  if (dev_.now() <= cur.valid_until) return cur;
  rotate_short_key();
  return short_keys_.at(current_short_id_);
}

void Firmware::rotate_short_key() {
  ShortKey sk;
  if (spare_short_key_.has_value()) {
    sk.key = std::move(*spare_short_key_);  // pre-generated during idle
    spare_short_key_.reset();
  } else {
    // No spare: the burst outlived the pre-generation budget and the
    // rotation must be paid for inline.
    dev_.charge(dev_.cost().keygen_cost(config_.short_bits));
    sk.key = scpu::cached_rsa_key(
        config_.seed ^ kShortKeyTweak ^ (std::uint64_t{current_short_id_} + 1),
        config_.short_bits);
  }
  sk.bits = static_cast<std::uint32_t>(config_.short_bits);
  sk.valid_from = dev_.now();
  sk.valid_until = dev_.now() + config_.short_key_rotation;
  ++current_short_id_;
  short_keys_.emplace(current_short_id_, std::move(sk));
  ++counters_.key_rotations;
}

// ---------------------------------------------------------------------------
// Write (§4.2.2)
// ---------------------------------------------------------------------------

WriteWitness Firmware::write(const Attr& attr_in,
                             const std::vector<storage::RecordDescriptor>& rdl,
                             const std::vector<Bytes>& payloads,
                             ByteView claimed_hash, WitnessMode mode,
                             HashMode hash_mode) {
  return write_impl(attr_in, rdl, payloads, claimed_hash, mode, hash_mode,
                    /*precomputed_hash=*/nullptr);
}

WriteWitness Firmware::write_impl(
    const Attr& attr_in, const std::vector<storage::RecordDescriptor>& rdl,
    const std::vector<Bytes>& payloads, ByteView claimed_hash,
    WitnessMode mode, HashMode hash_mode, const Bytes* precomputed_hash) {
  dev_.ensure_alive();
  WORM_REQUIRE(attr_in.retention.ns > 0, "Firmware::write: zero retention");
  WORM_REQUIRE(!rdl.empty(), "Firmware::write: empty RDL");

  WriteWitness out;
  out.attr = attr_in;
  out.attr.creation_time = dev_.now();  // SCPU-authoritative timestamp
  out.sn = ++sn_current_;

  if (hash_mode == HashMode::kScpuHash) {
    WORM_REQUIRE(!payloads.empty(),
                 "Firmware::write: kScpuHash requires payloads");
    if (precomputed_hash != nullptr) {
      // Same per-item charge as the sequential path; only the computation
      // was shared across the batch's 4-lane hashing.
      std::size_t total = 0;
      for (const auto& p : payloads) total += p.size();
      dev_.charge(dev_.cost().hash_cost(total, kDataChunk));
      out.data_hash = *precomputed_hash;
    } else {
      out.data_hash = compute_chained_hash(payloads, /*charge=*/true);
    }
  } else {
    WORM_REQUIRE(claimed_hash.size() == 32,
                 "Firmware::write: kHostHash requires a 32-byte claimed hash");
    out.data_hash = common::to_bytes(claimed_hash);
    pending_hash_audits_.emplace(out.sn, out.data_hash);
  }

  Bytes meta_payload = metasig_payload(out.sn, out.attr);
  Bytes data_payload = datasig_payload(out.sn, out.data_hash);

  switch (mode) {
    case WitnessMode::kStrong: {
      out.metasig = {SigKind::kStrong, 0,
                     sign_with(*strong_key_, meta_payload, kStrongBits)};
      out.datasig = {SigKind::kStrong, 0,
                     sign_with(*strong_key_, data_payload, kStrongBits)};
      break;
    }
    case WitnessMode::kDeferred: {
      const ShortKey& sk = current_short_key();
      out.metasig = {SigKind::kShortTerm, current_short_id_,
                     sign_with(sk.key, meta_payload, sk.bits)};
      out.datasig = {SigKind::kShortTerm, current_short_id_,
                     sign_with(sk.key, data_payload, sk.bits)};
      deferred_.push_back({out.sn, dev_.now() + config_.short_sig_lifetime});
      deferred_sns_.insert(out.sn);
      break;
    }
    case WitnessMode::kHmac: {
      dev_.charge(dev_.cost().hmac_cost(meta_payload.size()) +
                  dev_.cost().hmac_cost(data_payload.size()));
      out.metasig = {SigKind::kHmac, 0,
                     crypto::HmacSha256::mac_bytes(hmac_key_, meta_payload)};
      out.datasig = {SigKind::kHmac, 0,
                     crypto::HmacSha256::mac_bytes(hmac_key_, data_payload)};
      deferred_.push_back({out.sn, dev_.now() + config_.short_sig_lifetime});
      deferred_sns_.insert(out.sn);
      break;
    }
  }

  // Records arriving with a live litigation hold (compliant migration)
  // register the hold with this device's retention monitor too.
  if (out.attr.litigation_hold) {
    lit_holds_[out.sn] = out.attr.lit_hold_expiry;
  }

  vexp_insert(out.attr.expiry(), out.sn);

  ++counters_.writes;
  return out;
}

std::vector<WriteWitness> Firmware::write_batch(
    const std::vector<BatchItem>& items, WitnessMode mode, HashMode hash_mode) {
  dev_.ensure_alive();
  WORM_REQUIRE(!items.empty(), "write_batch: empty batch");
  // Admission-check the whole batch before issuing any serial number: a
  // batch is atomic, so a malformed item must not leave a half-witnessed SN
  // range (or stray VEXP entries) behind. These mirror write()'s own
  // preconditions, which therefore cannot fire in the loop below.
  for (const auto& item : items) {
    WORM_REQUIRE(item.attr.retention.ns > 0, "write_batch: zero retention");
    WORM_REQUIRE(!item.rdl.empty(), "write_batch: empty RDL");
    if (hash_mode == HashMode::kScpuHash) {
      WORM_REQUIRE(!item.payloads.empty(),
                   "write_batch: kScpuHash requires payloads");
    } else {
      WORM_REQUIRE(item.claimed_hash.size() == 32,
                   "write_batch: kHostHash requires a 32-byte claimed hash");
    }
  }
  // kScpuHash batches hash their payload chains four at a time (multi-buffer
  // SHA-256); each item still pays exactly the hash cost the sequential path
  // would charge it, and the digests are bit-identical.
  std::vector<Bytes> hashes;
  if (hash_mode == HashMode::kScpuHash) {
    std::vector<const std::vector<Bytes>*> lists;
    lists.reserve(items.size());
    for (const auto& item : items) lists.push_back(&item.payloads);
    std::vector<crypto::Sha256::Digest> digests =
        crypto::ChainedHash::over_many(lists);
    hashes.reserve(digests.size());
    for (const auto& d : digests) hashes.emplace_back(d.begin(), d.end());
  }
  std::vector<WriteWitness> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    out.push_back(write_impl(
        item.attr, item.rdl, item.payloads, item.claimed_hash, mode, hash_mode,
        hash_mode == HashMode::kScpuHash ? &hashes[i] : nullptr));
  }
  roll_epoch_if_due();  // the cert rides this crossing's ack when due
  return out;
}

// ---------------------------------------------------------------------------
// Signature / witness verification inside the enclosure
// ---------------------------------------------------------------------------

bool Firmware::verify_sigbox(const SigBox& box, ByteView payload) {
  switch (box.kind) {
    case SigKind::kStrong:
      dev_.charge(dev_.cost().verify_cost(kStrongBits));
      return crypto::rsa_verify(strong_key_->public_key(), payload, box.value);
    case SigKind::kShortTerm: {
      auto it = short_keys_.find(box.key_id);
      if (it == short_keys_.end()) return false;
      dev_.charge(dev_.cost().verify_cost(it->second.bits));
      return crypto::rsa_verify(it->second.key.public_key(), payload,
                                box.value);
    }
    case SigKind::kHmac: {
      dev_.charge(dev_.cost().hmac_cost(payload.size()));
      Bytes expected = crypto::HmacSha256::mac_bytes(hmac_key_, payload);
      return common::ct_equal(expected, box.value);
    }
  }
  return false;
}

bool Firmware::verify_metasig(const Vrd& vrd) {
  return verify_sigbox(vrd.metasig, metasig_payload(vrd.sn, vrd.attr));
}

bool Firmware::verify_datasig(const Vrd& vrd) {
  return verify_sigbox(vrd.datasig, datasig_payload(vrd.sn, vrd.data_hash));
}

// ---------------------------------------------------------------------------
// Litigation holds (§4.2.2)
// ---------------------------------------------------------------------------

void Firmware::verify_lit_credential(Sn sn, std::uint64_t lit_id,
                                     SimTime issued_at, ByteView credential,
                                     bool hold) {
  if (issued_at > dev_.now()) {
    throw ScpuError("lit credential issued in the future");
  }
  if (dev_.now() - issued_at > kLitCredentialMaxAge) {
    throw ScpuError("lit credential expired");
  }
  dev_.charge(dev_.cost().verify_cost(regulator_pub_.modulus_bits()));
  if (!crypto::rsa_verify(regulator_pub_,
                          lit_credential_payload(sn, issued_at, lit_id, hold),
                          credential)) {
    throw ScpuError("lit credential signature invalid");
  }
}

Firmware::LitUpdate Firmware::lit_hold(const Vrd& vrd, SimTime hold_until,
                                       std::uint64_t lit_id,
                                       SimTime cred_issued_at,
                                       ByteView credential) {
  dev_.ensure_alive();
  verify_lit_credential(vrd.sn, lit_id, cred_issued_at, credential,
                        /*hold=*/true);
  if (!verify_metasig(vrd)) {
    throw ScpuError("lit_hold: VRD metasig invalid");
  }
  WORM_REQUIRE(hold_until > dev_.now(), "lit_hold: hold expires in the past");

  LitUpdate up;
  up.attr = vrd.attr;
  up.attr.litigation_hold = true;
  up.attr.lit_hold_expiry = hold_until;
  up.attr.lit_credential = common::to_bytes(credential);
  up.metasig = {SigKind::kStrong, 0,
                sign_with(*strong_key_, metasig_payload(vrd.sn, up.attr),
                          kStrongBits)};
  lit_holds_[vrd.sn] = hold_until;
  ++counters_.lit_ops;
  return up;
}

Firmware::LitUpdate Firmware::lit_release(const Vrd& vrd, std::uint64_t lit_id,
                                          SimTime cred_issued_at,
                                          ByteView credential) {
  dev_.ensure_alive();
  verify_lit_credential(vrd.sn, lit_id, cred_issued_at, credential,
                        /*hold=*/false);
  if (!verify_metasig(vrd)) {
    throw ScpuError("lit_release: VRD metasig invalid");
  }
  if (!vrd.attr.litigation_hold) {
    throw ScpuError("lit_release: record holds no litigation hold");
  }

  LitUpdate up;
  up.attr = vrd.attr;
  up.attr.litigation_hold = false;
  up.attr.lit_hold_expiry = SimTime{};
  up.attr.lit_credential.clear();
  up.metasig = {SigKind::kStrong, 0,
                sign_with(*strong_key_, metasig_payload(vrd.sn, up.attr),
                          kStrongBits)};
  lit_holds_.erase(vrd.sn);
  // Requeue for deletion: immediately if retention already lapsed.
  SimTime due = std::max(dev_.now(), up.attr.expiry());
  vexp_insert(due, vrd.sn);
  ++counters_.lit_ops;
  return up;
}

// ---------------------------------------------------------------------------
// Window management (§4.2.1)
// ---------------------------------------------------------------------------

SignedSnCurrent Firmware::heartbeat() {
  dev_.ensure_alive();
  SignedSnCurrent s;
  s.sn_current = sn_current_;
  s.stamped_at = dev_.now();
  s.sig = sign_with(*strong_key_,
                    sn_current_payload(s.sn_current, s.stamped_at),
                    kStrongBits);
  ++counters_.heartbeats;
  roll_epoch_if_due();
  return s;
}

void Firmware::roll_epoch_if_due() {
  if (epoch_cert_.has_value() &&
      dev_.now() - epoch_cert_->stamped_at < kEpochInterval) {
    return;
  }
  EpochCert c;
  c.epoch = ++epoch_;
  c.sn_current = sn_current_;
  c.stamped_at = dev_.now();
  c.sig = sign_with(*strong_key_,
                    epoch_cert_payload(c.epoch, c.sn_current, c.stamped_at),
                    kStrongBits);
  epoch_cert_ = std::move(c);
  ++counters_.epoch_certs;
}

EpochCert Firmware::epoch_cert() {
  dev_.ensure_alive();
  roll_epoch_if_due();
  return *epoch_cert_;
}

std::optional<EpochCert> Firmware::epoch_cert_opt() {
  if (dev_.tampered()) return std::nullopt;
  roll_epoch_if_due();
  return epoch_cert_;
}

void Firmware::heartbeat_fire() {
  if (dev_.tampered()) return;
  SignedSnCurrent s = heartbeat();
  if (host_ != nullptr) host_->on_heartbeat(std::move(s));
  hb_alarm_ = dev_.clock().schedule_after(config_.heartbeat_interval,
                                          [this] { heartbeat_fire(); });
}

SignedSnBase Firmware::sign_base() {
  dev_.ensure_alive();
  SignedSnBase s;
  s.sn_base = sn_base_;
  s.stamped_at = dev_.now();
  s.expires_at = dev_.now() + config_.sn_base_validity;
  s.sig = sign_with(*strong_key_,
                    sn_base_payload(s.sn_base, s.stamped_at, s.expires_at),
                    kStrongBits);
  return s;
}

void Firmware::check_deletion_evidence(
    Sn lo, Sn hi, const std::vector<DeletionProof>& proofs,
    const std::vector<DeletedWindow>& windows, const char* op) {
  const std::string prefix = std::string(op) + ": ";
  // Window signatures are verified once, then their ranges count as
  // coverage.
  for (const auto& w : windows) {
    dev_.charge(dev_.cost().verify_cost(kStrongBits) * 2);
    bool ok =
        crypto::rsa_verify(
            strong_key_->public_key(),
            window_bound_payload(false, w.window_id, w.lo, w.created_at),
            w.sig_lo) &&
        crypto::rsa_verify(
            strong_key_->public_key(),
            window_bound_payload(true, w.window_id, w.hi, w.created_at),
            w.sig_hi);
    if (!ok) throw ScpuError(prefix + "invalid window bounds");
  }

  std::map<Sn, const DeletionProof*> by_sn;
  for (const auto& p : proofs) by_sn.emplace(p.sn, &p);
  for (Sn sn = lo; sn <= hi; ++sn) {
    if (auto it = by_sn.find(sn); it != by_sn.end()) {
      dev_.charge(dev_.cost().verify_cost(kDeletionBits));
      if (!crypto::rsa_verify(
              deletion_key_->public_key(),
              deletion_proof_payload(sn, it->second->deleted_at),
              it->second->sig)) {
        throw ScpuError(prefix + "invalid deletion proof");
      }
      continue;
    }
    if (std::none_of(windows.begin(), windows.end(),
                     [sn](const DeletedWindow& w) { return w.contains(sn); })) {
      throw ScpuError(prefix + "SN " + std::to_string(sn) +
                      " not proven deleted");
    }
  }
}

SignedSnBase Firmware::advance_base(Sn new_base,
                                    const std::vector<DeletionProof>& proofs,
                                    const std::vector<DeletedWindow>& windows) {
  dev_.ensure_alive();
  WORM_REQUIRE(new_base > sn_base_, "advance_base: base may only move up");
  WORM_REQUIRE(new_base <= sn_current_ + 1,
               "advance_base: base beyond allocated SNs");
  check_deletion_evidence(sn_base_, new_base - 1, proofs, windows,
                          "advance_base");
  sn_base_ = new_base;
  return sign_base();
}

DeletedWindow Firmware::certify_window(Sn lo, Sn hi,
                                       const std::vector<DeletionProof>& proofs,
                                       const std::vector<DeletedWindow>& windows) {
  dev_.ensure_alive();
  WORM_REQUIRE(lo != kInvalidSn && hi >= lo, "certify_window: bad range");
  if (hi - lo + 1 < 3) {
    throw ScpuError("certify_window: windows need >= 3 entries (§4.2.1)");
  }
  WORM_REQUIRE(hi <= sn_current_, "certify_window: range beyond SN_current");
  // Prior windows count as evidence once their (correlated) bounds verify.
  check_deletion_evidence(lo, hi, proofs, windows, "certify_window");

  DeletedWindow w;
  w.window_id = drbg_.next_u64();  // correlates the two bounds (§4.2.1)
  w.lo = lo;
  w.hi = hi;
  w.created_at = dev_.now();
  w.sig_lo = sign_with(*strong_key_,
                       window_bound_payload(false, w.window_id, lo, w.created_at),
                       kStrongBits);
  w.sig_hi = sign_with(*strong_key_,
                       window_bound_payload(true, w.window_id, hi, w.created_at),
                       kStrongBits);
  return w;
}

// ---------------------------------------------------------------------------
// Deferred strengthening (§4.3)
// ---------------------------------------------------------------------------

std::vector<StrengthenResult> Firmware::strengthen(
    const std::vector<Vrd>& vrds,
    const std::vector<std::vector<Bytes>>& payloads_per_vrd) {
  dev_.ensure_alive();
  WORM_REQUIRE(payloads_per_vrd.empty() ||
                   payloads_per_vrd.size() == vrds.size(),
               "strengthen: payload vector shape mismatch");

  std::vector<StrengthenResult> out;
  out.reserve(vrds.size());
  for (std::size_t i = 0; i < vrds.size(); ++i) {
    const Vrd& vrd = vrds[i];
    if (deferred_sns_.count(vrd.sn) == 0) {
      throw ScpuError("strengthen: SN not pending");
    }
    // Unaudited host-claimed hashes must be audited before the strong key
    // endorses them.
    if (auto it = pending_hash_audits_.find(vrd.sn);
        it != pending_hash_audits_.end()) {
      if (payloads_per_vrd.empty() || payloads_per_vrd[i].empty()) {
        throw ScpuError("strengthen: SN has an unaudited hash; payloads required");
      }
      audit_hash(vrd.sn, payloads_per_vrd[i]);
    }
    if (!verify_metasig(vrd) || !verify_datasig(vrd)) {
      throw ScpuError("strengthen: short-lived witness invalid");
    }
    StrengthenResult r;
    r.sn = vrd.sn;
    r.metasig = {SigKind::kStrong, 0,
                 sign_with(*strong_key_, metasig_payload(vrd.sn, vrd.attr),
                           kStrongBits)};
    r.datasig = {SigKind::kStrong, 0,
                 sign_with(*strong_key_,
                           datasig_payload(vrd.sn, vrd.data_hash),
                           kStrongBits)};
    deferred_sns_.erase(vrd.sn);
    ++counters_.strengthened;
    out.push_back(std::move(r));
  }
  // Compact the deadline queue lazily.
  while (!deferred_.empty() &&
         deferred_sns_.count(deferred_.front().sn) == 0) {
    deferred_.pop_front();
  }
  return out;
}

MigrationAttestation Firmware::sign_migration(ByteView manifest_hash,
                                              std::uint64_t source_store_id,
                                              std::uint64_t dest_store_id) {
  dev_.ensure_alive();
  MigrationAttestation a;
  a.manifest_hash = common::to_bytes(manifest_hash);
  a.source_store_id = source_store_id;
  a.dest_store_id = dest_store_id;
  a.signed_at = dev_.now();
  a.sig = sign_with(*strong_key_,
                    migration_payload(a.manifest_hash, source_store_id,
                                      dest_store_id, a.signed_at),
                    kStrongBits);
  return a;
}

void Firmware::audit_hash(Sn sn, const std::vector<Bytes>& payloads) {
  dev_.ensure_alive();
  auto it = pending_hash_audits_.find(sn);
  if (it == pending_hash_audits_.end()) {
    throw ScpuError("audit_hash: SN has no pending audit");
  }
  // Moving the payloads back into the enclosure is charged by the transport
  // (they cross the mailbox inside the kAuditHash request); only the hashing
  // itself is compute inside the device.
  Bytes actual = compute_chained_hash(payloads, /*charge=*/true);
  if (!common::ct_equal(actual, it->second)) {
    // The host committed a hash that does not match the data it stored —
    // exactly the burst-mode cheating the idle-time audit exists to catch.
    throw ScpuError("audit_hash: host-claimed hash mismatch for SN " +
                    std::to_string(sn));
  }
  pending_hash_audits_.erase(it);
  ++counters_.hash_audits;
}

std::vector<Sn> Firmware::deferred_pending(std::size_t limit) const {
  std::vector<Sn> out;
  for (const auto& e : deferred_) {
    if (out.size() >= limit) break;
    if (deferred_sns_.count(e.sn) > 0) out.push_back(e.sn);
  }
  return out;
}

SimTime Firmware::earliest_deadline() const {
  for (const auto& e : deferred_) {
    if (deferred_sns_.count(e.sn) > 0) return e.deadline;
  }
  return SimTime::max();
}

std::vector<Sn> Firmware::hash_audits_pending(std::size_t limit) const {
  std::vector<Sn> out;
  for (const auto& [sn, hash] : pending_hash_audits_) {
    if (out.size() >= limit) break;
    out.push_back(sn);
  }
  return out;
}

// ---------------------------------------------------------------------------
// VEXP + Retention Monitor (§4.2.2 "Record Expiration")
// ---------------------------------------------------------------------------

void Firmware::vexp_insert(SimTime expiry, Sn sn) {
  if (auto it = vexp_index_.find(sn); it != vexp_index_.end()) {
    if (expiry >= it->second) return;  // already queued at least as early
    // Reschedule earlier (e.g. litigation release after retention lapsed).
    auto range = vexp_.equal_range(it->second);
    for (auto v = range.first; v != range.second; ++v) {
      if (v->second == sn) {
        vexp_.erase(v);
        break;
      }
    }
    vexp_index_.erase(it);
    dev_.free_secure(kVexpEntryBytes);
  }
  // Secure-memory accounting (against both the VEXP's configured slice and
  // the device-wide budget); on pressure keep the *earliest* expiries (the
  // ones the RM needs soonest) and flag the VEXP incomplete.
  bool fits = (vexp_.size() + 1) * kVexpEntryBytes <= config_.vexp_memory_bytes;
  try {
    if (!fits) throw ScpuError("VEXP slice exhausted");
    dev_.alloc_secure(kVexpEntryBytes);
  } catch (const ScpuError&) {
    if (vexp_.empty() || std::prev(vexp_.end())->first <= expiry) {
      vexp_incomplete_ = true;  // drop the new (latest) entry
      return;
    }
    auto last = std::prev(vexp_.end());
    vexp_index_.erase(last->second);
    vexp_.erase(last);
    dev_.free_secure(kVexpEntryBytes);
    vexp_incomplete_ = true;
    dev_.alloc_secure(kVexpEntryBytes);  // freed one slot; cannot throw now
  }
  vexp_.emplace(expiry, sn);
  vexp_index_.emplace(sn, expiry);
  reschedule_rm();
}

void Firmware::reschedule_rm() {
  if (rm_scheduled_) {
    dev_.clock().cancel(rm_alarm_);
    rm_scheduled_ = false;
  }
  if (vexp_.empty()) return;
  // The RM "sets a wake-up alarm for the next expiration time and performs
  // a sleep operation" (§4.2.2).
  rm_alarm_ = dev_.clock().schedule_at(vexp_.begin()->first,
                                       [this] { rm_fire(); });
  rm_scheduled_ = true;
}

DeletionProof Firmware::make_deletion_proof(Sn sn) {
  DeletionProof p;
  p.sn = sn;
  p.deleted_at = dev_.now();
  p.sig = sign_with(*deletion_key_,
                    deletion_proof_payload(sn, p.deleted_at),
                    kDeletionBits);
  return p;
}

void Firmware::rm_fire() {
  rm_scheduled_ = false;
  if (dev_.tampered()) return;
  try {
    expire_due();
  } catch (...) {
    // A host whose shred failed throws out of on_expire: the records that
    // expire after it still need their alarm, and the caller the error.
    reschedule_rm();
    throw;
  }
  reschedule_rm();
}

void Firmware::expire_due() {
  while (!vexp_.empty() && vexp_.begin()->first <= dev_.now()) {
    auto it = vexp_.begin();
    Sn sn = it->second;
    vexp_index_.erase(sn);
    vexp_.erase(it);
    dev_.free_secure(kVexpEntryBytes);

    if (sn < sn_base_) continue;  // already below the trimmed window

    if (auto hold = lit_holds_.find(sn); hold != lit_holds_.end()) {
      if (hold->second > dev_.now()) {
        // Litigation hold in force: requeue for the hold's timeout.
        vexp_insert(hold->second, sn);
        continue;
      }
      lit_holds_.erase(hold);  // hold timed out on its own
    }

    // A record deleted before its short-lived witnesses were strengthened
    // no longer needs strengthening (or hash auditing) — its VRD is gone.
    deferred_sns_.erase(sn);
    pending_hash_audits_.erase(sn);

    DeletionProof proof = make_deletion_proof(sn);
    ++counters_.deletions;
    if (host_ != nullptr) host_->on_expire(sn, std::move(proof));
  }
}

void Firmware::vexp_rebuild_begin() {
  dev_.ensure_alive();
  vexp_rebuilding_ = true;
  // Cleared here, not at end: if the rebuild itself overflows secure memory,
  // vexp_insert re-raises the flag and a later rebuild round will run.
  vexp_incomplete_ = false;
}

void Firmware::vexp_rebuild_add(const Vrd& vrd) {
  dev_.ensure_alive();
  WORM_REQUIRE(vexp_rebuilding_, "vexp_rebuild_add: no rebuild in progress");
  if (!verify_metasig(vrd)) {
    throw ScpuError("vexp_rebuild: VRD metasig invalid");
  }
  vexp_insert(vrd.attr.expiry(), vrd.sn);
}

void Firmware::vexp_rebuild_end() {
  dev_.ensure_alive();
  vexp_rebuilding_ = false;
  reschedule_rm();
}

common::Bytes Firmware::save_nvram() const {
  dev_.ensure_alive();
  common::ByteWriter w;
  w.str("worm-nvram-v2");
  w.u64(epoch_);
  w.u64(sn_current_);
  w.u64(sn_base_);
  w.u32(current_short_id_);
  w.u32(static_cast<std::uint32_t>(short_keys_.size()));
  for (const auto& [id, sk] : short_keys_) {
    w.u32(id);
    w.blob(sk.key.serialize());
    w.u32(sk.bits);
    w.i64(sk.valid_from.ns);
    w.i64(sk.valid_until.ns);
  }
  w.blob(hmac_key_);
  w.u32(static_cast<std::uint32_t>(vexp_.size()));
  for (const auto& [expiry, sn] : vexp_) {
    w.i64(expiry.ns);
    w.u64(sn);
  }
  w.boolean(vexp_incomplete_);
  w.u32(static_cast<std::uint32_t>(lit_holds_.size()));
  for (const auto& [sn, until] : lit_holds_) {
    w.u64(sn);
    w.i64(until.ns);
  }
  std::vector<DeferredEntry> live_deferred;
  for (const auto& e : deferred_) {
    if (deferred_sns_.count(e.sn) > 0) live_deferred.push_back(e);
  }
  w.u32(static_cast<std::uint32_t>(live_deferred.size()));
  for (const auto& e : live_deferred) {
    w.u64(e.sn);
    w.i64(e.deadline.ns);
  }
  w.u32(static_cast<std::uint32_t>(pending_hash_audits_.size()));
  for (const auto& [sn, hash] : pending_hash_audits_) {
    w.u64(sn);
    w.blob(hash);
  }
  w.u64(transport_last_seq_);
  w.u32(static_cast<std::uint32_t>(transport_cache_.size()));
  for (const auto& e : transport_cache_) {
    w.u64(e.seq);
    w.u32(e.crc);
    w.blob(e.response);
  }
  return w.take();
}

void Firmware::restore_nvram(common::ByteView nvram) {
  dev_.ensure_alive();
  WORM_REQUIRE(sn_current_ == 0 && deferred_.empty() && vexp_.empty(),
               "restore_nvram: device already in service");
  common::ByteReader r(nvram);
  if (r.str() != "worm-nvram-v2") {
    throw common::ParseError("restore_nvram: bad magic");
  }
  epoch_ = r.u64();
  sn_current_ = r.u64();
  sn_base_ = r.u64();
  current_short_id_ = r.u32();
  short_keys_.clear();
  std::uint32_t nkeys = r.count(24);
  for (std::uint32_t i = 0; i < nkeys; ++i) {
    std::uint32_t id = r.u32();
    ShortKey sk;
    common::Bytes key_bytes = r.blob();
    sk.key = crypto::RsaPrivateKey::deserialize(key_bytes);
    sk.bits = r.u32();
    sk.valid_from.ns = r.i64();
    sk.valid_until.ns = r.i64();
    short_keys_.emplace(id, std::move(sk));
  }
  WORM_REQUIRE(short_keys_.count(current_short_id_) > 0,
               "restore_nvram: missing current short key");
  hmac_key_ = r.blob();
  std::uint32_t nvexp = r.count(16);
  for (std::uint32_t i = 0; i < nvexp; ++i) {
    common::SimTime expiry{r.i64()};
    Sn sn = r.u64();
    vexp_insert(expiry, sn);
  }
  vexp_incomplete_ = r.boolean() || vexp_incomplete_;
  std::uint32_t nholds = r.count(16);
  for (std::uint32_t i = 0; i < nholds; ++i) {
    Sn sn = r.u64();
    lit_holds_[sn] = common::SimTime{r.i64()};
  }
  std::uint32_t ndeferred = r.count(16);
  for (std::uint32_t i = 0; i < ndeferred; ++i) {
    Sn sn = r.u64();
    common::SimTime deadline{r.i64()};
    deferred_.push_back({sn, deadline});
    deferred_sns_.insert(sn);
  }
  std::uint32_t naudits = r.count(12);
  for (std::uint32_t i = 0; i < naudits; ++i) {
    Sn sn = r.u64();
    pending_hash_audits_[sn] = r.blob();
  }
  transport_last_seq_ = r.u64();
  std::uint32_t ncached = r.count(16);
  for (std::uint32_t i = 0; i < ncached; ++i) {
    std::uint64_t seq = r.u64();
    std::uint32_t crc = r.u32();
    transport_cache_.push_back({seq, crc, r.blob()});
  }
  r.expect_end();
  reschedule_rm();
}

const common::Bytes* Firmware::transport_cached(
    std::uint64_t seq, std::uint32_t request_crc) const {
  for (const auto& e : transport_cache_) {
    // A seq hit with a different request checksum is not a resend — it is a
    // distinct command reusing the number (e.g. an independent channel on the
    // same device). Execute it fresh rather than replaying a stale response.
    if (e.seq == seq && e.crc == request_crc) return &e.response;
  }
  return nullptr;
}

void Firmware::transport_remember(std::uint64_t seq, std::uint32_t request_crc,
                                  common::Bytes response) {
  if (seq > transport_last_seq_) transport_last_seq_ = seq;
  for (auto it = transport_cache_.begin(); it != transport_cache_.end(); ++it) {
    if (it->seq == seq) {
      transport_cache_.erase(it);
      break;
    }
  }
  transport_cache_.push_back({seq, request_crc, std::move(response)});
  while (transport_cache_.size() > kTransportCacheDepth) {
    transport_cache_.pop_front();
  }
}

void Firmware::process_idle() {
  dev_.ensure_alive();
  // Pre-generate the next short-term key so a burst never pays for keygen.
  if (!spare_short_key_.has_value()) {
    dev_.charge(dev_.cost().keygen_cost(config_.short_bits));
    spare_short_key_ = scpu::cached_rsa_key(
        config_.seed ^ kShortKeyTweak ^ (std::uint64_t{current_short_id_} + 1),
        config_.short_bits);
  }
  // Retire short-key epochs that no pending signature still needs.
  if (deferred_sns_.empty()) {
    std::erase_if(short_keys_, [this](const auto& kv) {
      return kv.first != current_short_id_;
    });
  }
  roll_epoch_if_due();
}

}  // namespace worm::core
