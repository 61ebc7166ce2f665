// ClientVerifier edge cases: every rejection branch exercised with
// hand-crafted hostile inputs (beyond what the adversary drivers produce).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "crypto/rsa.hpp"
#include "scpu/key_cache.hpp"
#include "worm/envelopes.hpp"
#include "worm/sig_memo.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::Duration;
using common::to_bytes;
using worm::testing::Rig;

TEST(Verifier, RejectsVrdWithInvalidSn) {
  Rig rig;
  Vrd v;
  v.sn = kInvalidSn;
  EXPECT_EQ(rig.verifier.verify_vrd(v, {}).verdict, Verdict::kTampered);
}

TEST(Verifier, RejectsPayloadCountMismatch) {
  Rig rig;
  Sn sn = rig.put("one payload", Duration::days(1));
  auto res = rig.store.read(sn);
  auto ok = res.get<ReadOk>();
  // Drop a payload but keep the RDL — count mismatch must fail fast.
  EXPECT_EQ(rig.verifier.verify_vrd(ok.vrd, {}).verdict, Verdict::kTampered);
}

TEST(Verifier, RejectsUnknownShortKeyEpoch) {
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  auto res = rig.store.read(sn);
  auto ok = res.get<ReadOk>();
  ok.vrd.metasig.key_id = 999;  // Mallory invents an epoch
  Outcome out = rig.verifier.verify_vrd(ok.vrd, ok.payloads);
  EXPECT_EQ(out.verdict, Verdict::kTampered);
  EXPECT_NE(out.detail.find("epoch"), std::string::npos);
}

TEST(Verifier, RejectsForgedShortKeyCert) {
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  // Anchors whose short-key cert signature was doctored: even a matching
  // key id must be refused because the cert chain is broken.
  TrustAnchors anchors = rig.store.anchors();
  ASSERT_FALSE(anchors.short_certs.empty());
  anchors.short_certs[0].sig[0] ^= 0x01;
  ClientVerifier verifier(anchors, rig.clock);
  Outcome out = verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kTampered);
  EXPECT_NE(out.detail.find("certificate"), std::string::npos);
}

TEST(Verifier, RejectsCertForWrongValidity) {
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  TrustAnchors anchors = rig.store.anchors();
  // Mallory extends the cert's validity to keep a short sig alive forever;
  // the cert signature covers the validity window, so this breaks the cert.
  anchors.short_certs[0].valid_until =
      anchors.short_certs[0].valid_until + Duration::years(10);
  ClientVerifier verifier(anchors, rig.clock);
  EXPECT_EQ(verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kTampered);
}

TEST(Verifier, ShortSignatureGoesStaleOnTheSameVerifier) {
  // The verifier checks each certificate's signature once, at construction;
  // the validity window must still be checked on every read. One verifier
  // on its own client clock reads the same deferred answer as authentic,
  // then as stale once the clock passes valid_until + short_sig_acceptance.
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  const ReadOutcome res = rig.store.read(sn);
  const SigBox& metasig = res.get<ReadOk>().vrd.metasig;
  ASSERT_EQ(metasig.kind, SigKind::kShortTerm);
  const TrustAnchors anchors = rig.store.anchors();
  common::SimTime valid_until{};
  for (const ShortKeyCert& cert : anchors.short_certs) {
    if (cert.key_id == metasig.key_id) valid_until = cert.valid_until;
  }
  ASSERT_GT(valid_until.ns, rig.clock.now().ns);

  common::SimClock client(rig.clock.now());
  ClientVerifier verifier(anchors, client);
  EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);
  client.advance_to(valid_until + anchors.short_sig_acceptance);
  EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kAuthentic)
      << "the end of the security lifetime is still inside it";
  client.advance(Duration::nanos(1));
  EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kStaleProof);
}

TEST(Verifier, UnparsableShortCertKeyIsTamperedNotThrown) {
  // Anchors whose meta key signs a short-key certificate with key bytes
  // that do not parse: the verifier still constructs, and every signature
  // under that key id reads kTampered instead of throwing.
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  const ReadOutcome res = rig.store.read(sn);
  ASSERT_EQ(res.get<ReadOk>().vrd.metasig.kind, SigKind::kShortTerm);
  const crypto::RsaPrivateKey& meta = scpu::cached_rsa_key(0x3e7a, 1024);
  TrustAnchors anchors = rig.store.anchors();
  ASSERT_FALSE(anchors.short_certs.empty());
  anchors.meta_key = meta.public_key();
  for (ShortKeyCert& cert : anchors.short_certs) {
    cert.pubkey = {0x01};  // too short for even a length prefix
    cert.sig = crypto::rsa_sign(
        meta, short_key_cert_payload(cert.key_id, cert.bits, cert.pubkey,
                                     cert.valid_from, cert.valid_until));
  }
  std::optional<ClientVerifier> verifier;
  ASSERT_NO_THROW(verifier.emplace(anchors, rig.clock));
  EXPECT_TRUE(verifier->verify_short_cert(anchors.short_certs[0]));
  Outcome out;
  ASSERT_NO_THROW(out = verifier->verify_read(sn, res));
  EXPECT_EQ(out.verdict, Verdict::kTampered);
  EXPECT_NE(out.detail.find("malformed"), std::string::npos) << out.detail;
}

TEST(Verifier, WindowMustContainRequestedSn) {
  Rig rig;
  rig.put("pin", Duration::days(30));
  for (int i = 0; i < 3; ++i) rig.put("w", Duration::hours(1));
  Sn outside = rig.put("live", Duration::days(30));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  ASSERT_EQ(rig.store.vrdt().windows().size(), 1u);
  DeletedWindow w = rig.store.vrdt().windows()[0];
  // A genuine window presented for an SN it does not cover.
  Outcome out = rig.verifier.verify_window(w, outside);
  EXPECT_EQ(out.verdict, Verdict::kTampered);
  // And for one it does cover, it verifies.
  EXPECT_EQ(rig.verifier.verify_window(w, w.lo).verdict,
            Verdict::kDeletedVerified);
}

TEST(Verifier, BaseBoundaryIsExclusive) {
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.put("r", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  SignedSnBase base = rig.firmware.sign_base();
  ASSERT_EQ(base.sn_base, 4u);
  EXPECT_EQ(rig.verifier.verify_base(base, 3).verdict,
            Verdict::kDeletedVerified);
  EXPECT_EQ(rig.verifier.verify_base(base, 4).verdict, Verdict::kTampered);
}

TEST(Verifier, HeartbeatBoundaryIsInclusive) {
  Rig rig;
  rig.put("r", Duration::days(1));
  rig.clock.advance(Duration::minutes(3));
  SignedSnCurrent hb = rig.store.latest_heartbeat();
  ASSERT_EQ(hb.sn_current, 1u);
  // Claiming SN 1 "never existed" contradicts the heartbeat itself.
  EXPECT_EQ(rig.verifier.verify_current(hb, 1).verdict, Verdict::kTampered);
  EXPECT_EQ(rig.verifier.verify_current(hb, 2).verdict,
            Verdict::kNeverExistedVerified);
}

TEST(Verifier, TamperedHeartbeatSignature) {
  Rig rig;
  SignedSnCurrent hb = rig.store.latest_heartbeat();
  hb.sn_current += 5;  // contents changed under the old signature
  EXPECT_EQ(rig.verifier.verify_current(hb, 99).verdict, Verdict::kTampered);
}

TEST(Verifier, DeletionProofTimestampIsCovered) {
  Rig rig;
  Sn sn = rig.put("r", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  auto res = rig.store.read(sn);
  auto del = res.get<ReadDeleted>();
  del.proof.deleted_at = del.proof.deleted_at + Duration::days(365);
  EXPECT_FALSE(rig.verifier.verify_deletion_proof(del.proof));
}

// ---------------------------------------------------------------------------
// Epoch attestation certificates (O(1)-amortized freshness)
// ---------------------------------------------------------------------------

TEST(Verifier, EpochCertAuthenticAndForgeryConvicted) {
  Rig rig;
  rig.put("r", Duration::days(1));
  EpochCert cert = rig.firmware.epoch_cert();
  EXPECT_EQ(rig.verifier.verify_epoch_cert(cert).verdict, Verdict::kAuthentic);

  EpochCert forged = cert;
  forged.sig[0] ^= 0x01;
  EXPECT_EQ(rig.verifier.verify_epoch_cert(forged).verdict,
            Verdict::kTampered);

  // Contents changed under the genuine signature: also a forgery.
  EpochCert bumped = cert;
  bumped.sn_current += 7;
  EXPECT_EQ(rig.verifier.verify_epoch_cert(bumped).verdict,
            Verdict::kTampered);
}

TEST(Verifier, EpochCertStaleStampIsRejected) {
  // A genuine cert older than sn_current_max_age proves nothing about the
  // present — exactly the record-hiding window the paper's freshness
  // mechanism (§4.2.1 (ii)) closes.
  Rig rig;
  rig.put("r", Duration::days(1));
  EpochCert cert = rig.firmware.epoch_cert();
  rig.clock.advance(rig.store.freshness_horizon() + Duration::seconds(1));
  EXPECT_EQ(rig.verifier.verify_epoch_cert(cert).verdict,
            Verdict::kStaleProof);
}

TEST(Verifier, EpochCertReplayOfOlderEpochIsRejected) {
  Rig rig;
  rig.put("a", Duration::days(1));
  EpochCert older = rig.firmware.epoch_cert();
  rig.clock.advance(kEpochInterval + Duration::seconds(1));
  rig.put("b", Duration::days(1));
  EpochCert newer = rig.firmware.epoch_cert();
  ASSERT_GT(newer.epoch, older.epoch);
  EXPECT_EQ(rig.verifier.verify_epoch_cert(newer).verdict,
            Verdict::kAuthentic);
  // Mallory replays the (genuinely signed) older cert to hide the records
  // stamped since; the verifier's epoch high-water mark convicts it.
  EXPECT_EQ(rig.verifier.verify_epoch_cert(older).verdict,
            Verdict::kStaleProof);
  // Re-presenting the newest cert stays fine (the mark is inclusive).
  EXPECT_EQ(rig.verifier.verify_epoch_cert(newer).verdict,
            Verdict::kAuthentic);
}

TEST(Verifier, EpochCertSnRollbackIsConvicted) {
  Rig rig;
  for (int i = 0; i < 5; ++i) rig.put("early", Duration::days(1));
  rig.clock.advance(kEpochInterval + Duration::seconds(1));
  rig.put("roll", Duration::days(1));
  common::Bytes nvram = rig.firmware.save_nvram();
  Sn sn_at_save = rig.firmware.sn_current();

  rig.clock.advance(kEpochInterval + Duration::seconds(1));
  for (int i = 0; i < 4; ++i) rig.put("late", Duration::days(1));
  EpochCert latest = rig.firmware.epoch_cert();
  ASSERT_GT(latest.sn_current, sn_at_save);
  ASSERT_EQ(rig.verifier.verify_epoch_cert(latest).verdict,
            Verdict::kAuthentic);

  // Mallory powers a replacement device from a stale NVRAM snapshot. Its
  // long-term keys are deterministic in the seed, so every signature it
  // makes is genuine — but its SN_current has rolled back, silently erasing
  // the records written since the snapshot. The battery-backed epoch counter
  // resumes past the snapshot too, so the replay check alone cannot catch
  // it; the SN high-water mark must.
  Rig stale;
  stale.firmware.restore_nvram(nvram);
  EpochCert rolled = stale.firmware.epoch_cert();
  while (rolled.epoch < latest.epoch) {
    stale.clock.advance(kEpochInterval + Duration::seconds(1));
    rolled = stale.firmware.epoch_cert();
  }
  ASSERT_GE(rolled.epoch, latest.epoch);
  ASSERT_LT(rolled.sn_current, latest.sn_current);
  EXPECT_EQ(rig.verifier.verify_epoch_cert(rolled).verdict,
            Verdict::kTampered);
}

TEST(Verifier, OutcomeTrustworthiness) {
  auto trust = [](Verdict v) { return Outcome{v, ""}.trustworthy(); };
  EXPECT_TRUE(trust(Verdict::kAuthentic));
  EXPECT_TRUE(trust(Verdict::kDeletedVerified));
  EXPECT_TRUE(trust(Verdict::kNeverExistedVerified));
  EXPECT_FALSE(trust(Verdict::kUnverifiableYet));
  EXPECT_FALSE(trust(Verdict::kStaleProof));
  EXPECT_FALSE(trust(Verdict::kTampered));
}

TEST(Verifier, VerdictNamesAreStable) {
  EXPECT_STREQ(to_string(Verdict::kAuthentic), "authentic");
  EXPECT_STREQ(to_string(Verdict::kTampered), "TAMPERED");
  EXPECT_STREQ(to_string(Verdict::kStaleProof), "stale-proof");
}

TEST(SigMemo, FullMemoKeepsAWorkingSetOfHalfItsSize) {
  // A full memo evicts its oldest entries. After kCapacity one-off checks
  // fill it, a working set of half its size checked twice hits on every
  // check of its second pass, whichever shards its digests land in.
  const crypto::RsaPrivateKey& key = scpu::cached_rsa_key(0x3e30, 512);
  const crypto::PreparedRsaKey prepared(key.public_key());
  const Bytes sig = crypto::rsa_sign(key, to_bytes("signed message"));
  SigVerifyMemo memo;
  auto check = [&](std::size_t i) {
    EXPECT_FALSE(
        memo.verify(prepared, to_bytes("message " + std::to_string(i)), sig));
  };
  constexpr std::size_t kFill = SigVerifyMemo::kCapacity;
  constexpr std::size_t kWorkingSet = SigVerifyMemo::kCapacity / 2;
  for (std::size_t i = 0; i < kFill + kWorkingSet; ++i) check(i);
  EXPECT_EQ(memo.stats().misses, kFill + kWorkingSet);
  const std::uint64_t hits = memo.stats().hits;
  for (std::size_t i = kFill; i < kFill + kWorkingSet; ++i) check(i);
  EXPECT_EQ(memo.stats().hits - hits, kWorkingSet);
  EXPECT_TRUE(memo.verify(prepared, to_bytes("signed message"), sig));
}

}  // namespace
}  // namespace worm::core
