// Theorems 1 & 2 as executable tests (paper §5):
//   Theorem 1 — records committed to WORM storage cannot be altered or
//               removed undetected.
//   Theorem 2 — insiders with super-user powers cannot "hide" active records
//               by claiming they expired or were never stored.
// Every Mallory driver from src/adversary runs against the honest client
// verifier; all attacks must surface as kTampered/kStaleProof, never as a
// trustworthy verdict.
#include <gtest/gtest.h>

#include "adversary/mallory.hpp"
#include "worm_fixture.hpp"

namespace worm::adversary {
namespace {

using common::Duration;
using core::Outcome;
using core::ReadOk;
using core::ReadOutcome;
using core::Sn;
using core::Verdict;
using worm::testing::Rig;

// ---------------------------------------------------------------------------
// Theorem 1: no undetected alteration or removal
// ---------------------------------------------------------------------------

TEST(Theorem1, DataBlockTamperingIsDetected) {
  Rig rig;
  Sn sn = rig.put("the original truth", Duration::days(30));
  ASSERT_TRUE(tamper_record_data(rig.store, rig.disk, sn));
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem1, SingleBitFlipIsDetected) {
  Rig rig;
  Sn sn = rig.put("precision matters", Duration::days(30));
  auto res = rig.store.read(sn);
  std::uint64_t block = res.get<ReadOk>().vrd.rdl.at(0).blocks.at(0);
  rig.disk.raw_block(block)[3] ^= 0x01;  // one bit, one byte
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kTampered);
}

TEST(Theorem1, RetentionShorteningIsDetected) {
  // Mallory edits attr.retention in the VRDT so the record "expires" sooner.
  // The metasig covers attr, so the forgery cannot verify.
  Rig rig;
  Sn sn = rig.put("must live 30 days", Duration::days(30));
  ASSERT_TRUE(rewrite_retention(rig.store, sn, Duration::hours(1)));
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem1, LitigationHoldStrippingIsDetected) {
  Rig rig;
  Sn sn = rig.put("under hold", Duration::days(1));
  rig.store.lit_hold({.sn = sn,
                      .lit_id = 7,
                      .hold_until = rig.clock.now() + Duration::days(30),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 7, true)});
  // Mallory clears the hold flag directly in the VRDT.
  core::Vrdt& vrdt = core::InsiderHandle(rig.store).vrdt();
  std::optional<core::Vrdt::Entry> e = vrdt.find(sn);
  e->vrd.attr.litigation_hold = false;
  vrdt.put_active(e->vrd);
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kTampered);
}

TEST(Theorem1, CrossWiredRecordDataIsDetected) {
  Rig rig;
  Sn a = rig.put("record A contents", Duration::days(30));
  Sn b = rig.put("record B contents", Duration::days(30));
  ASSERT_TRUE(cross_wire_records(rig.store, a, b));
  // A's datasig covers A's hash; B's bytes can never satisfy it.
  EXPECT_EQ(rig.verifier.verify_read(a, rig.store.read(a)).verdict,
            Verdict::kTampered);
  // B itself is untouched.
  EXPECT_EQ(rig.verifier.verify_read(b, rig.store.read(b)).verdict,
            Verdict::kAuthentic);
}

TEST(Theorem1, ForgedDeletionProofIsDetected) {
  Rig rig;
  crypto::Drbg rng(0xbadbad);
  Sn sn = rig.put("inconvenient record", Duration::days(30));
  ASSERT_TRUE(forge_deletion(rig.store, sn, rng));
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem1, ReplayedForeignDeletionProofIsDetected) {
  // The donor's deletion proof is GENUINE — but it names the donor's SN, so
  // serving it for the victim fails the SN binding check.
  Rig rig;
  Sn donor = rig.put("legitimately expiring", Duration::hours(1));
  Sn victim = rig.put("rush-delete me", Duration::days(30));
  rig.clock.advance(Duration::hours(2));  // donor now properly deleted
  ASSERT_TRUE(replay_foreign_deletion(rig.store, victim, donor));
  Outcome out = rig.verifier.verify_read(victim, rig.store.read(victim));
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem1, MetasigSwapBetweenRecordsIsDetected) {
  // Even two records with identical attrs can't exchange signatures: the SN
  // inside the envelope pins each signature to its record.
  Rig rig;
  Sn a = rig.put("same body", Duration::days(30));
  Sn b = rig.put("same body", Duration::days(30));
  core::Vrdt& vrdt = core::InsiderHandle(rig.store).vrdt();
  std::optional<core::Vrdt::Entry> ea = vrdt.find(a);
  std::optional<core::Vrdt::Entry> eb = vrdt.find(b);
  std::swap(ea->vrd.metasig, eb->vrd.metasig);
  vrdt.put_active(ea->vrd);
  vrdt.put_active(eb->vrd);
  EXPECT_EQ(rig.verifier.verify_read(a, rig.store.read(a)).verdict,
            Verdict::kTampered);
  EXPECT_EQ(rig.verifier.verify_read(b, rig.store.read(b)).verdict,
            Verdict::kTampered);
}

TEST(Theorem1, SplicedDeletedWindowIsDetected) {
  // Build two genuine windows, then splice first.lo with second.hi to claim
  // everything in between (including a live record) was deleted. The shared
  // random window id inside the signed bounds defeats this (§4.2.1).
  Rig rig;
  rig.put("keep-0", Duration::days(30));            // sn 1
  for (int i = 0; i < 3; ++i) rig.put("w1", Duration::hours(1));  // 2..4
  Sn live = rig.put("LIVE TARGET", Duration::days(30));           // 5
  for (int i = 0; i < 3; ++i) rig.put("w2", Duration::hours(2));  // 6..8
  rig.put("keep-9", Duration::days(30));                          // 9
  rig.clock.advance(Duration::hours(3));
  while (rig.store.pump_idle()) {
  }
  ASSERT_EQ(rig.store.vrdt().windows().size(), 2u);

  core::DeletedWindow forged = splice_windows(rig.store.vrdt().windows()[0],
                                              rig.store.vrdt().windows()[1]);
  install_spliced_window(rig.store, forged);

  ReadOutcome res = rig.store.read(live);
  ASSERT_TRUE(res.is<core::ReadInDeletedWindow>());
  Outcome out = rig.verifier.verify_read(live, res);
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem1, GenuineWindowStillVerifiesAfterSpliceAttempt) {
  // Sanity inverse of the above: an unspliced certified window is accepted.
  Rig rig;
  rig.put("anchor", Duration::days(30));
  for (int i = 0; i < 4; ++i) rig.put("w", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  ASSERT_EQ(rig.store.vrdt().windows().size(), 1u);
  Sn inside = 3;
  EXPECT_EQ(rig.verifier.verify_read(inside, rig.store.read(inside)).verdict,
            Verdict::kDeletedVerified);
}

// ---------------------------------------------------------------------------
// Theorem 2: active records cannot be hidden
// ---------------------------------------------------------------------------

TEST(Theorem2, HiddenRecordYieldsNoAcceptableAnswer) {
  Rig rig;
  Sn sn = rig.put("subpoenaed record", Duration::days(30));
  // §4.2.1 (ii): the heartbeat mechanism protects records older than one
  // refresh period. Let one heartbeat cover the new record, then attack.
  rig.clock.advance(Duration::minutes(3));
  ASSERT_TRUE(hide_record(rig.store, sn));
  // The store has no entry, no window, no below-base claim; its only honest
  // answer is "no proof", which the client treats as tampering.
  ReadOutcome res = rig.store.read(sn);
  Outcome out = rig.verifier.verify_read(sn, res);
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
  EXPECT_FALSE(out.trustworthy());
}

TEST(Theorem2, HiddenRecordIsExposedAfterAWarmRead) {
  // Mallory holds the VRDT from before the record was read, then erases it
  // after a read has verified. Nothing host-side may keep serving the
  // pre-tamper answer: the next read must expose the edit.
  Rig rig;
  Sn sn = rig.put("read before it is hidden", Duration::days(30));
  rig.clock.advance(Duration::minutes(3));  // one heartbeat covers the write
  core::Vrdt& v = core::InsiderHandle(rig.store).vrdt();
  ASSERT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
  ASSERT_TRUE(v.force_erase(sn));
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem2, HeartbeatWindowIsTheOnlyHidingSlack) {
  // Documented protocol boundary: within ONE heartbeat period of a write,
  // a pre-write stamp is still "fresh" and can deny the newest records —
  // exactly the few-minutes granularity §4.2.1 (ii) accepts. After the next
  // refresh (tested above) the attack dies. This test pins the boundary so
  // a regression that silently widens it gets caught.
  Rig rig;
  core::SignedSnCurrent pre_write = rig.store.latest_heartbeat();
  Sn sn = rig.put("seconds old", Duration::days(30));
  Outcome out =
      rig.verifier.verify_read(sn, stale_not_allocated_answer(pre_write));
  EXPECT_EQ(out.verdict, Verdict::kNeverExistedVerified);  // the known window
  rig.clock.advance(Duration::minutes(6));  // > sn_current_max_age
  out = rig.verifier.verify_read(sn, stale_not_allocated_answer(pre_write));
  EXPECT_EQ(out.verdict, Verdict::kStaleProof);  // window closed
}

TEST(Theorem2, StaleHeartbeatCannotHideRecentRecords) {
  // Mallory captures S_s(SN_current) before the incriminating write, then
  // replays it to claim the record never existed. Freshness (§4.2.1 (ii))
  // defeats this.
  Rig rig;
  core::SignedSnCurrent captured = rig.store.latest_heartbeat();
  Sn sn = rig.put("written after capture", Duration::days(30));
  rig.clock.advance(Duration::minutes(10));  // stamp now stale

  ReadOutcome forged = stale_not_allocated_answer(captured);
  Outcome out = rig.verifier.verify_read(sn, forged);
  EXPECT_EQ(out.verdict, Verdict::kStaleProof) << out.detail;
  EXPECT_FALSE(out.trustworthy());
}

TEST(Theorem2, FreshHeartbeatCannotDenyAllocatedSn) {
  // Even a FRESH heartbeat names sn_current >= sn, so the "never allocated"
  // claim is self-contradictory for an allocated SN.
  Rig rig;
  Sn sn = rig.put("allocated", Duration::days(30));
  rig.clock.advance(Duration::minutes(3));  // heartbeat now names sn_current >= sn
  ReadOutcome forged = stale_not_allocated_answer(rig.store.latest_heartbeat());
  Outcome out = rig.verifier.verify_read(sn, forged);
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

TEST(Theorem2, VrdtRollbackIsDetected) {
  // Full VRDT rollback to a pre-write snapshot. The rolled-back table knows
  // nothing of the new SN; whatever the store answers, the client refuses.
  Rig rig;
  core::Vrdt snapshot = snapshot_vrdt(rig.store);
  Sn sn = rig.put("history to erase", Duration::days(30));
  rig.clock.advance(Duration::minutes(3));  // one heartbeat covers the write
  rollback_vrdt(rig.store, std::move(snapshot));

  ReadOutcome res = rig.store.read(sn);
  Outcome out = rig.verifier.verify_read(sn, res);
  EXPECT_FALSE(out.trustworthy()) << to_string(out.verdict) << ": "
                                  << out.detail;
}

TEST(Theorem2, ExpiredBaseProofCannotJustifyDeletion) {
  // An old S_s(SN_base) replayed after its validity is refused, so Mallory
  // cannot pretend a live high SN sits below some ancient base.
  Rig rig(worm::testing::slow_timers_config());
  for (int i = 0; i < 3; ++i) rig.put("r", Duration::hours(1));
  Sn live = rig.put("live", Duration::days(365));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  core::SignedSnBase base = rig.firmware.sign_base();
  rig.clock.advance(Duration::days(3));  // base proof now expired

  core::ReadOutcome forged = core::ReadBelowBase{base};
  Outcome out = rig.verifier.verify_read(live, forged);
  EXPECT_FALSE(out.trustworthy());
}

TEST(Theorem2, BaseProofCannotCoverSnAboveIt) {
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.put("r", Duration::hours(1));
  Sn live = rig.put("live", Duration::days(365));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  ASSERT_EQ(rig.firmware.sn_base(), 4u);
  core::ReadOutcome forged = core::ReadBelowBase{rig.firmware.sign_base()};
  // live == 4 >= base == 4: claim is structurally wrong.
  Outcome out = rig.verifier.verify_read(live, forged);
  EXPECT_EQ(out.verdict, Verdict::kTampered) << out.detail;
}

// ---------------------------------------------------------------------------
// What the threat model deliberately allows (§2.1): remembering
// ---------------------------------------------------------------------------

TEST(ThreatModel, RememberingDeletedDataIsOutOfScopeByDesign) {
  // Mallory copies record + VRD before expiry and restores them afterwards.
  // The restored record verifies as authentic: WORM prevents REWRITING
  // history, not REMEMBERING it — the paper's §2.1 makes this explicit.
  Rig rig;
  Sn sn = rig.put("she keeps a copy", Duration::hours(1));
  auto res = rig.store.read(sn);
  auto ok = res.get<ReadOk>();
  core::Vrdt::Entry saved = *rig.store.vrdt().find(sn);

  rig.clock.advance(Duration::hours(2));  // record deleted + shredded
  ASSERT_TRUE(rig.store.read(sn).is<core::ReadDeleted>());

  // Restore from her private copies.
  core::InsiderHandle(rig.store).vrdt().force_put(sn, saved);
  for (std::size_t i = 0; i < ok.vrd.rdl.size(); ++i) {
    // Rewrite payload bytes back onto the (reallocated) blocks.
    const auto& rd = ok.vrd.rdl[i];
    const auto& payload = ok.payloads[i];
    common::Bytes block(rig.disk.block_size(), 0);
    std::copy(payload.begin(), payload.end(), block.begin());
    rig.disk.raw_block(rd.blocks[0]) = block;
  }
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(ThreatModel, RushedRemovalBeforeRetentionIsImpossibleHonestly) {
  // There is no store API that deletes early, and the SCPU only signs
  // deletion proofs when the VEXP says retention lapsed. The best Mallory
  // can do is the forged/replayed proofs already shown to fail.
  Rig rig;
  Sn sn = rig.put("must be retained", Duration::days(30));
  rig.clock.advance(Duration::days(1));
  EXPECT_EQ(rig.firmware.counters().deletions, 0u);
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

}  // namespace
}  // namespace worm::adversary
