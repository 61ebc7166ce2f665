// End-to-end protocol tests over the full deployment: write/read/verify in
// every witnessing mode, retention-driven deletion with proofs, litigation
// holds, sliding-window management, compaction, and compliant migration —
// the behavioural form of the paper's §4.2-§4.3.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "worm/session.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::to_bytes;
using storage::ShredPolicy;
using worm::testing::Rig;
using worm::testing::slow_timers_config;

// ---------------------------------------------------------------------------
// Basic write/read/verify
// ---------------------------------------------------------------------------

TEST(WormStore, WriteReadVerifyRoundTrip) {
  Rig rig;
  Sn sn = rig.put("patient chart 1337", Duration::days(30));
  EXPECT_EQ(sn, 1u);

  ReadOutcome res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(common::to_string(ok->payloads.at(0)), "patient chart 1337");
  EXPECT_EQ(ok->vrd.sn, sn);
  EXPECT_EQ(ok->vrd.metasig.kind, SigKind::kStrong);

  Outcome out = rig.verifier.verify_read(sn, res);
  EXPECT_EQ(out.verdict, Verdict::kAuthentic) << out.detail;
}

TEST(WormStore, MultiPayloadVirtualRecord) {
  // A VR groups several data records (e.g. email + attachments) under one SN.
  Rig rig;
  std::vector<common::Bytes> payloads = {
      to_bytes("email body"), to_bytes("attachment-1"), to_bytes("attachment-2")};
  Sn sn = rig.store.write(
      {.payloads = payloads, .attr = rig.attr(Duration::days(365))});

  ReadOutcome res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  ASSERT_EQ(ok->payloads.size(), 3u);
  EXPECT_EQ(ok->vrd.rdl.size(), 3u);
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);
}

TEST(WormStore, SerialNumbersAreConsecutive) {
  Rig rig;
  for (Sn expected = 1; expected <= 20; ++expected) {
    EXPECT_EQ(rig.put("r", Duration::days(1)), expected);
  }
  EXPECT_EQ(rig.firmware.sn_current(), 20u);
}

TEST(WormStore, CreationTimeIsScpuAuthoritative) {
  // The host cannot backdate records: the SCPU stamps creation_time itself.
  Rig rig;
  rig.clock.advance(Duration::hours(5));
  Attr a = rig.attr(Duration::days(1));
  a.creation_time = common::SimTime{-12345};  // host-supplied lie
  common::SimTime before = rig.clock.now();
  Sn sn = rig.store.write({.payloads = {to_bytes("x")}, .attr = a});
  common::SimTime after = rig.clock.now();
  auto res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  // The backdated host timestamp was discarded for the SCPU's own clock.
  EXPECT_GE(ok->vrd.attr.creation_time, before);
  EXPECT_LE(ok->vrd.attr.creation_time, after);
}

TEST(WormStore, ReadOfUnallocatedSnProvesNonExistence) {
  Rig rig;
  rig.put("only record", Duration::days(1));
  ReadOutcome res = rig.store.read(42);
  ASSERT_TRUE(res.is<ReadNotAllocated>());
  Outcome out = rig.verifier.verify_read(42, res);
  EXPECT_EQ(out.verdict, Verdict::kNeverExistedVerified) << out.detail;
}

TEST(WormStore, EmptyStoreAnswersNotAllocated) {
  Rig rig;
  Outcome out = rig.verifier.verify_read(1, rig.store.read(1));
  EXPECT_EQ(out.verdict, Verdict::kNeverExistedVerified) << out.detail;
}

TEST(WormStore, RejectsZeroRetention) {
  Rig rig;
  // Refused at write admission, before a block is stored or the device is
  // asked (the firmware would refuse it too, failing its whole crossing).
  std::uint64_t disk_writes = rig.disk.stats().bytes_written;
  EXPECT_THROW(rig.put("r", Duration::nanos(0)), common::PreconditionError);
  EXPECT_THROW(rig.put("r", Duration::nanos(-1)), common::PreconditionError);
  EXPECT_EQ(rig.disk.stats().bytes_written, disk_writes);
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
}

TEST(WormStore, RefusedRetentionDoesNotFailGroupMates) {
  // One principal's zero retention must not fail the writes that would have
  // shared its kWriteBatch crossing: it is refused at admission, and the
  // group lands without it.
  StoreConfig sc;
  sc.pipeline.enabled = true;
  Rig rig({}, sc);
  auto admit = [&](const char* text, Duration retention) {
    return rig.store.write_async(
        {.payloads = {to_bytes(text)}, .attr = rig.attr(retention)});
  };
  WriteTicket alice = admit("alice", Duration::days(1));
  EXPECT_THROW((void)admit("mallory", Duration{}), common::PreconditionError);
  WriteTicket bob = admit("bob", Duration::days(1));
  EXPECT_EQ(alice.get(), 1u);
  EXPECT_EQ(bob.get(), 2u);
}

TEST(WormStore, HeartbeatRefreshesAutomatically) {
  // §4.2.1 (ii): the SCPU re-stamps S_s(SN_current) every few minutes even
  // with no updates, so clients never accept stale allocation claims.
  Rig rig;
  auto first = rig.store.latest_heartbeat();
  rig.clock.advance(Duration::minutes(10));
  auto later = rig.store.latest_heartbeat();
  EXPECT_GT(later.stamped_at, first.stamped_at);
  EXPECT_EQ(rig.verifier.verify_read(9, rig.store.read(9)).verdict,
            Verdict::kNeverExistedVerified);
}

// ---------------------------------------------------------------------------
// Retention expiry & secure deletion (§4.2.2)
// ---------------------------------------------------------------------------

TEST(WormStore, RetentionExpiryYieldsDeletionProof) {
  Rig rig;
  Sn sn = rig.put("expiring record", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));

  ReadOutcome res = rig.store.read(sn);
  ASSERT_TRUE(res.is<ReadDeleted>());
  Outcome out = rig.verifier.verify_read(sn, res);
  EXPECT_EQ(out.verdict, Verdict::kDeletedVerified) << out.detail;
  EXPECT_EQ(rig.store.counters().at("store.expirations"), 1u);
}

TEST(WormStore, DeletionShredsDataBlocks) {
  Rig rig;
  Sn sn = rig.put("TOP SECRET CONTENT", Duration::hours(1));
  auto res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  std::uint64_t block = ok->vrd.rdl.at(0).blocks.at(0);

  rig.clock.advance(Duration::hours(2));
  // Zero-fill policy: the physical block holds no residue of the payload.
  const common::Bytes& raw = rig.disk.raw_block(block);
  EXPECT_TRUE(std::all_of(raw.begin(), raw.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(WormStore, RecordsExpireIndividuallyInOrder) {
  Rig rig;
  Sn a = rig.put("a", Duration::hours(1));
  Sn b = rig.put("b", Duration::hours(3));
  rig.clock.advance(Duration::hours(2));
  EXPECT_TRUE(rig.store.read(a).is<ReadDeleted>());
  EXPECT_TRUE(rig.store.read(b).is<ReadOk>());
  rig.clock.advance(Duration::hours(2));
  EXPECT_TRUE(rig.store.read(b).is<ReadDeleted>());
}

TEST(WormStore, OutOfOrderExpiration) {
  // Later-written records may expire earlier — VEXP is expiry-sorted (§4.2.2).
  Rig rig;
  Sn long_lived = rig.put("keeps", Duration::days(10));
  Sn short_lived = rig.put("goes", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  EXPECT_TRUE(rig.store.read(long_lived).is<ReadOk>());
  EXPECT_TRUE(rig.store.read(short_lived).is<ReadDeleted>());
}

TEST(WormStore, MultiYearRetentionSurvives) {
  Rig rig(slow_timers_config());
  Sn sn = rig.put("20-year health record", Duration::years(20));
  rig.clock.advance(Duration::years(19));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
  rig.clock.advance(Duration::years(2));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kDeletedVerified);
}

class ShredPolicies : public ::testing::TestWithParam<ShredPolicy> {};
INSTANTIATE_TEST_SUITE_P(AllPolicies, ShredPolicies,
                         ::testing::Values(ShredPolicy::kZeroFill,
                                           ShredPolicy::kNist3Pass,
                                           ShredPolicy::kRandom7Pass,
                                           ShredPolicy::kCryptoShred),
                         [](const auto& param_info) {
                           return std::string(storage::to_string(param_info.param))
                                      .substr(0, 4) +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

TEST_P(ShredPolicies, ShreddingRemovesPayloadResidue) {
  Rig rig;
  common::Bytes payload = to_bytes("the incriminating memo, quite long "
                                   "so residue would be recognisable");
  Sn sn = rig.store.write(
      {.payloads = {payload}, .attr = rig.attr(Duration::hours(1), GetParam())});
  auto res = rig.store.read(sn);
  std::uint64_t block = res.get<ReadOk>().vrd.rdl.at(0).blocks.at(0);
  rig.clock.advance(Duration::hours(2));
  const common::Bytes& raw = rig.disk.raw_block(block);
  // No policy may leave the plaintext prefix in place.
  EXPECT_NE(common::to_string(common::ByteView(raw.data(), 20)),
            "the incriminating me");
}

// ---------------------------------------------------------------------------
// Litigation holds (§4.2.2)
// ---------------------------------------------------------------------------

TEST(WormStore, LitigationHoldBlocksDeletion) {
  Rig rig;
  Sn sn = rig.put("under subpoena", Duration::hours(1));
  rig.store.lit_hold({.sn = sn,
                      .lit_id = 7,
                      .hold_until = rig.clock.now() + Duration::days(30),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 7, true)});
  rig.clock.advance(Duration::hours(5));  // retention long past
  ReadOutcome res = rig.store.read(sn);
  ASSERT_TRUE(res.is<ReadOk>());
  EXPECT_TRUE(res.get<ReadOk>().vrd.attr.litigation_hold);
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);
}

TEST(WormStore, LitigationReleaseAllowsDeletion) {
  Rig rig;
  Sn sn = rig.put("under subpoena", Duration::hours(1));
  rig.store.lit_hold({.sn = sn,
                      .lit_id = 7,
                      .hold_until = rig.clock.now() + Duration::days(30),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 7, true)});
  rig.clock.advance(Duration::hours(5));
  rig.store.lit_release({.sn = sn,
                         .lit_id = 7,
                         .cred_issued_at = rig.clock.now(),
                         .credential = rig.lit_credential(sn, 7, false)});
  // Retention already lapsed, so deletion is due immediately.
  rig.clock.advance(Duration::seconds(1));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kDeletedVerified);
}

TEST(WormStore, LitigationHoldTimesOutOnItsOwn) {
  Rig rig;
  Sn sn = rig.put("held", Duration::hours(1));
  rig.store.lit_hold({.sn = sn,
                      .lit_id = 9,
                      .hold_until = rig.clock.now() + Duration::hours(10),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 9, true)});
  rig.clock.advance(Duration::hours(5));
  EXPECT_TRUE(rig.store.read(sn).is<ReadOk>());
  rig.clock.advance(Duration::hours(6));  // past the hold timeout
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kDeletedVerified);
}

TEST(WormStore, LitHoldRejectsForgedCredential) {
  Rig rig;
  Sn sn = rig.put("target", Duration::days(1));
  // Signed by some other key, not the regulation authority.
  const auto& rogue = scpu::cached_rsa_key(0xbad, 1024);
  common::Bytes forged = crypto::rsa_sign(
      rogue, lit_credential_payload(sn, rig.clock.now(), 7, true));
  EXPECT_THROW(
      rig.store.lit_hold({.sn = sn,
                          .lit_id = 7,
                          .hold_until = rig.clock.now() + Duration::days(1),
                          .cred_issued_at = rig.clock.now(),
                          .credential = forged}),
      ChannelError);
}

TEST(WormStore, LitHoldRejectsCredentialForOtherRecord) {
  Rig rig;
  Sn a = rig.put("a", Duration::days(1));
  Sn b = rig.put("b", Duration::days(1));
  common::Bytes cred_for_a = rig.lit_credential(a, 7, true);
  EXPECT_THROW(
      rig.store.lit_hold({.sn = b,
                          .lit_id = 7,
                          .hold_until = rig.clock.now() + Duration::days(1),
                          .cred_issued_at = rig.clock.now(),
                          .credential = cred_for_a}),
      ChannelError);
}

TEST(WormStore, LitHoldRejectsExpiredCredential) {
  Rig rig(slow_timers_config());
  Sn sn = rig.put("x", Duration::days(30));
  common::SimTime issued = rig.clock.now();
  common::Bytes cred = rig.lit_credential(sn, 7, true);
  rig.clock.advance(Duration::days(3));  // beyond lit_credential_max_age
  EXPECT_THROW(
      rig.store.lit_hold({.sn = sn,
                          .lit_id = 7,
                          .hold_until = rig.clock.now() + Duration::days(9),
                          .cred_issued_at = issued,
                          .credential = cred}),
      ChannelError);
}

TEST(WormStore, LitReleaseRequiresActiveHold) {
  Rig rig;
  Sn sn = rig.put("never held", Duration::days(1));
  EXPECT_THROW(
      rig.store.lit_release({.sn = sn,
                             .lit_id = 7,
                             .cred_issued_at = rig.clock.now(),
                             .credential = rig.lit_credential(sn, 7, false)}),
      ChannelError);
}

// ---------------------------------------------------------------------------
// Sliding window: base advance + compaction (§4.2.1)
// ---------------------------------------------------------------------------

TEST(WormStore, BaseAdvancesOverFullyExpiredPrefix) {
  Rig rig;
  for (int i = 0; i < 5; ++i) rig.put("r", Duration::hours(1));
  Sn live = rig.put("live", Duration::days(30));
  rig.clock.advance(Duration::hours(2));
  ASSERT_TRUE(rig.store.pump_idle());

  EXPECT_EQ(rig.firmware.sn_base(), 6u);
  // Proof entries below the base were expelled from the VRDT...
  EXPECT_EQ(rig.store.vrdt().entry_count(), 1u);
  // ...but reads still produce verifiable absence proofs.
  Outcome out = rig.verifier.verify_read(2, rig.store.read(2));
  EXPECT_EQ(out.verdict, Verdict::kDeletedVerified) << out.detail;
  EXPECT_EQ(rig.verifier.verify_read(live, rig.store.read(live)).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, CompactionReplacesInteriorRunWithWindow) {
  Rig rig;
  Sn keep_low = rig.put("low", Duration::days(30));
  for (int i = 0; i < 4; ++i) rig.put("mid", Duration::hours(1));
  Sn keep_high = rig.put("high", Duration::days(30));
  rig.clock.advance(Duration::hours(2));
  ASSERT_TRUE(rig.store.pump_idle());

  EXPECT_EQ(rig.store.vrdt().window_count(), 1u);
  EXPECT_EQ(rig.store.vrdt().entry_count(), 2u);  // the two live records
  Outcome out = rig.verifier.verify_read(3, rig.store.read(3));
  EXPECT_EQ(out.verdict, Verdict::kDeletedVerified) << out.detail;
  EXPECT_EQ(rig.verifier.verify_read(keep_low, rig.store.read(keep_low)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(rig.verifier.verify_read(keep_high, rig.store.read(keep_high)).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, ShortRunsAreNotCompacted) {
  // §4.2.1: only runs of 3+ expired records may become windows.
  Rig rig;
  rig.put("low", Duration::days(30));
  rig.put("mid-1", Duration::hours(1));
  rig.put("mid-2", Duration::hours(1));
  rig.put("high", Duration::days(30));
  rig.clock.advance(Duration::hours(2));
  rig.store.pump_idle();
  EXPECT_EQ(rig.store.vrdt().window_count(), 0u);
  // The two deletion proofs stay as individual entries.
  EXPECT_EQ(rig.store.vrdt().entry_count(), 4u);
}

TEST(WormStore, WindowedStoreStorageShrinks) {
  Rig rig;
  rig.put("anchor", Duration::days(365));
  for (int i = 0; i < 50; ++i) rig.put("bulk", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  std::size_t before = rig.store.vrdt().storage_bytes();
  while (rig.store.pump_idle()) {
  }
  std::size_t after = rig.store.vrdt().storage_bytes();
  EXPECT_LT(after, before / 4);  // 50 proofs collapsed into one window
}

// ---------------------------------------------------------------------------
// Deferred witnessing & HMAC mode (§4.3)
// ---------------------------------------------------------------------------

TEST(WormStore, DeferredWriteVerifiesUnderShortKey) {
  Rig rig;
  Sn sn = rig.put("burst record", Duration::days(1), WitnessMode::kDeferred);
  ReadOutcome res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->vrd.metasig.kind, SigKind::kShortTerm);
  Outcome out = rig.verifier.verify_read(sn, res);
  EXPECT_EQ(out.verdict, Verdict::kAuthentic) << out.detail;
}

TEST(WormStore, DeferredWriteIsStrengthenedDuringIdle) {
  Rig rig;
  Sn sn = rig.put("burst record", Duration::days(1), WitnessMode::kDeferred);
  EXPECT_EQ(rig.firmware.deferred_count(), 1u);
  ASSERT_TRUE(rig.store.pump_idle());
  EXPECT_EQ(rig.firmware.deferred_count(), 0u);

  ReadOutcome res = rig.store.read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->vrd.metasig.kind, SigKind::kStrong);
  EXPECT_EQ(ok->vrd.datasig.kind, SigKind::kStrong);
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);
}

TEST(WormStore, UnstrengthenedShortSigGoesStaleAfterLifetime) {
  // If the store never strengthens (malicious idleness), clients refuse the
  // short-lived witness once its security lifetime has run out.
  Rig rig;
  Sn sn = rig.put("burst record", Duration::days(10), WitnessMode::kDeferred);
  rig.clock.advance(Duration::hours(3));  // > rotation + lifetime
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kStaleProof) << out.detail;
}

TEST(WormStore, StrengthenedRecordSurvivesShortKeyHorizon) {
  Rig rig;
  Sn sn = rig.put("burst record", Duration::days(10), WitnessMode::kDeferred);
  rig.store.pump_idle();
  rig.clock.advance(Duration::hours(3));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, HmacWitnessIsUnverifiableUntilUpgraded) {
  Rig rig;
  Sn sn = rig.put("hmac record", Duration::days(1), WitnessMode::kHmac);
  Outcome out = rig.verifier.verify_read(sn, rig.store.read(sn));
  EXPECT_EQ(out.verdict, Verdict::kUnverifiableYet) << out.detail;

  rig.store.pump_idle();
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, MixedModeBurstAllStrengthened) {
  Rig rig;
  std::vector<Sn> sns;
  for (int i = 0; i < 30; ++i) {
    auto mode = i % 3 == 0   ? WitnessMode::kStrong
                : i % 3 == 1 ? WitnessMode::kDeferred
                             : WitnessMode::kHmac;
    sns.push_back(rig.put("r" + std::to_string(i), Duration::days(1), mode));
  }
  EXPECT_EQ(rig.firmware.deferred_count(), 20u);
  while (rig.store.pump_idle()) {
  }
  EXPECT_EQ(rig.firmware.deferred_count(), 0u);
  for (Sn sn : sns) {
    EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
              Verdict::kAuthentic);
  }
}

TEST(WormStore, ShortKeyRotatesAcrossEpochs) {
  Rig rig;
  rig.put("epoch-1", Duration::days(10), WitnessMode::kDeferred);
  rig.store.pump_idle();  // pre-generates the spare key
  rig.clock.advance(Duration::minutes(45));  // past short_key_rotation
  Sn sn2 = rig.put("epoch-2", Duration::days(10), WitnessMode::kDeferred);
  EXPECT_GE(rig.firmware.counters().key_rotations, 1u);
  // New epoch's signature verifies through its own certificate.
  auto verifier = rig.fresh_verifier();
  EXPECT_EQ(verifier.verify_read(sn2, rig.store.read(sn2)).verdict,
            Verdict::kAuthentic);
}

// ---------------------------------------------------------------------------
// Batched writes & mailbox scheduling
// ---------------------------------------------------------------------------

TEST(WormStore, WriteBatchPreservesOrderAndVerifies) {
  Rig rig;
  std::vector<WriteRequest> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back({.payloads = {to_bytes("batched " + std::to_string(i))},
                        .attr = rig.attr(Duration::days(1 + i))});
  }
  std::vector<Sn> sns = rig.store.write_batch(requests);
  ASSERT_EQ(sns.size(), requests.size());
  for (std::size_t i = 0; i < sns.size(); ++i) {
    EXPECT_EQ(sns[i], i + 1);  // submission order == SN order
    auto res = rig.store.read(sns[i]);
    auto* ok = res.get_if<ReadOk>();
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(common::to_string(ok->payloads.at(0)),
              "batched " + std::to_string(i));
    EXPECT_EQ(rig.verifier.verify_read(sns[i], res).verdict,
              Verdict::kAuthentic);
  }
}

TEST(WormStore, WriteBatchGroupsByModeAndAmortizesCrossings) {
  Rig rig;
  std::vector<WriteRequest> requests;
  for (int i = 0; i < 12; ++i) {
    // Two mode runs: 6 strong then 6 deferred — two kWriteBatch crossings.
    requests.push_back({.payloads = {to_bytes("r" + std::to_string(i))},
                        .attr = rig.attr(Duration::days(1)),
                        .mode = i < 6 ? WitnessMode::kStrong
                                      : WitnessMode::kDeferred});
  }
  auto before = rig.store.counters();
  std::vector<Sn> sns = rig.store.write_batch(requests);
  auto after = rig.store.counters();
  EXPECT_EQ(after.at("mailbox.batches") - before.at("mailbox.batches"), 2u);
  EXPECT_EQ(after.at("mailbox.batched_writes") -
                before.at("mailbox.batched_writes"),
            12u);
  EXPECT_GE(after.at("mailbox.queue_hwm"), 12u);
  // Mode boundaries respected: 6 strong witnesses, 6 short-term ones.
  for (std::size_t i = 0; i < sns.size(); ++i) {
    auto res = rig.store.read(sns[i]);
    EXPECT_EQ(res.get<ReadOk>().vrd.metasig.kind,
              i < 6 ? SigKind::kStrong : SigKind::kShortTerm);
  }
}

TEST(WormStore, WriteBatchChunksAtMaxBatch) {
  StoreConfig sc;
  sc.mailbox.max_batch = 4;
  Rig rig({}, sc);
  std::vector<WriteRequest> requests(
      10, {.payloads = {to_bytes("x")}, .attr = rig.attr(Duration::days(1))});
  (void)rig.store.write_batch(requests);  // only the crossing count matters
  // ceil(10 / 4) = 3 kWriteBatch crossings.
  EXPECT_EQ(rig.store.counters().at("mailbox.batches"), 3u);
}

TEST(WormStore, RefusedFirstChunkLeavesNoPlaintextStaged) {
  // A write_batch of three chunks whose first chunk the device refuses: a
  // witness mode it does not know (nothing on the host range-checks the
  // mode, so the refusal comes from the device's decoder). The call throws,
  // and no block holds plaintext that no VRD governs.
  StoreConfig sc;
  sc.mailbox.max_batch = 2;
  Rig rig({}, sc);
  const Attr attr = rig.attr(Duration::days(1));
  const WitnessMode unknown = static_cast<WitnessMode>(3);
  std::vector<WriteRequest> requests = {
      {.payloads = {to_bytes("refused A")}, .attr = attr, .mode = unknown},
      {.payloads = {to_bytes("refused B")}, .attr = attr, .mode = unknown},
      {.payloads = {to_bytes("later C")}, .attr = attr},
      {.payloads = {to_bytes("later D")}, .attr = attr},
      {.payloads = {to_bytes("later E")}, .attr = attr},
  };
  EXPECT_THROW((void)rig.store.write_batch(requests), ChannelError);
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
  for (std::uint64_t b = 0; b < 5; ++b) {
    EXPECT_EQ(rig.disk.raw_block(b), common::Bytes(rig.disk.block_size(), 0))
        << "block " << b;
  }
  // Every staged block is free: the next three writes take blocks 0 to 2.
  std::vector<Sn> sns =
      rig.store.write_batch(std::span(requests).subspan(2, 3));
  ASSERT_EQ(sns.size(), 3u);
  std::set<std::uint64_t> used;
  for (Sn sn : sns) {
    const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
    for (std::uint64_t b : e->vrd.rdl.at(0).blocks) used.insert(b);
  }
  EXPECT_EQ(used, (std::set<std::uint64_t>{0, 1, 2}));
}

TEST(WormStore, WriteIsABatchOfOne) {
  // With the pipeline off, write() goes through the same committer as
  // write_batch(): one kWriteBatch crossing carrying one write.
  Rig rig;
  auto before = rig.store.counters();
  (void)rig.put("lone", Duration::days(1));
  auto after = rig.store.counters();
  for (const char* key :
       {"mailbox.crossings", "mailbox.batches", "mailbox.batched_writes"}) {
    EXPECT_EQ(after.at(key) - before.at(key), 1u) << key;
  }
}

TEST(WormStore, OutOfRangeShredPolicyIsRefusedOnEveryWritePath) {
  // The SCPU would sign any shredding byte, but RecordStore::shred honors
  // only the ShredPolicy values: a record signed with 200 would read back
  // as a verified deletion with its plaintext still on the platter. Every
  // write path refuses it before storing, journaling or crossing anything.
  for (bool pipelined : {false, true}) {
    StoreConfig sc;
    sc.journal_path = ::testing::TempDir() + "shred_refused.wal";
    std::remove(sc.journal_path.c_str());
    sc.pipeline.enabled = pipelined;
    Rig rig({}, sc);
    WriteRequest good{.payloads = {to_bytes("fine")},
                      .attr = rig.attr(Duration::days(1))};
    WriteRequest bad{.payloads = {to_bytes("never shredded")},
                     .attr = rig.attr(Duration::days(1),
                                      static_cast<ShredPolicy>(200))};
    std::uint64_t disk_writes = rig.disk.stats().bytes_written;

    EXPECT_THROW((void)rig.store.write(bad), common::PreconditionError);
    EXPECT_THROW((void)rig.store.write_batch(std::vector{good, bad}),
                 common::PreconditionError);
    if (pipelined) {
      EXPECT_THROW((void)rig.store.write_async(bad),
                   common::PreconditionError);
      EXPECT_THROW((void)rig.store.try_write_async(bad),
                   common::PreconditionError);
    }
    EXPECT_EQ(rig.firmware.sn_current(), 0u) << "pipelined=" << pipelined;
    EXPECT_EQ(rig.disk.stats().bytes_written, disk_writes);
    EXPECT_EQ(std::filesystem::file_size(sc.journal_path), 0u);
  }
}

TEST(WormStore, DeadlinePressureServicesStrengtheningMidBurst) {
  // §4.3: when a deferred witness's security lifetime is about to lapse, the
  // next foreground write must let the urgent strengthen duty run first.
  core::FirmwareConfig fw = slow_timers_config();
  fw.short_key_rotation = Duration::hours(4);
  fw.short_sig_lifetime = Duration::hours(1);
  Rig rig(fw);
  rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  EXPECT_FALSE(rig.store.deadline_pressure(Duration::minutes(10)));

  rig.clock.advance(Duration::minutes(55));  // inside the 10-minute margin
  EXPECT_TRUE(rig.store.deadline_pressure(Duration::minutes(10)));

  // The foreground write triggers the urgent duty before witnessing.
  Sn sn = rig.put("foreground", Duration::days(1), WitnessMode::kDeferred);
  EXPECT_GE(rig.store.counters().at("mailbox.urgent_services"), 1u);
  // The first record was strengthened to a permanent signature in time.
  auto res = rig.store.read(1);
  EXPECT_EQ(res.get<ReadOk>().vrd.metasig.kind, SigKind::kStrong);
  // The new write's own deadline is an hour out — no pressure now.
  EXPECT_FALSE(rig.store.deadline_pressure(Duration::minutes(10)));
  EXPECT_EQ(rig.store.read(sn).get<ReadOk>().vrd.metasig.kind,
            SigKind::kShortTerm);
}

TEST(WormStore, WritePathsNeverTouchFirmwareDirectly) {
  // Every write crosses the mailbox: the transport's command counter must
  // account for each of them (plus the constructor's seeding crossings).
  Rig rig;
  auto base = rig.store.counters().at("mailbox.crossings");
  rig.put("one", Duration::days(1));
  rig.put("two", Duration::days(1));
  EXPECT_EQ(rig.store.counters().at("mailbox.crossings"), base + 2);
  // Reads are host-only (§4.2.2): no crossings at all.
  auto before_reads = rig.store.counters().at("mailbox.crossings");
  (void)rig.store.read(1);
  (void)rig.store.read(2);
  (void)rig.store.read(99);  // not allocated — answered from the heartbeat mirror
  EXPECT_EQ(rig.store.counters().at("mailbox.crossings"), before_reads);
}

TEST(WormStore, CounterKeysAreStable) {
  // counters() is the one place store counters are named. Dashboards, the
  // cluster's shard.<i>.* view and the wall-clock benchmark read these
  // keys, so adding, dropping or renaming one must change this list too.
  Rig rig;
  std::set<std::string> keys;
  for (const auto& [key, value] : rig.store.counters()) keys.emplace(key);
  const std::set<std::string> expected = {
      "store.writes",
      "store.reads",
      "store.read_many_batches",
      "store.reads_unavailable",
      "store.expirations",
      "store.compactions",
      "store.base_advances",
      "store.dedup_hits",
      "store.deferred_shreds",
      "store.degraded",
      "mailbox.crossings",
      "mailbox.bytes_crossed",
      "mailbox.error_responses",
      "mailbox.batches",
      "mailbox.batched_writes",
      "mailbox.queue_hwm",
      "mailbox.duty_runs",
      "mailbox.urgent_services",
      "mailbox.retries",
      "mailbox.dedup_hits",
      "mailbox.transport_faults",
      "mailbox.timeouts",
      "storage.read_retries",
      "fault.injected",
      "recovery.replayed",
      "recovery.resent",
      "recovery.torn_bytes",
      "recovery.orphan_blocks",
      "journal.appended_bytes",
      "journal.checkpoints",
      "journal.checkpoint_failures",
      "vrdt.entries",
      "vrdt.encoded_bytes",
      "write_pipeline.queued",
      "write_pipeline.batches",
      "write_pipeline.batch_fill_avg",
      "write_pipeline.backpressure_stalls",
      "write_pipeline.busy_rejected",
  };
  EXPECT_EQ(expected.size(), 38u);
  EXPECT_EQ(keys, expected);

  // The table's two: the entries held, and the bytes of their encodings,
  // which are what the table serializes less each entry's SN key and the
  // entry and window counts.
  rig.put("one", Duration::days(1));
  rig.put("two", Duration::days(1));
  const auto counters = rig.store.counters();
  EXPECT_EQ(counters.at("vrdt.entries"), 2u);
  EXPECT_EQ(counters.at("vrdt.encoded_bytes"),
            rig.store.vrdt().storage_bytes() - 4 - 2 * 8 - 4);
}

TEST(WormStore, RequestStructLitigationRoundTrip) {
  // write / lit_hold / lit_release through the request structs (the
  // positional overloads are gone): a hold outlives the retention period,
  // and release hands the record back to the retention clock.
  Rig rig;
  Sn sn = rig.store.write({.payloads = {to_bytes("request structs")},
                          .attr = rig.attr(Duration::hours(1))});
  rig.store.lit_hold({.sn = sn,
                      .lit_id = 7,
                      .hold_until = rig.clock.now() + Duration::days(2),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 7, true)});
  rig.clock.advance(Duration::hours(2));
  EXPECT_TRUE(rig.store.read(sn).is<ReadOk>());
  rig.store.lit_release({.sn = sn,
                         .lit_id = 7,
                         .cred_issued_at = rig.clock.now(),
                         .credential = rig.lit_credential(sn, 7, false)});
  rig.clock.advance(Duration::days(1));
  EXPECT_TRUE(rig.store.read(sn).is<ReadDeleted>());
}

// ---------------------------------------------------------------------------
// Trusted-hash burst model (§4.2.2 "Write")
// ---------------------------------------------------------------------------

TEST(WormStore, HostHashModeAuditsDuringIdle) {
  StoreConfig sc;
  sc.hash_mode = HashMode::kHostHash;
  Rig rig({}, sc);
  Sn sn = rig.put("host hashed", Duration::days(1));
  EXPECT_EQ(rig.firmware.hash_audits_pending(10).size(), 1u);
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);

  rig.store.pump_idle();
  EXPECT_TRUE(rig.firmware.hash_audits_pending(10).empty());
  EXPECT_EQ(rig.firmware.counters().hash_audits, 1u);
}

TEST(WormStore, HostHashDeferredStrengthensWithAudit) {
  StoreConfig sc;
  sc.hash_mode = HashMode::kHostHash;
  sc.default_mode = WitnessMode::kDeferred;
  Rig rig({}, sc);
  Sn sn = rig.put("host hashed burst", Duration::days(1));
  while (rig.store.pump_idle()) {
  }
  auto res = rig.store.read(sn);
  EXPECT_EQ(res.get<ReadOk>().vrd.metasig.kind, SigKind::kStrong);
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);
  EXPECT_TRUE(rig.firmware.hash_audits_pending(10).empty());
}

// ---------------------------------------------------------------------------
// VEXP memory pressure (§4.2.2)
// ---------------------------------------------------------------------------

TEST(WormStore, VexpOverflowIsRebuiltAndStillDeletes) {
  core::FirmwareConfig fw;
  fw.vexp_memory_bytes = 24 * 8;  // room for only 8 entries
  Rig rig(fw);
  std::vector<Sn> sns;
  for (int i = 0; i < 30; ++i) sns.push_back(rig.put("r", Duration::hours(1)));
  EXPECT_TRUE(rig.firmware.vexp_incomplete());

  rig.store.pump_idle();  // triggers the VEXP rebuild scan
  rig.clock.advance(Duration::hours(2));
  // Rebuild can itself overflow again; keep pumping as a real host would.
  for (int round = 0; round < 10; ++round) {
    rig.store.pump_idle();
    rig.clock.advance(Duration::minutes(1));
  }
  std::size_t deleted = 0;
  for (Sn sn : sns) {
    auto res = rig.store.read(sn);
    if (!res.is<ReadOk>()) ++deleted;
  }
  EXPECT_EQ(deleted, sns.size());
}

// ---------------------------------------------------------------------------
// Compliant migration (§1)
// ---------------------------------------------------------------------------

TEST(Migration, MovesRecordsAndPreservesExpiry) {
  Rig src;
  Rig dst(core::FirmwareConfig{.seed = 0xd15c}, StoreConfig{.store_id = 2});
  Sn a = src.put("record A", Duration::days(10));
  src.put("record B", Duration::days(20));
  src.clock.advance(Duration::days(4));
  dst.clock.advance(Duration::days(4));

  MigrationReport report = Migrator::migrate(src.store, dst.store, src.verifier);
  ASSERT_TRUE(report.clean());
  EXPECT_EQ(report.migrated(), 2u);
  EXPECT_TRUE(Migrator::verify_report(report, src.store.anchors()));

  // Destination serves authentic reads under ITS OWN anchors.
  ClientVerifier dst_verifier(dst.store.anchors(), dst.clock);
  for (const auto& e : report.entries) {
    Outcome out = dst_verifier.verify_read(e.dest_sn, dst.store.read(e.dest_sn));
    EXPECT_EQ(out.verdict, Verdict::kAuthentic) << out.detail;
  }

  // Record A had 6 days left; it must expire ~6 days later at the dest.
  Sn a_dst = report.entries.at(0).source_sn == a ? report.entries.at(0).dest_sn
                                                 : report.entries.at(1).dest_sn;
  dst.clock.advance(Duration::days(5));
  EXPECT_TRUE(dst.store.read(a_dst).is<ReadOk>());
  dst.clock.advance(Duration::days(2));
  EXPECT_TRUE(dst.store.read(a_dst).is<ReadDeleted>());
}

TEST(Migration, RefusesTamperedSourceRecords) {
  Rig src;
  Rig dst(core::FirmwareConfig{.seed = 0xd15c}, StoreConfig{.store_id = 2});
  Sn good = src.put("good", Duration::days(10));
  Sn bad = src.put("bad", Duration::days(10));
  // Insider rewrites the data blocks of `bad` behind the WORM layer.
  auto res = src.store.read(bad);
  std::uint64_t block = res.get<ReadOk>().vrd.rdl.at(0).blocks.at(0);
  src.disk.raw_block(block)[0] ^= 0xff;

  MigrationReport report = Migrator::migrate(src.store, dst.store, src.verifier);
  EXPECT_EQ(report.migrated(), 1u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected.at(0), bad);
  EXPECT_EQ(report.entries.at(0).source_sn, good);
  EXPECT_TRUE(Migrator::verify_report(report, src.store.anchors()));
}

TEST(Migration, LitigationHoldTravelsWithRecord) {
  Rig src;
  Rig dst(core::FirmwareConfig{.seed = 0xd15c}, StoreConfig{.store_id = 2});
  Sn sn = src.put("held", Duration::hours(1));
  src.store.lit_hold({.sn = sn,
                      .lit_id = 7,
                      .hold_until = src.clock.now() + Duration::days(30),
                      .cred_issued_at = src.clock.now(),
                      .credential = src.lit_credential(sn, 7, true)});

  MigrationReport report = Migrator::migrate(src.store, dst.store, src.verifier);
  ASSERT_EQ(report.migrated(), 1u);
  Sn dst_sn = report.entries.at(0).dest_sn;

  // Retention lapses at dest, but the hold must still block deletion there.
  dst.clock.advance(Duration::hours(5));
  auto res = dst.store.read(dst_sn);
  ASSERT_TRUE(res.is<ReadOk>());
  EXPECT_TRUE(res.get<ReadOk>().vrd.attr.litigation_hold);
}

TEST(Migration, TamperedManifestFailsAudit) {
  Rig src;
  Rig dst(core::FirmwareConfig{.seed = 0xd15c}, StoreConfig{.store_id = 2});
  src.put("r1", Duration::days(10));
  src.put("r2", Duration::days(10));
  MigrationReport report = Migrator::migrate(src.store, dst.store, src.verifier);
  ASSERT_TRUE(Migrator::verify_report(report, src.store.anchors()));
  report.entries.pop_back();  // auditor sees a dropped record
  EXPECT_FALSE(Migrator::verify_report(report, src.store.anchors()));
}

// ---------------------------------------------------------------------------
// Tamper response (FIPS 140-2 L4, §2.2)
// ---------------------------------------------------------------------------

TEST(WormStore, TamperResponseKillsTheDevice) {
  Rig rig;
  rig.put("r", Duration::days(1));
  rig.device.trigger_tamper_response();
  // The first crossing after zeroization degrades the store to read-only
  // verified mode; the mutation is refused with the degraded-mode error.
  EXPECT_THROW(rig.put("after tamper", Duration::days(1)),
               common::ReadOnlyStoreError);
  EXPECT_TRUE(rig.store.degraded());
  // Existing records remain client-verifiable (signatures are on disk).
  EXPECT_EQ(rig.verifier.verify_read(1, rig.store.read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, ReadsStayTotalAfterTamperResponse) {
  // Reads are host-only; even with the SCPU zeroized, every read returns an
  // answer (possibly an honest failure) rather than throwing.
  Rig rig;
  for (int i = 0; i < 3; ++i) rig.put("r", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  ASSERT_EQ(rig.firmware.sn_base(), 4u);

  rig.device.trigger_tamper_response();
  // Expire the cached base proof, then read below the base: no throw.
  rig.clock.advance(Duration::hours(2));
  ReadOutcome res = rig.store.read(1);
  // Whatever came back, the client is not fooled: the stale base proof (or
  // explicit failure) is not a trustworthy denial... but it IS an answer.
  Outcome out = rig.verifier.verify_read(1, res);
  EXPECT_TRUE(out.verdict == Verdict::kStaleProof ||
              out.verdict == Verdict::kTampered ||
              out.verdict == Verdict::kDeletedVerified)
      << to_string(out.verdict);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(Vrdt, SurvivesSaveLoadRoundTrip) {
  Rig rig;
  rig.put("persisted-1", Duration::days(1));
  rig.put("persisted-2", Duration::hours(1));
  rig.put("persisted-3", Duration::days(1));
  rig.clock.advance(Duration::hours(2));  // middle record now deleted

  std::string path = ::testing::TempDir() + "/vrdt.bin";
  rig.store.vrdt().save(path);
  Vrdt loaded = Vrdt::load(path);
  EXPECT_EQ(loaded.entry_count(), rig.store.vrdt().entry_count());
  EXPECT_EQ(loaded.active_count(), 2u);
  ASSERT_TRUE(loaded.find(2).has_value());
  EXPECT_EQ(loaded.find(2)->kind, Vrdt::Entry::Kind::kDeleted);
  // Signatures still verify after the round trip.
  EXPECT_TRUE(rig.verifier
                  .verify_vrd(loaded.find(1)->vrd,
                              {common::to_bytes("persisted-1")})
                  .verdict == Verdict::kAuthentic);
}

// ---------------------------------------------------------------------------
// Epoch attestation: O(1)-amortized freshness
// ---------------------------------------------------------------------------

TEST(WormStore, SteadyStateReadsNeedNoAttestationCrossings) {
  // The epoch cert is the amortized freshness carrier: it rides write-batch
  // acks, so a read-mostly workload with a trickle of writes stays fresh
  // without a single dedicated attestation crossing. Counter-verified: the
  // firmware's heartbeat-signature counter must not move during the read
  // phase. Slow timers keep the background heartbeat alarm out of the way so
  // the counter isolates exactly the crossings the session forces.
  Rig rig(worm::testing::slow_timers_config());
  WormSession session(rig.store, "auditor", rig.clock);
  for (int i = 0; i < 8; ++i) rig.put("seed", Duration::days(30));
  session.sync();
  ASSERT_TRUE(session.epoch_cert().has_value());
  ASSERT_TRUE(session.fresh(session.freshness_horizon()));

  const std::uint64_t hb0 = rig.firmware.counters().heartbeats;
  const std::uint64_t certs0 = rig.firmware.counters().epoch_certs;
  for (int round = 0; round < 6; ++round) {
    rig.clock.advance(kEpochInterval + Duration::seconds(1));
    rig.put("tick", Duration::days(30));  // ack piggybacks the rolled cert
    session.sync();
    for (int r = 0; r < 25; ++r) {
      ReadOutcome out = session.read(1 + static_cast<Sn>(r % 8));
      EXPECT_NE(out.get_if<ReadOk>(), nullptr);
      EXPECT_TRUE(session.fresh(session.freshness_horizon()));
    }
  }
  // Zero per-read attestation crossings...
  EXPECT_EQ(rig.firmware.counters().heartbeats, hb0);
  // ...because the epoch cert kept rolling on the write path instead.
  EXPECT_GT(rig.firmware.counters().epoch_certs, certs0);
  EXPECT_EQ(rig.verifier.verify_epoch_cert(*session.epoch_cert()).verdict,
            Verdict::kAuthentic);
}

TEST(WormStore, EpochCertAdoptedFromWriteAcks) {
  Rig rig;
  ASSERT_FALSE(rig.store.latest_epoch_cert().has_value());
  rig.put("first", Duration::days(1));
  std::optional<EpochCert> cert = rig.store.latest_epoch_cert();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(rig.verifier.verify_epoch_cert(*cert).verdict,
            Verdict::kAuthentic);

  // Monotone adoption: after the interval elapses, the next write's ack
  // carries a higher epoch and the store's cache moves with it.
  rig.clock.advance(kEpochInterval + Duration::seconds(1));
  rig.put("second", Duration::days(1));
  std::optional<EpochCert> newer = rig.store.latest_epoch_cert();
  ASSERT_TRUE(newer.has_value());
  EXPECT_GT(newer->epoch, cert->epoch);
}

}  // namespace
}  // namespace worm::core
