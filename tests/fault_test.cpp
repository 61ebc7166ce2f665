// FaultInjector semantics (determinism, budgets, scheduling, time windows)
// and the storage-layer fault points: transient device errors absorbed by
// the record-store retry budget, bus glitches vs medium damage, torn writes
// that fail without materializing anything, and journal append faults.
#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "fault_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::FaultInjector;
using common::FaultKind;
using common::FaultSpec;
using worm::testing::CrashRig;

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisionStream) {
  FaultInjector a(42);
  FaultInjector b(42);
  FaultSpec spec{.kind = FaultKind::kTransient, .probability = 0.3};
  a.arm("site", spec);
  b.arm("site", spec);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.evaluate_site("site"), b.evaluate_site("site")) << "eval " << i;
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());
  EXPECT_GT(a.injected_total(), 0u);
  EXPECT_LT(a.injected_total(), 200u);
}

TEST(FaultInjector, CertainAndImpossibleProbabilities) {
  FaultInjector inj(7);
  inj.arm("always", {.kind = FaultKind::kDrop, .probability = 1.0});
  inj.arm("never", {.kind = FaultKind::kDrop, .probability = 0.0});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(inj.evaluate_site("always"), FaultKind::kDrop);
    EXPECT_EQ(inj.evaluate_site("never"), FaultKind::kNone);
  }
  EXPECT_EQ(inj.site_stats("always").fires, 50u);
  EXPECT_EQ(inj.site_stats("never").fires, 0u);
  EXPECT_EQ(inj.site_stats("never").evaluations, 50u);
}

TEST(FaultInjector, MaxFiresBoundsTheBudget) {
  FaultInjector inj(7);
  inj.arm("site",
          {.kind = FaultKind::kTransient, .probability = 1.0, .max_fires = 3});
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (inj.evaluate_site("site") != FaultKind::kNone) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.injected_total(), 3u);
}

TEST(FaultInjector, ScheduledOneShotFiresOnExactlyTheNthEvaluation) {
  FaultInjector inj(9);
  inj.schedule("site", FaultKind::kTorn, 3);
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kNone);
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kNone);
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kTorn);
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kNone);
}

TEST(FaultInjector, ScheduleCountsFromSchedulingTime) {
  FaultInjector inj(9);
  (void)inj.evaluate_site("site");
  (void)inj.evaluate_site("site");
  inj.schedule("site", FaultKind::kDrop, 1);  // the NEXT evaluation
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kDrop);
}

TEST(FaultInjector, TimeWindowGatesArmedSpecs) {
  common::SimClock clock;
  FaultInjector inj(3, &clock);
  FaultSpec spec{.kind = FaultKind::kTransient,
                 .probability = 1.0,
                 .not_before = clock.now() + Duration::hours(1),
                 .not_after = clock.now() + Duration::hours(2)};
  inj.arm("site", spec);
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kNone);  // too early
  clock.advance(Duration::minutes(90));
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kTransient);  // in window
  clock.advance(Duration::hours(1));
  EXPECT_EQ(inj.evaluate_site("site"), FaultKind::kNone);  // too late
}

TEST(FaultInjector, DisarmSilencesOneSiteDisarmAllEverything) {
  FaultInjector inj(3);
  inj.arm("a", {.kind = FaultKind::kDrop});
  inj.arm("b", {.kind = FaultKind::kDrop});
  inj.disarm("a");
  EXPECT_EQ(inj.evaluate_site("a"), FaultKind::kNone);
  EXPECT_EQ(inj.evaluate_site("b"), FaultKind::kDrop);
  inj.schedule("b", FaultKind::kTorn, 1);
  inj.disarm_all();
  EXPECT_EQ(inj.evaluate_site("b"), FaultKind::kNone);
}

TEST(FaultInjector, ShapeStaysInBound) {
  FaultInjector inj(11);
  for (int i = 0; i < 100; ++i) EXPECT_LT(inj.shape(13), 13u);
  EXPECT_EQ(inj.shape(1), 0u);
}

TEST(FaultInjector, NullInjectorFaultPointIsQuiet) {
  FaultInjector* none = nullptr;
  EXPECT_EQ(WORM_FAULT_POINT(none, "any.site"), FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Storage fault points through the full store
// ---------------------------------------------------------------------------

TEST(StorageFaults, TransientReadAbsorbedByRetryBudget) {
  CrashRig rig("");
  Sn sn = rig.put("fragile", Duration::days(1));
  rig.fault.schedule("device.read", FaultKind::kTransient, 1);
  ReadOutcome res = rig.store->read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(common::to_string(ok->payloads.at(0)), "fragile");
  EXPECT_GT(rig.store->counters().at("storage.read_retries"), 0u);
  EXPECT_GT(rig.store->counters().at("fault.injected"), 0u);
}

TEST(StorageFaults, ReadBusGlitchRetriedViaChecksum) {
  // A bit flip on the in-flight copy fails the descriptor checksum; the
  // retry re-reads the (intact) stored block and serves clean bytes. The
  // payload fills its block so the flip is guaranteed to land on covered
  // bytes, not slack.
  CrashRig rig("");
  std::string big(4096, 'g');
  Sn sn = rig.put(big, Duration::days(1));
  rig.fault.schedule("device.read", FaultKind::kBitFlip, 1);
  ReadOutcome res = rig.store->read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(common::to_string(ok->payloads.at(0)), big);
  EXPECT_EQ(rig.verifier().verify_read(sn, res).verdict, Verdict::kAuthentic);
  EXPECT_GT(rig.records->read_retries(), 0u);
}

TEST(StorageFaults, PersistentReadFaultBecomesReadUnavailable) {
  CrashRig rig("");
  Sn sn = rig.put("unreachable", Duration::days(1));
  rig.fault.arm("device.read", {.kind = FaultKind::kTransient});
  ReadOutcome res = rig.store->read(sn);
  auto* gone = res.get_if<ReadUnavailable>();
  ASSERT_NE(gone, nullptr) << to_string(res.status());
  EXPECT_TRUE(gone->retryable);
  Outcome out = rig.verifier().verify_read(sn, res);
  EXPECT_EQ(out.verdict, Verdict::kUnavailable) << out.detail;
  EXPECT_EQ(rig.store->counters().at("store.reads_unavailable"), 1u);

  // The outage is transient by definition: disarm and the record is back.
  rig.fault.disarm("device.read");
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(StorageFaults, MediumDamageStillReachesTheClientAsTampering) {
  // A write-side bit flip corrupts the stored block itself. The store serves
  // the damaged bytes (checksum mismatch outlives the retry budget) and the
  // client's datasig check convicts — faults must never mask tampering.
  CrashRig rig("");
  rig.fault.schedule("device.write", FaultKind::kBitFlip, 1);
  Sn sn = rig.put(std::string(4096, 'd'), Duration::days(1));
  ReadOutcome res = rig.store->read(sn);
  ASSERT_TRUE(res.is<ReadOk>()) << to_string(res.status());
  EXPECT_EQ(rig.verifier().verify_read(sn, res).verdict, Verdict::kTampered);
}

TEST(StorageFaults, TornWriteFailsWithoutMaterializingTheRecord) {
  CrashRig rig("");
  Sn before = rig.firmware.sn_current();
  rig.fault.schedule("device.write", FaultKind::kTorn, 1);
  EXPECT_THROW((void)rig.put("torn", Duration::days(1)),
               common::TransientStorageError);
  // Nothing crossed the mailbox: no serial number was issued.
  EXPECT_EQ(rig.firmware.sn_current(), before);
  // The retry (new blocks, fresh descriptor) succeeds.
  Sn sn = rig.put("torn retry", Duration::days(1));
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(StorageFaults, RecordStoreTransientWriteFaultFailsCleanly) {
  CrashRig rig("");
  rig.fault.schedule("records.write", FaultKind::kTransient, 1);
  Sn before = rig.firmware.sn_current();
  EXPECT_THROW((void)rig.put("refused", Duration::days(1)),
               common::TransientStorageError);
  EXPECT_EQ(rig.firmware.sn_current(), before);
}

TEST(StorageFaults, JournalAppendFaultFailsTheWriteBeforeTheCrossing) {
  CrashRig rig("journal_append_fault.wal");
  Sn before = rig.firmware.sn_current();
  rig.fault.schedule("journal.append", FaultKind::kTransient, 1);
  EXPECT_THROW((void)rig.put("unjournaled", Duration::days(1)),
               common::TransientStorageError);
  // The intent never reached the journal, so the command never crossed.
  EXPECT_EQ(rig.firmware.sn_current(), before);
  Sn sn = rig.put("journaled retry", Duration::days(1));
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

}  // namespace
}  // namespace worm::core
