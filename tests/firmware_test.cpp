// Firmware-level unit tests: cost charging, counters, strengthening
// semantics, strengthen/audit error paths, and battery-backed NVRAM state
// surviving a simulated power cycle.
#include <gtest/gtest.h>

#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::Duration;
using common::to_bytes;
using worm::testing::Rig;

TEST(Firmware, WriteChargesPlausibleSimulatedTime) {
  Rig rig;
  common::SimTime t0 = rig.clock.now();
  rig.put("r", Duration::days(1));  // strong mode: 2 x 1024-bit signatures
  double ms = (rig.clock.now() - t0).to_seconds_f() * 1e3;
  // 2 sigs at 848/s = 2.36 ms, plus hashing/DMA/command overhead.
  EXPECT_GE(ms, 2.3);
  EXPECT_LE(ms, 5.0);
}

TEST(Firmware, DeferredWriteIsCheaperThanStrong) {
  Rig rig;
  common::SimTime t0 = rig.clock.now();
  rig.put("r", Duration::days(1), WitnessMode::kStrong);
  common::Duration strong = rig.clock.now() - t0;
  t0 = rig.clock.now();
  rig.put("r", Duration::days(1), WitnessMode::kDeferred);
  common::Duration deferred = rig.clock.now() - t0;
  // Both modes pay the SCPU data hash here (kScpuHash); the signature cost
  // drops ~5x (848/s -> 4200/s), which nets out to >2x per write.
  EXPECT_LT(deferred.ns * 2, strong.ns);
}

TEST(Firmware, CountersTrackOperations) {
  Rig rig;
  rig.put("a", Duration::hours(1));
  rig.put("b", Duration::days(1), WitnessMode::kDeferred);
  rig.store.pump_idle();
  rig.clock.advance(Duration::hours(2));
  const auto& c = rig.firmware.counters();
  EXPECT_EQ(c.writes, 2u);
  EXPECT_EQ(c.strengthened, 1u);
  EXPECT_EQ(c.deletions, 1u);
  EXPECT_GE(c.heartbeats, 1u);
}

TEST(Firmware, StrengthenRejectsNonPendingSn) {
  Rig rig;
  Sn sn = rig.put("strong already", Duration::days(1));
  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
  EXPECT_THROW(rig.firmware.strengthen({e->vrd}, {{}}), common::ScpuError);
}

TEST(Firmware, StrengthenRejectsForgedShortWitness) {
  Rig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  Vrd forged = rig.store.vrdt().find(sn)->vrd;
  forged.attr.retention = Duration::hours(1);  // Mallory edits, sig now stale
  EXPECT_THROW(rig.firmware.strengthen({forged}, {{}}), common::ScpuError);
}

TEST(Firmware, AuditHashCatchesLyingHost) {
  StoreConfig sc;
  sc.hash_mode = HashMode::kHostHash;
  Rig rig({}, sc);
  Sn sn = rig.put("real content", Duration::days(1));
  // The host claims hash(real content) but streams different bytes for the
  // idle-time audit — the burst-mode cheat §4.2.2's deferred check catches.
  EXPECT_THROW(rig.firmware.audit_hash(sn, {to_bytes("forged content")}),
               common::ScpuError);
  // Honest audit passes.
  Sn sn2 = rig.put("more content", Duration::days(1));
  EXPECT_NO_THROW(rig.firmware.audit_hash(sn2, {to_bytes("more content")}));
  EXPECT_THROW(rig.firmware.audit_hash(99, {to_bytes("x")}),
               common::ScpuError);  // no pending audit
}

TEST(Firmware, EarliestDeadlineTracksQueue) {
  Rig rig;
  EXPECT_EQ(rig.firmware.earliest_deadline(), common::SimTime::max());
  common::SimTime before = rig.clock.now();
  rig.put("a", Duration::days(1), WitnessMode::kDeferred);
  common::SimTime first = rig.firmware.earliest_deadline();
  // The deadline is stamped mid-write (the clock moves as costs accrue).
  EXPECT_GE(first, before + rig.firmware.config().short_sig_lifetime);
  EXPECT_LE(first,
            rig.clock.now() + rig.firmware.config().short_sig_lifetime);
  rig.store.pump_idle();
  EXPECT_EQ(rig.firmware.earliest_deadline(), common::SimTime::max());
}

TEST(Firmware, AdvanceBaseRejectsGapsAndRegressions) {
  Rig rig;
  rig.put("live", Duration::days(30));
  EXPECT_THROW(rig.firmware.advance_base(2, {}, {}), common::ScpuError);
  EXPECT_THROW(rig.firmware.advance_base(1, {}, {}),
               common::PreconditionError);  // not an advance
  EXPECT_THROW(rig.firmware.advance_base(99, {}, {}),
               common::PreconditionError);  // beyond SN_current
}

TEST(Firmware, CertifyWindowEnforcesMinimumRun) {
  Rig rig;
  rig.put("a", Duration::hours(1));
  rig.put("b", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));
  std::vector<DeletionProof> proofs;
  for (Sn sn : {Sn{1}, Sn{2}}) {
    proofs.push_back(rig.store.vrdt().find(sn)->proof);
  }
  EXPECT_THROW(rig.firmware.certify_window(1, 2, proofs), common::ScpuError);
}

TEST(Firmware, ShortKeyEpochsRetireAfterStrengthening) {
  Rig rig;
  rig.put("r", Duration::days(1), WitnessMode::kDeferred);
  rig.store.pump_idle();                      // strengthen + pre-gen spare
  rig.clock.advance(Duration::minutes(45));   // rotation due
  rig.put("r2", Duration::days(1), WitnessMode::kDeferred);  // rotates
  while (rig.store.pump_idle()) {
  }
  // All deferred signatures strengthened; only the current epoch remains.
  EXPECT_EQ(rig.store.anchors().short_certs.size(), 1u);
}

TEST(Firmware, DeadlinePressureDrivesTimelyStrengthening) {
  // A conforming host that checks deadline_pressure() during a sustained
  // burst never lets a short-lived witness outlive its security lifetime:
  // every record stays continuously client-verifiable.
  Rig rig;
  auto margin = Duration::minutes(10);
  std::vector<Sn> sns;
  for (int burst_minute = 0; burst_minute < 90; ++burst_minute) {
    for (int i = 0; i < 3; ++i) {
      sns.push_back(rig.put("burst", Duration::days(10),
                            WitnessMode::kDeferred));
    }
    rig.clock.advance(Duration::minutes(1));
    if (rig.store.deadline_pressure(margin)) {
      while (rig.store.deadline_pressure(margin) && rig.store.pump_idle()) {
      }
    }
  }
  auto verifier = rig.fresh_verifier();
  for (Sn sn : sns) {
    Outcome out = verifier.verify_read(sn, rig.store.read(sn));
    ASSERT_EQ(out.verdict, Verdict::kAuthentic)
        << "sn=" << sn << " " << out.detail;
  }
}

TEST(Firmware, NoDeadlinePressureWithoutDeferredWork) {
  Rig rig;
  EXPECT_FALSE(rig.store.deadline_pressure());
  rig.put("strong", Duration::days(1));  // strong writes create no backlog
  EXPECT_FALSE(rig.store.deadline_pressure());
  rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  // Deadline is one lifetime away; no pressure yet with a 10-min margin.
  EXPECT_FALSE(rig.store.deadline_pressure(Duration::minutes(10)));
  // But with a margin beyond the lifetime it trips immediately.
  EXPECT_TRUE(rig.store.deadline_pressure(Duration::hours(2)));
}

// ---------------------------------------------------------------------------
// NVRAM power-cycle persistence
// ---------------------------------------------------------------------------

TEST(FirmwareNvram, StateSurvivesPowerCycle) {
  core::FirmwareConfig cfg = worm::testing::slow_timers_config();
  Rig rig(cfg);
  rig.put("before reboot", Duration::days(30));
  Sn deferred_sn = rig.put("pending strengthen", Duration::days(30),
                           WitnessMode::kDeferred);
  Bytes nvram = rig.firmware.save_nvram();

  // Power cycle: a new enclosure boot with the same seed and config.
  scpu::ScpuDevice device2(rig.clock, scpu::CostModel::ibm4764());
  Firmware fw2(device2, cfg, worm::testing::regulator_key().public_key());
  fw2.restore_nvram(nvram);

  // Serial-number monotonicity is preserved — the counter did not reset.
  EXPECT_EQ(fw2.sn_current(), 2u);
  EXPECT_EQ(fw2.sn_base(), 1u);
  // The strengthening queue survived.
  EXPECT_EQ(fw2.deferred_pending(10), std::vector<Sn>{deferred_sn});
  // Old short-term signatures verify under the restored epoch key, and the
  // restored firmware can strengthen them.
  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(deferred_sn);
  auto results = fw2.strengthen({e->vrd}, {{}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metasig.kind, SigKind::kStrong);
}

TEST(FirmwareNvram, RetentionEnforcedAcrossReboot) {
  core::FirmwareConfig cfg = worm::testing::slow_timers_config();
  common::SimClock clock;
  scpu::ScpuDevice dev1(clock, scpu::CostModel::ibm4764());
  Firmware fw1(dev1, cfg, worm::testing::regulator_key().public_key());
  storage::MemBlockDevice disk(4096, 256, &clock);
  storage::RecordStore records(disk);
  Bytes nvram;
  {
    WormStore store1(clock, fw1, records, StoreConfig{});
    (void)store1.write({.payloads = {to_bytes("expires soon")},
                  .attr = [&] {
                    Attr a;
                    a.retention = Duration::hours(1);
                    return a;
                  }()});
    nvram = fw1.save_nvram();
  }

  // Reboot into a new firmware; attach a fresh host store over the SAME
  // persisted VRDT semantics (here: re-driven through a new WormStore).
  scpu::ScpuDevice dev2(clock, scpu::CostModel::ibm4764());
  Firmware fw2(dev2, cfg, worm::testing::regulator_key().public_key());
  fw2.restore_nvram(nvram);
  WormStore store2(clock, fw2, records, StoreConfig{});

  std::uint64_t deletions_before = fw2.counters().deletions;
  clock.advance(Duration::hours(2));
  // The restored VEXP drove the retention monitor in the new device.
  EXPECT_EQ(fw2.counters().deletions, deletions_before + 1);
}

TEST(FirmwareNvram, RestoreRejectsCorruptState) {
  core::FirmwareConfig cfg;
  Rig rig(cfg);
  rig.put("r", Duration::days(1));
  Bytes nvram = rig.firmware.save_nvram();

  scpu::ScpuDevice device2(rig.clock, scpu::CostModel::ibm4764());
  {
    Firmware fw2(device2, cfg, worm::testing::regulator_key().public_key());
    Bytes bad = nvram;
    bad[4] ^= 0xff;  // corrupt the magic
    EXPECT_THROW(fw2.restore_nvram(bad), common::ParseError);
  }
  {
    Firmware fw3(device2, cfg, worm::testing::regulator_key().public_key());
    Bytes trunc(nvram.begin(), nvram.begin() + 20);
    EXPECT_THROW(fw3.restore_nvram(trunc), common::ParseError);
  }
}

TEST(FirmwareNvram, RestoreRefusedOnceInService) {
  Rig rig;
  Bytes nvram = rig.firmware.save_nvram();
  rig.put("now in service", Duration::days(1));
  EXPECT_THROW(rig.firmware.restore_nvram(nvram), common::PreconditionError);
}

}  // namespace
}  // namespace worm::core
