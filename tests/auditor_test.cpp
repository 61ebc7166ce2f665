// Whole-store audit + full host-restart integration: the auditor must count
// every issued serial number exactly once, flag every attack the adversary
// module can mount, and keep working across a complete power cycle (NVRAM +
// persisted VRDT + record-store allocator state over a file-backed device).
#include <gtest/gtest.h>

#include "adversary/mallory.hpp"
#include "worm/auditor.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::Duration;
using common::to_bytes;
using worm::testing::Rig;

TEST(Auditor, EmptyStoreIsClean) {
  Rig rig;
  AuditReport report = Auditor::audit_store(rig.store, rig.verifier);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.scanned(), 0u);
}

TEST(Auditor, MixedLifecycleCountsAddUp) {
  Rig rig;
  for (int i = 0; i < 6; ++i) rig.put("live", Duration::days(30));
  for (int i = 0; i < 4; ++i) rig.put("dying", Duration::hours(1));
  rig.put("hmac", Duration::days(30), WitnessMode::kHmac);
  rig.clock.advance(Duration::hours(2));  // the 4 short ones expire

  AuditReport report = Auditor::audit_store(rig.store, rig.verifier);
  EXPECT_TRUE(report.clean()) << Auditor::summarize(report);
  EXPECT_EQ(report.scanned(), 11u);
  EXPECT_EQ(report.authentic, 6u);
  EXPECT_EQ(report.deleted_verified, 4u);
  EXPECT_EQ(report.unverifiable_yet, 1u);
}

TEST(Auditor, CountsStayCorrectAfterCompactionAndBaseAdvance) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.put("r", Duration::hours(1));
  Sn live = rig.put("live", Duration::days(30));
  rig.clock.advance(Duration::hours(2));
  while (rig.store.pump_idle()) {
  }
  // All 10 proofs are gone from the VRDT (base advanced), yet the audit
  // still accounts for every SN via the signed base.
  AuditReport report = Auditor::audit_store(rig.store, rig.verifier);
  EXPECT_TRUE(report.clean()) << Auditor::summarize(report);
  EXPECT_EQ(report.deleted_verified, 10u);
  EXPECT_EQ(report.authentic, 1u);
  EXPECT_EQ(report.last_sn, live);
}

TEST(Auditor, FlagsEveryAttackKind) {
  Rig rig;
  crypto::Drbg rng(0xa0d1);
  Sn tampered = rig.put("will be tampered", Duration::days(30));
  Sn hidden = rig.put("will be hidden", Duration::days(30));
  Sn forged = rig.put("will get forged proof", Duration::days(30));
  Sn honest = rig.put("honest", Duration::days(30));
  rig.clock.advance(Duration::minutes(3));  // heartbeat covers all four

  adversary::tamper_record_data(rig.store, rig.disk, tampered);
  adversary::hide_record(rig.store, hidden);
  adversary::forge_deletion(rig.store, forged, rng);

  AuditReport report = Auditor::audit_store(rig.store, rig.verifier);
  EXPECT_EQ(report.findings.size(), 3u) << Auditor::summarize(report);
  EXPECT_EQ(report.authentic, 1u);
  std::set<Sn> flagged;
  for (const auto& f : report.findings) flagged.insert(f.sn);
  EXPECT_EQ(flagged, (std::set<Sn>{tampered, hidden, forged}));
  (void)honest;
}

TEST(Auditor, RangeAuditSubsets) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.put("r", Duration::days(30));
  AuditReport report = Auditor::audit_range(rig.store, rig.verifier, 3, 7);
  EXPECT_EQ(report.scanned(), 5u);
  EXPECT_EQ(report.authentic, 5u);
}

TEST(Auditor, SummaryMentionsFindings) {
  Rig rig;
  Sn sn = rig.put("x", Duration::days(30));
  rig.clock.advance(Duration::minutes(3));
  adversary::tamper_record_data(rig.store, rig.disk, sn);
  AuditReport report = Auditor::audit_store(rig.store, rig.verifier);
  std::string s = Auditor::summarize(report);
  EXPECT_NE(s.find("1 finding"), std::string::npos) << s;
  EXPECT_NE(s.find("TAMPERED"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Full host restart over persistent media
// ---------------------------------------------------------------------------

TEST(Restart, FullPowerCycleOverFileBackedDevice) {
  std::string dir = ::testing::TempDir();
  std::string disk_path = dir + "/restart_disk.bin";
  std::string vrdt_path = dir + "/restart_vrdt.bin";
  core::FirmwareConfig cfg = worm::testing::slow_timers_config();

  common::SimClock clock;
  Bytes nvram;
  Sn live = 0, dying = 0;

  {  // --- first boot: ingest, then shut down cleanly ---
    scpu::ScpuDevice device(clock, scpu::CostModel::ibm4764());
    Firmware fw(device, cfg, worm::testing::regulator_key().public_key());
    storage::FileBlockDevice disk(disk_path, 4096, 256);
    storage::RecordStore records(disk);
    WormStore store(clock, fw, records, StoreConfig{});

    Attr keep;
    keep.retention = Duration::days(30);
    Attr brief;
    brief.retention = Duration::hours(1);
    live = store.write(
        {.payloads = {to_bytes("survives the reboot")}, .attr = keep});
    dying = store.write(
        {.payloads = {to_bytes("expires after the reboot")}, .attr = brief});

    store.vrdt().save(vrdt_path);
    nvram = fw.save_nvram();
    disk.flush();
  }

  {  // --- second boot: restore every component, continue operating ---
    scpu::ScpuDevice device(clock, scpu::CostModel::ibm4764());
    Firmware fw(device, cfg, worm::testing::regulator_key().public_key());
    fw.restore_nvram(nvram);
    storage::FileBlockDevice disk(disk_path, 4096, 256);
    storage::RecordStore records(disk);
    WormStore store(clock, fw, records, StoreConfig{});
    store.adopt_vrdt(Vrdt::load(vrdt_path));
    ClientVerifier verifier(store.anchors(), clock);

    // Old data verifies under the restored keys.
    EXPECT_EQ(verifier.verify_read(live, store.read(live)).verdict,
              Verdict::kAuthentic);

    // Retention continues: the restored VEXP fires after the reboot.
    clock.advance(Duration::hours(2));
    EXPECT_EQ(verifier.verify_read(dying, store.read(dying)).verdict,
              Verdict::kDeletedVerified);

    // New writes continue the serial-number sequence (no counter reset).
    Attr keep;
    keep.retention = Duration::days(30);
    Sn next = store.write(
        {.payloads = {to_bytes("post-reboot record")}, .attr = keep});
    EXPECT_EQ(next, dying + 1);

    // The allocator was derived from the adopted VRDT: the new record did
    // not overwrite live data.
    EXPECT_EQ(common::to_string(
                  store.read(live).get<ReadOk>().payloads.at(0)),
              "survives the reboot");

    // A full audit over the whole (pre- and post-reboot) history is clean.
    // (One heartbeat period first, so the audit horizon covers the newest
    // write — the same §4.2.1 freshness granularity as everywhere else.)
    clock.advance(Duration::days(1));
    AuditReport report = Auditor::audit_store(store, verifier);
    EXPECT_TRUE(report.clean()) << Auditor::summarize(report);
    EXPECT_EQ(report.scanned(), 3u);
  }
}

TEST(Restart, AdoptVrdtRefusedOnceInService) {
  Rig rig;
  rig.put("r", Duration::days(1));
  EXPECT_THROW(rig.store.adopt_vrdt(Vrdt{}), common::PreconditionError);
}

TEST(Restart, DedupIndexRebuiltOnAdopt) {
  StoreConfig dedup_cfg;
  dedup_cfg.dedup = true;
  Rig first({}, dedup_cfg);
  Bytes shared = to_bytes("shared across restart");
  first.put("other", Duration::days(30));
  Sn a = first.store.write(
      {.payloads = {shared}, .attr = first.attr(Duration::hours(1))});
  Sn b = first.store.write(
      {.payloads = {shared}, .attr = first.attr(Duration::days(30))});

  // "Restart" the host side onto the same firmware/records.
  Bytes vrdt_bytes = first.store.vrdt().serialize();
  WormStore store2(first.clock, first.firmware, first.records, dedup_cfg);
  store2.adopt_vrdt(Vrdt::deserialize(vrdt_bytes));

  // Dedup still recognizes the shared payload after the rebuild...
  Sn c = store2.write(
      {.payloads = {shared}, .attr = first.attr(Duration::days(30))});
  EXPECT_EQ(store2.counters().at("store.dedup_hits"), 1u);
  // ...and refcounts were reconstructed: the first reference expiring does
  // not shred the bytes the others still need.
  first.clock.advance(Duration::hours(2));
  auto res = store2.read(b);
  ASSERT_TRUE(res.is<ReadOk>());
  EXPECT_EQ(res.get<ReadOk>().payloads.at(0), shared);
  (void)a;
  (void)c;
}

}  // namespace
}  // namespace worm::core
