// Long-haul soak: a simulated year of realistic operation — daily mixed-mode
// ingest, continuous expiry of short-retention records, monthly litigation
// activity, nightly idle processing, and a quarterly full-store audit that
// must stay clean throughout. Exercises the interactions (window compaction
// + base advance + key rotation + VEXP churn) that no single-feature test
// composes.
#include <gtest/gtest.h>

#include "worm/auditor.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using worm::testing::Rig;

TEST(Soak, OneSimulatedYearOfOperation) {
  core::FirmwareConfig fw = worm::testing::slow_timers_config();
  fw.short_key_rotation = Duration::days(2);
  fw.short_sig_lifetime = Duration::days(3);
  Rig rig(fw);
  crypto::Drbg rng(0x50a1);
  std::uint64_t writes = 0;
  std::uint64_t held = 0;

  for (int day = 1; day <= 365; ++day) {
    // Daily ingest: a few records, mixed retention and witness modes.
    std::size_t today = 2 + rng.uniform(4);
    for (std::size_t i = 0; i < today; ++i) {
      Attr attr;
      attr.retention = (rng.uniform(4) == 0)
                           ? Duration::years(7)          // regulated archive
                           : Duration::days(static_cast<std::int64_t>(
                                 3 + rng.uniform(40)));  // working set
      auto mode = static_cast<WitnessMode>(rng.uniform(3));
      (void)rig.store.write({.payloads = {rng.bytes(100 + rng.uniform(2000))},
                             .attr = attr,
                             .mode = mode});
      ++writes;
    }

    // Monthly: place a hold on some active record; release an old one.
    if (day % 30 == 0) {
      for (Sn sn = 1; sn <= rig.firmware.sn_current(); ++sn) {
        const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
        if (e.has_value() && e->kind == Vrdt::Entry::Kind::kActive &&
            !e->vrd.attr.litigation_hold) {
          rig.store.lit_hold(
              {.sn = sn,
               .lit_id = sn,
               .hold_until = rig.clock.now() + Duration::days(45),
               .cred_issued_at = rig.clock.now(),
               .credential = rig.lit_credential(sn, sn, true)});
          ++held;
          break;
        }
      }
    }

    // Night: one day passes; the store does its idle duties.
    rig.clock.advance(Duration::days(1));
    rig.store.pump_idle();

    // Quarterly full audit must be clean.
    if (day % 90 == 0) {
      while (rig.store.pump_idle()) {
      }
      auto verifier = rig.fresh_verifier();
      AuditReport report = Auditor::audit_store(rig.store, verifier);
      ASSERT_TRUE(report.clean())
          << "day " << day << ": " << Auditor::summarize(report);
      EXPECT_EQ(report.scanned(),
                static_cast<std::size_t>(rig.firmware.sn_current()));
    }
  }

  // Year-end invariants.
  while (rig.store.pump_idle()) {
  }
  EXPECT_EQ(rig.firmware.counters().writes, writes);
  EXPECT_GT(rig.firmware.counters().deletions, writes / 2);  // working set died
  EXPECT_GT(rig.store.counters().at("store.compactions"), 0u);
  // (Base advance usually stays at 0 here: an early 7-year record pins the
  // window base for the whole year — realistic, and why multi-window
  // compaction exists.)
  EXPECT_GT(held, 5u);
  EXPECT_EQ(rig.firmware.deferred_count(), 0u);

  // Thanks to compaction the VRDT carries roughly one item per *retained*
  // record (the ~25% long-retention ones) plus one window per gap — far
  // fewer than one deletion proof per expired record.
  std::size_t items =
      rig.store.vrdt().entry_count() + rig.store.vrdt().window_count();
  EXPECT_LT(items, (writes * 3) / 4);
  EXPECT_GT(rig.firmware.counters().deletions + rig.store.vrdt().active_count(),
            writes - 1);  // every record accounted for: deleted or active

  auto verifier = rig.fresh_verifier();
  AuditReport final_report = Auditor::audit_store(rig.store, verifier);
  EXPECT_TRUE(final_report.clean()) << Auditor::summarize(final_report);
}

TEST(Soak, ChannelBackedStoreMatchesDirectFirmwareProofStream) {
  // The mailbox/channel transport must be semantically invisible: the proof
  // stream a WormStore produces through serialized commands has to be
  // byte-identical to what the same workload produces by calling the
  // firmware directly. Zero-cost models pin simulated time on both sides so
  // signatures (which embed SCPU timestamps) can be compared byte for byte.
  Rig through_store({}, {}, 32u << 20, scpu::CostModel::zero());
  Rig direct({}, {}, 32u << 20, scpu::CostModel::zero());

  struct Item {
    std::string text;
    Duration retention;
    WitnessMode mode;
  };
  std::vector<Item> workload;
  crypto::Drbg rng(0x1d397);
  for (int i = 0; i < 40; ++i) {
    workload.push_back({"record " + std::to_string(i),
                        Duration::hours(static_cast<std::int64_t>(
                            1 + rng.uniform(500))),
                        static_cast<WitnessMode>(rng.uniform(3))});
  }

  std::vector<Sn> sns;
  std::vector<WriteWitness> direct_witnesses;
  for (const auto& item : workload) {
    common::Bytes payload = common::to_bytes(item.text);
    sns.push_back(through_store.store.write(
        {.payloads = {payload},
         .attr = through_store.attr(item.retention),
         .mode = item.mode}));
    storage::RecordDescriptor rd = direct.records.write(payload);
    direct_witnesses.push_back(direct.firmware.write(
        direct.attr(item.retention), {rd}, {payload}, {}, item.mode,
        HashMode::kScpuHash));
  }

  for (std::size_t i = 0; i < workload.size(); ++i) {
    const std::optional<Vrdt::Entry> e = through_store.store.vrdt().find(sns[i]);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->vrd.sn, direct_witnesses[i].sn);
    EXPECT_EQ(e->vrd.data_hash, direct_witnesses[i].data_hash);
    EXPECT_EQ(e->vrd.metasig.value, direct_witnesses[i].metasig.value)
        << "metasig diverged at record " << i;
    EXPECT_EQ(e->vrd.datasig.value, direct_witnesses[i].datasig.value)
        << "datasig diverged at record " << i;
  }
}

}  // namespace
}  // namespace worm::core
