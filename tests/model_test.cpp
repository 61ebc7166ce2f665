// Model-based property testing: drive the full deployment with long random
// operation sequences (writes in every witness mode, time advances,
// litigation holds/releases, idle pumping) while maintaining a simple
// reference model, then require every serial number's read+verify outcome to
// match the model. This is the "no sequence of legitimate operations can
// put the store into an unverifiable state" property, swept across seeds.
#include <gtest/gtest.h>

#include <map>

#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::SimTime;
using worm::testing::Rig;

struct ModelRecord {
  SimTime deadline{};  // instant at/after which the RM deletes it
  bool held = false;
  SimTime expiry{};  // retention-implied expiry (for release bookkeeping)
};

class ModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

TEST_P(ModelSweep, RandomOperationSequenceStaysVerifiable) {
  Rig rig(worm::testing::slow_timers_config());
  crypto::Drbg rng(GetParam());
  std::map<Sn, ModelRecord> model;

  auto random_active = [&]() -> Sn {
    std::vector<Sn> alive;
    for (const auto& [sn, m] : model) {
      if (rig.clock.now() < m.deadline) alive.push_back(sn);
    }
    if (alive.empty()) return kInvalidSn;
    return alive[rng.uniform(alive.size())];
  };

  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.uniform(6)) {
      case 0:
      case 1: {  // write (2x weight)
        WitnessMode mode = static_cast<WitnessMode>(rng.uniform(3));
        Duration retention = Duration::hours(
            static_cast<std::int64_t>(1 + rng.uniform(200)));
        std::vector<common::Bytes> payloads;
        std::size_t parts = 1 + rng.uniform(3);
        for (std::size_t p = 0; p < parts; ++p) {
          payloads.push_back(rng.bytes(1 + rng.uniform(3000)));
        }
        Attr attr;
        attr.retention = retention;
        attr.shredding = static_cast<storage::ShredPolicy>(rng.uniform(5));
        Sn sn = rig.store.write(
            {.payloads = payloads, .attr = attr, .mode = mode});
        ModelRecord m;
        m.expiry = rig.clock.now() + retention;
        m.deadline = m.expiry;
        model[sn] = m;
        break;
      }
      case 2: {  // advance time
        rig.clock.advance(Duration::minutes(
            static_cast<std::int64_t>(1 + rng.uniform(600))));
        break;
      }
      case 3: {  // pump idle duties
        rig.store.pump_idle();
        break;
      }
      case 4: {  // litigation hold on a random active record
        Sn sn = random_active();
        if (sn == kInvalidSn || model[sn].held) break;
        SimTime until = rig.clock.now() +
                        Duration::hours(static_cast<std::int64_t>(
                            1 + rng.uniform(300)));
        rig.store.lit_hold({.sn = sn,
                            .lit_id = sn,
                            .hold_until = until,
                            .cred_issued_at = rig.clock.now(),
                            .credential = rig.lit_credential(sn, sn, true)});
        model[sn].held = true;
        model[sn].deadline = std::max(model[sn].expiry, until);
        break;
      }
      case 5: {  // release a random held, still-active record
        Sn candidate = kInvalidSn;
        for (const auto& [sn, m] : model) {
          if (m.held && rig.clock.now() < m.deadline) {
            candidate = sn;
            break;
          }
        }
        if (candidate == kInvalidSn) break;
        rig.store.lit_release(
            {.sn = candidate,
             .lit_id = candidate,
             .cred_issued_at = rig.clock.now(),
             .credential = rig.lit_credential(candidate, candidate, false)});
        model[candidate].held = false;
        model[candidate].deadline =
            std::max(rig.clock.now(), model[candidate].expiry);
        break;
      }
    }
  }

  // Settle: strengthen every deferred/HMAC witness, run all idle duties,
  // and give the RM a tick to catch up.
  rig.clock.advance(Duration::seconds(1));
  while (rig.store.pump_idle()) {
  }

  // Oracle check over the entire serial-number space (plus a margin above).
  auto verifier = rig.fresh_verifier();
  for (Sn sn = 1; sn <= rig.firmware.sn_current() + 3; ++sn) {
    Outcome out = verifier.verify_read(sn, rig.store.read(sn));
    auto it = model.find(sn);
    if (it == model.end()) {
      EXPECT_EQ(out.verdict, Verdict::kNeverExistedVerified)
          << "sn=" << sn << " " << out.detail;
      continue;
    }
    if (rig.clock.now() < it->second.deadline) {
      EXPECT_EQ(out.verdict, Verdict::kAuthentic)
          << "sn=" << sn << " " << out.detail;
    } else {
      EXPECT_EQ(out.verdict, Verdict::kDeletedVerified)
          << "sn=" << sn << " " << out.detail;
    }
  }

  // Protocol invariants that must hold after ANY legitimate history.
  EXPECT_LE(rig.firmware.sn_base(), rig.firmware.sn_current() + 1);
  EXPECT_EQ(rig.firmware.deferred_count(), 0u);
  EXPECT_TRUE(rig.firmware.hash_audits_pending(1).empty());
  // Every remaining VRDT entry below the base would be a bookkeeping bug.
  for (Sn sn = 0; sn < rig.firmware.sn_base(); ++sn) {
    EXPECT_FALSE(rig.store.vrdt().find(sn).has_value()) << "sn " << sn;
  }
}

}  // namespace
}  // namespace worm::core
