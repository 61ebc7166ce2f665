// Mailbox transport under injected faults: bounded-backoff retry, the
// (seq, request-crc) dedup cache that makes resends exactly-once, retry
// budget exhaustion, and graceful degradation to read-only verified mode
// when the SCPU zeroizes mid-workload.
#include <gtest/gtest.h>

#include "fault_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::FaultKind;
using worm::testing::CrashRig;
using worm::testing::lockstep_store_config;

TEST(TransportFaults, DroppedRequestRetriedNothingExecutedTwice) {
  CrashRig rig("");
  std::uint64_t before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.request", FaultKind::kDrop, 1);
  Sn sn = rig.put("dropped once", Duration::days(1));
  EXPECT_EQ(sn, 1u);
  // The drop consumed one delivery; the resend executed exactly once.
  EXPECT_EQ(rig.firmware.counters().writes, before + 1);
  auto counters = rig.store->counters();
  EXPECT_GE(counters.at("mailbox.retries"), 1u);
  EXPECT_GE(counters.at("mailbox.transport_faults"), 1u);
  EXPECT_EQ(counters.at("mailbox.timeouts"), 0u);
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, LostResponseResendAnsweredFromDedupCache) {
  // The device executes, the answer vanishes. The resend must be answered
  // from the per-(seq, crc) response cache — never executed again.
  CrashRig rig("");
  std::uint64_t before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  Sn sn = rig.put("answer lost", Duration::days(1));
  EXPECT_EQ(rig.firmware.counters().writes, before + 1);
  auto counters = rig.store->counters();
  EXPECT_GE(counters.at("mailbox.dedup_hits"), 1u);
  EXPECT_GE(counters.at("mailbox.retries"), 1u);
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, DuplicateDeliveryAnsweredFromDedupCache) {
  CrashRig rig("");
  std::uint64_t before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.request", FaultKind::kDuplicate, 1);
  Sn sn = rig.put("delivered twice", Duration::days(1));
  EXPECT_EQ(rig.firmware.counters().writes, before + 1);
  EXPECT_GE(rig.store->counters().at("mailbox.dedup_hits"), 1u);
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, DamagedRequestRefusedByFrameCheckThenRetried) {
  // A bit flip in flight fails the frame checksum at the device boundary:
  // the device answers kStatusTransport without running any certified
  // logic, and the host's resend succeeds.
  CrashRig rig("");
  std::uint64_t before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.request", FaultKind::kBitFlip, 1);
  Sn sn = rig.put("damaged once", Duration::days(1));
  EXPECT_EQ(rig.firmware.counters().writes, before + 1);
  EXPECT_GE(rig.store->counters().at("mailbox.transport_faults"), 1u);
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, BackoffIsExponentialAndChargedToTheClock) {
  StoreConfig config = lockstep_store_config();
  config.mailbox.retry.initial_backoff = Duration::millis(1);
  config.mailbox.retry.backoff_factor = 2;
  config.mailbox.retry.response_timeout = Duration::millis(5);
  CrashRig rig("", true, 0x5eed, worm::testing::slow_timers_config(), config);
  rig.fault.arm("channel.request",
                {.kind = FaultKind::kDrop, .max_fires = 3});
  common::SimTime before = rig.clock.now();
  Sn sn = rig.put("three drops", Duration::days(1));
  // Waits: (5+1) + (5+2) + (5+4) ms — timeout plus doubling backoff.
  EXPECT_EQ(rig.clock.now().ns - before.ns, Duration::millis(22).ns);
  EXPECT_EQ(rig.store->counters().at("mailbox.retries"), 3u);
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, RetryBudgetExhaustionThrowsTimeout) {
  CrashRig rig("");
  rig.fault.arm("channel.request", {.kind = FaultKind::kDrop});
  Sn before = rig.firmware.sn_current();
  EXPECT_THROW((void)rig.put("unreachable device", Duration::days(1)),
               ChannelTimeoutError);
  // Every delivery vanished before the device: nothing executed.
  EXPECT_EQ(rig.firmware.sn_current(), before);
  EXPECT_EQ(rig.store->counters().at("mailbox.timeouts"), 1u);

  // The outage ends; the store keeps working.
  rig.fault.disarm("channel.request");
  Sn sn = rig.put("back online", Duration::days(1));
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(TransportFaults, DeadlineBudgetAlsoBoundsRetries) {
  StoreConfig config = lockstep_store_config();
  config.mailbox.retry.initial_backoff = Duration::millis(10);
  config.mailbox.retry.deadline = Duration::millis(15);
  config.mailbox.retry.max_attempts = 100;
  CrashRig rig("", true, 0x5eed, worm::testing::slow_timers_config(), config);
  rig.fault.arm("channel.request", {.kind = FaultKind::kDrop});
  // First wait (10ms) fits the 15ms deadline; the doubled second would not.
  EXPECT_THROW((void)rig.put("slow outage", Duration::days(1)),
               ChannelTimeoutError);
  EXPECT_EQ(rig.store->counters().at("mailbox.retries"), 1u);
}

TEST(TransportFaults, ZeroizationDegradesToReadOnlyVerifiedMode) {
  CrashRig rig("");
  Sn sn = rig.put("survivor", Duration::days(30));
  ClientVerifier verifier = rig.verifier();  // anchors fetched pre-outage

  // The tamper sensor trips while the next command sits in the mailbox.
  rig.fault.schedule("scpu.tamper", FaultKind::kZeroize, 1);
  EXPECT_THROW((void)rig.put("never lands", Duration::days(1)),
               common::ReadOnlyStoreError);
  EXPECT_TRUE(rig.store->degraded());
  EXPECT_EQ(rig.store->counters().at("store.degraded"), 1u);

  // Reads still serve existing records with verifiable proofs.
  ReadOutcome res = rig.store->read(sn);
  EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);

  // Every further mutation is refused, consistently.
  EXPECT_THROW((void)rig.put("still dead", Duration::days(1)),
               common::ReadOnlyStoreError);
  EXPECT_THROW(rig.store->lit_hold({.sn = sn,
                                    .lit_id = 1,
                                    .hold_until = rig.clock.now(),
                                    .cred_issued_at = rig.clock.now(),
                                    .credential = {}}),
               common::ReadOnlyStoreError);
  // Idle duties are quietly disabled rather than throwing from timers.
  EXPECT_FALSE(rig.store->pump_idle());
}

}  // namespace
}  // namespace worm::core
