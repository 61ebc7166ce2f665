// Crash consistency for the group-commit write pipeline: a crash between the
// journaled group intent and the batch ack resends the exact frame through
// the device's dedup cache (exactly-once), a crash with admissions still
// queued re-executes them from their journaled kQueuedWrite records, and the
// recovered store's proof stream matches an unfaulted synchronous reference.
#include <gtest/gtest.h>

#include <vector>

#include "fault_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::FaultKind;
using worm::testing::CrashRig;
using worm::testing::lockstep_store_config;
using worm::testing::outcome_fingerprint;

StoreConfig pipelined_lockstep() {
  StoreConfig c = lockstep_store_config();
  c.pipeline.enabled = true;
  c.mailbox.max_batch = 4;
  return c;
}

WriteRequest request(const CrashRig& rig, const std::string& text) {
  return {.payloads = {common::to_bytes(text)},
          .attr = rig.attr(Duration::days(30))};
}

TEST(PipelineFault, CrashMidFlushResendsTheGroupExactlyOnce) {
  // The committer's batch crossing executes on the device but every response
  // delivery is lost: the tickets fail with a timeout, the journaled group
  // intent stays pending, and recovery resends the exact frame — which the
  // (seq, crc) response cache answers without executing again.
  CrashRig rig("pipeline_midflush.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), pipelined_lockstep());
  std::uint64_t executed_before = rig.firmware.counters().writes;

  rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  WriteTicket t = rig.store->write_async(request(rig, "mid-flush"));
  EXPECT_THROW((void)t.get(), ChannelTimeoutError);
  rig.fault.disarm_all();

  // Executed once on the device; the host never saw the ack.
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);
  EXPECT_EQ(rig.firmware.sn_current(), 1u);

  auto report = rig.crash_and_recover();
  EXPECT_EQ(report.resent, 1u);
  EXPECT_EQ(report.queued_replayed, 0u)
      << "the group intent superseded the admission; re-executing it too "
         "would double-apply the write";
  ASSERT_EQ(report.recovered_sns.size(), 1u);
  EXPECT_EQ(report.recovered_sns[0], 1u);
  // Still exactly one device-side execution: the resend was a cache hit.
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);

  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(rig.put("next", Duration::days(30)), 2u);
}

TEST(PipelineFault, CrashWithQueuedAdmissionsReExecutesThem) {
  // Admissions journaled but never grouped (fat batch, no ticket asked): the
  // host dies with them queued. Their tickets fail fast at shutdown, and
  // recovery re-executes the journaled admissions in order.
  StoreConfig sc = pipelined_lockstep();
  sc.mailbox.max_batch = 1024;
  CrashRig rig("pipeline_queued.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  std::uint64_t executed_before = rig.firmware.counters().writes;

  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(
        rig.store->write_async(request(rig, "queued " + std::to_string(i))));
  }
  rig.crash();
  for (auto& t : tickets) {
    ASSERT_TRUE(t.ready());
    EXPECT_THROW((void)t.get(), common::TransientStorageError);
  }
  EXPECT_EQ(rig.firmware.counters().writes, executed_before)
      << "nothing crossed before the crash";

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.queued_replayed, 3u);
  EXPECT_EQ(report.recovered_sns.size(), 3u);
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 3);

  ClientVerifier verifier = rig.verifier();
  for (Sn sn = 1; sn <= 3; ++sn) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
  // A second recovery has nothing left: the checkpoint folded them in.
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.queued_replayed, 0u);
  EXPECT_EQ(second.resent, 0u);
}

TEST(PipelineFault, RecoveredProofStreamMatchesUnfaultedReference) {
  // Lockstep equivalence across a crash-mid-flush: write A (settled), lose
  // the ack for B, crash, recover, write C — the proof stream must be
  // byte-identical to an unfaulted synchronous store writing A, B, C.
  CrashRig faulted("pipeline_equiv.wal", /*with_faults=*/true, 0x5eed,
                   worm::testing::slow_timers_config(), pipelined_lockstep());
  CrashRig reference("", /*with_faults=*/false, 0x5eed,
                     worm::testing::slow_timers_config(),
                     lockstep_store_config());

  WriteTicket a = faulted.store->write_async(request(faulted, "A"));
  EXPECT_EQ(a.get(), 1u);
  faulted.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  WriteTicket b = faulted.store->write_async(request(faulted, "B"));
  EXPECT_THROW((void)b.get(), ChannelTimeoutError);
  faulted.fault.disarm_all();
  auto report = faulted.crash_and_recover();
  EXPECT_EQ(report.resent, 1u);
  WriteTicket c = faulted.store->write_async(request(faulted, "C"));
  EXPECT_EQ(c.get(), 3u);

  for (const char* text : {"A", "B", "C"}) {
    (void)reference.store->write(request(reference, text));
  }

  for (Sn sn = 1; sn <= 4; ++sn) {
    EXPECT_EQ(outcome_fingerprint(faulted.store->read(sn)),
              outcome_fingerprint(reference.store->read(sn)))
        << "proof streams diverge at sn " << sn;
  }
}

}  // namespace
}  // namespace worm::core
