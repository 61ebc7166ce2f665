// Crash-consistent host recovery: the write-ahead journal replays host soft
// state after the process dies, pending intents are resent exactly-once
// through the device's (seq, crc) response cache, the block allocator is
// derived from what the journal names, torn tails are tolerated, and a store
// rebooting against a zeroized SCPU comes up degraded instead of failing.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "fault_fixture.hpp"
#include "parkable_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using common::FaultKind;
using worm::testing::CrashRig;

TEST(Recovery, JournaledStoreSurvivesACrash) {
  CrashRig rig("recovery_basic.wal");
  Sn s1 = rig.put("first", Duration::days(30));
  Sn s2 = rig.put("second", Duration::days(30));
  Sn s3 = rig.put("third", Duration::days(30));

  auto report = rig.crash_and_recover();
  EXPECT_GE(report.replayed, 3u);
  EXPECT_EQ(report.resent, 0u);
  EXPECT_FALSE(report.torn_tail);

  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {s1, s2, s3}) {
    ReadOutcome res = rig.store->read(sn);
    EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kAuthentic)
        << "sn " << sn;
  }
  // Sequencing continues seamlessly: the next write gets the next SN.
  EXPECT_EQ(rig.put("fourth", Duration::days(30)), 4u);
  EXPECT_GT(rig.store->counters().at("recovery.replayed"), 0u);
}

TEST(Recovery, UnjournaledStoreRefusesRecover) {
  CrashRig rig("");
  EXPECT_THROW((void)rig.store->recover(), common::PreconditionError);
}

TEST(Recovery, PendingIntentResentExactlyOnce) {
  // The device executes a write but every response delivery is lost: the
  // host times out with a journaled intent still pending. Recovery resends
  // the exact frame; the dedup cache answers without executing again.
  CrashRig rig("recovery_pending.wal");
  std::uint64_t executed_before = rig.firmware.counters().writes;
  rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
               ChannelTimeoutError);
  rig.fault.disarm_all();
  // Executed once on the device, invisible to the host so far.
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);
  EXPECT_EQ(rig.firmware.sn_current(), 1u);

  // Before recovery reconciles, a read of the in-flight SN is honest about
  // the uncertainty: unavailable (retryable), never a tampering verdict.
  ReadOutcome limbo = rig.store->read(1);
  auto* gone = limbo.get_if<ReadUnavailable>();
  ASSERT_NE(gone, nullptr) << to_string(limbo.status());
  EXPECT_TRUE(gone->retryable);

  auto report = rig.crash_and_recover();
  EXPECT_EQ(report.resent, 1u);
  EXPECT_EQ(report.abandoned, 0u);
  ASSERT_EQ(report.recovered_sns.size(), 1u);
  EXPECT_EQ(report.recovered_sns[0], 1u);
  // Still exactly one execution — the resend was a cache hit.
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);

  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(rig.put("next", Duration::days(30)), 2u);
  EXPECT_GT(rig.store->counters().at("recovery.resent"), 0u);
}

TEST(Recovery, ResendRetriesATransientJournalFault) {
  // Recovery applies the resent write's answer with faults still live. A
  // transient fault on its kPutActive (evaluation 1) or on its kComplete
  // (evaluation 2) fails that append cleanly; recovery takes the step again
  // instead of failing.
  for (std::uint64_t nth : {1u, 2u}) {
    SCOPED_TRACE("journal.append fault on evaluation " + std::to_string(nth));
    CrashRig rig("recovery_resend_journal.wal");
    rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
    EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
                 ChannelTimeoutError);
    rig.fault.disarm_all();
    const std::uint64_t executed = rig.firmware.counters().writes;

    rig.crash();
    rig.boot();
    const std::uint64_t fired_before = rig.fault.injected_total();
    rig.fault.schedule("journal.append", FaultKind::kTransient, nth);
    auto report = rig.store->recover();
    EXPECT_EQ(rig.fault.injected_total(), fired_before + 1);
    EXPECT_EQ(report.resent, 1u);
    EXPECT_EQ(report.unresolved, 0u);
    EXPECT_EQ(report.recovered_sns, std::vector<Sn>{1});
    EXPECT_EQ(rig.store->counters().at("store.writes"), 1u);
    EXPECT_EQ(rig.firmware.counters().writes, executed);
    EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
              Verdict::kAuthentic);

    // The next boot has nothing left to resend and still holds the record.
    report = rig.crash_and_recover();
    EXPECT_EQ(report.resent, 0u);
    EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
              Verdict::kAuthentic);
  }
}

TEST(Recovery, ReadRacingAResendAnswersUnavailableNotFailure) {
  // Recovery resends a pending intent with the store lock released. A read
  // of the SN it may hold, racing the resend, must be as honest as one
  // before recovery: unavailable (retryable), never a failure, which a
  // client reports as tampering.
  worm::testing::ParkableFault parked("channel.response");
  CrashRig rig("recovery_racing_read.wal");
  rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
               ChannelTimeoutError);
  rig.fault.disarm_all();
  ASSERT_EQ(rig.firmware.sn_current(), 1u);

  rig.crash();
  rig.config.fault = &parked.fault;
  rig.boot();
  rig.records->set_fault_injector(nullptr);

  std::future<WormStore::RecoveryReport> recovery;
  std::future<ReadOutcome> read;
  // recover()'s first answer is its status probe; the second, the resend's.
  parked.bp.arm(/*skip=*/1);
  worm::testing::ReleaseOnExit release{parked.bp};
  recovery =
      std::async(std::launch::async, [&] { return rig.store->recover(); });
  ASSERT_TRUE(parked.bp.wait_parked());
  read = std::async(std::launch::async, [&] { return rig.store->read(1); });
  EXPECT_TRUE(worm::testing::returned(read)) << "read waited for the resend";
  parked.bp.release();
  EXPECT_EQ(recovery.get().recovered_sns, std::vector<Sn>{1});

  ReadOutcome limbo = read.get();
  auto* gone = limbo.get_if<ReadUnavailable>();
  ASSERT_NE(gone, nullptr) << to_string(limbo.status());
  EXPECT_TRUE(gone->retryable);
  EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
}

/// Lockstep store with one delivery attempt per command, so a single
/// scheduled drop of an answer is a timeout; `pipelined` holds admissions
/// queued (a batch bound nothing reaches, no ticket asked) until the host
/// crashes.
StoreConfig one_attempt(bool pipelined = false) {
  StoreConfig sc = worm::testing::lockstep_store_config();
  sc.mailbox.retry.max_attempts = 1;
  sc.pipeline.enabled = pipelined;
  sc.mailbox.max_batch = 1024;
  return sc;
}

TEST(Recovery, ResendLostAgainStaysPendingThroughTheCheckpoint) {
  CrashRig rig("recovery_unresolved.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt());
  std::uint64_t executed_before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
               ChannelTimeoutError);
  ASSERT_EQ(rig.firmware.counters().writes, executed_before + 1);

  // The resend loses its answer too (evaluation 1 is recovery's status
  // probe): the intent stays pending, and reads of its SN stay honest.
  rig.crash();
  rig.boot();
  rig.fault.schedule("channel.response", FaultKind::kDrop, 2);
  auto report = rig.store->recover();
  EXPECT_EQ(report.resent, 1u);
  EXPECT_EQ(report.unresolved, 1u);
  EXPECT_TRUE(report.recovered_sns.empty());
  ReadOutcome limbo = rig.store->read(1);
  auto* gone = limbo.get_if<ReadUnavailable>();
  ASSERT_NE(gone, nullptr) << to_string(limbo.status());
  EXPECT_TRUE(gone->retryable);

  // The checkpoint rewrite kept the intent, so the next recovery lands it
  // from the device's response cache without executing anything again.
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.replayed, 2u) << "the checkpoint plus the kept intent";
  EXPECT_EQ(second.resent, 1u);
  EXPECT_EQ(second.unresolved, 0u);
  EXPECT_EQ(second.recovered_sns, std::vector<Sn>{1});
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);
  EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, DerivedAllocatorNeverReusesALiveBlock) {
  // The crash drops the record store with the rest of the host process, so
  // recovery must derive the allocator from the replayed VRDT before a
  // re-executed admission or a new write allocates. Handing either a live
  // record's block would make an honest host convict itself.
  CrashRig rig("recovery_allocator.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt(true));
  for (const char* text : {"first", "second", "third"}) {
    (void)rig.put(text, Duration::days(30));
  }
  WriteTicket queued = rig.store->write_async(
      {.payloads = {common::to_bytes("queued")},
       .attr = rig.attr(Duration::days(30))});
  rig.crash();  // journaled, never grouped
  EXPECT_THROW((void)queued.get(), common::TransientStorageError);
  // Untrusted input: a journaled VRD naming a block far past the device
  // must neither size the free list nor be handed out.
  const std::uint64_t bogus = rig.disk.block_count() + 1000;
  Vrd forged;
  forged.sn = 99;
  forged.rdl = {{.record_id = 42, .size = 1, .blocks = {bogus}}};
  common::ByteWriter w;
  forged.serialize(w);
  HostJournal(rig.config.journal_path)
      .append(JournalRecordType::kPutActive, w.bytes());

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.queued_replayed, 1u);
  EXPECT_EQ(rig.records->free_blocks(), 0u);

  Sn fifth = rig.put("fifth", Duration::days(30));
  EXPECT_EQ(fifth, 5u);
  EXPECT_EQ(rig.store->vrdt().find(fifth)->vrd.rdl.at(0).blocks,
            std::vector<std::uint64_t>{4});
  ClientVerifier verifier = rig.verifier();
  for (Sn sn = 1; sn <= 5; ++sn) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Recovery, UnresolvedIntentKeepsItsStagedBlocks) {
  // The device may yet have run an intent whose resend timed out, so the
  // blocks its frame names stay allocated until a later recover() lands it.
  CrashRig rig("recovery_unresolved_blocks.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt());
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
               ChannelTimeoutError);
  rig.crash();
  rig.boot();
  rig.fault.schedule("channel.response", FaultKind::kDrop, 2);
  ASSERT_EQ(rig.store->recover().unresolved, 1u);

  Sn after = rig.put("after", Duration::days(30));
  EXPECT_EQ(after, 2u);
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.recovered_sns, std::vector<Sn>{1});
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {Sn{1}, after}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Recovery, QueuedReexecutionTimeoutSkipsTheRewrite) {
  CrashRig rig("recovery_requeued.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt(true));
  std::uint64_t executed_before = rig.firmware.counters().writes;
  WriteTicket t = rig.store->write_async(
      {.payloads = {common::to_bytes("queued")},
       .attr = rig.attr(Duration::days(30))});
  rig.crash();  // journaled, never grouped
  EXPECT_THROW((void)t.get(), common::TransientStorageError);

  // Re-execution crosses, but its answer is lost (evaluations 1-3 are the
  // status probe, then reconciliation's status and heartbeat).
  rig.boot();
  rig.fault.schedule("channel.response", FaultKind::kDrop, 4);
  auto report = rig.store->recover();
  EXPECT_EQ(report.unresolved, 1u);
  EXPECT_EQ(report.queued_replayed, 0u);
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);

  // Only the appended journal knew that intent, so the rewrite was skipped:
  // the next recovery resends it exactly once, from the response cache, and
  // does not re-execute the admission it superseded.
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.resent, 1u);
  EXPECT_EQ(second.queued_replayed, 0u);
  EXPECT_EQ(second.recovered_sns, std::vector<Sn>{1});
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);
  EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, RejectedQueuedAdmissionIsAbandonedNotRetried) {
  CrashRig rig("recovery_rejected.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt(true));
  rig.crash();
  // Admission now refuses zero retention, so journal the kQueuedWrite a
  // store without that check wrote for it; the firmware refuses it on
  // re-execution.
  common::ByteWriter w;
  w.u64(1);  // qid
  rig.attr(Duration{}).serialize(w);
  w.boolean(false);  // no explicit witness mode
  w.u32(1);          // one payload
  w.blob(common::to_bytes("no retention"));
  HostJournal(rig.config.journal_path)
      .append(JournalRecordType::kQueuedWrite, w.bytes());

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(report.queued_replayed, 0u);
  EXPECT_TRUE(report.recovered_sns.empty());
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
  // The refused admission staged its payload on block 0; the rejection
  // zero-filled it.
  EXPECT_EQ(rig.disk.raw_block(0), common::Bytes(rig.disk.block_size(), 0));

  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.abandoned, 0u);
  EXPECT_EQ(second.resent, 0u);
  EXPECT_EQ(second.queued_replayed, 0u);
  EXPECT_EQ(rig.put("next", Duration::days(30)), 1u);
  EXPECT_EQ(rig.store->vrdt().find(1)->vrd.rdl.at(0).blocks,
            std::vector<std::uint64_t>{0});
}

/// Journals the intent of a one-write kWriteBatch naming `rd`, as a store
/// does just before the crossing, with a seq the device has not seen. The
/// write has zero retention, so the device refuses it; admission refuses
/// that now, so this stands in for an older store that sent it.
void journal_refused_intent(CrashRig& rig, const storage::RecordDescriptor& rd,
                            const common::Bytes& payload) {
  Firmware::BatchItem item;
  item.attr = rig.attr(Duration{});
  item.rdl = {rd};
  item.payloads = {payload};
  common::ByteWriter frame;
  ScpuChannel::encode_write_batch_into(frame, {item}, WitnessMode::kStrong,
                                       HashMode::kScpuHash);
  common::ByteWriter w;
  w.u64(rig.firmware.transport_last_seq() + 1);
  w.blob(frame.bytes());
  w.u32(0);  // supersedes no admissions
  HostJournal(rig.config.journal_path)
      .append(JournalRecordType::kIntent, w.bytes());
}

TEST(Recovery, RefusedResendZeroesTheBlocksItStaged) {
  CrashRig rig("recovery_orphan.wal");
  Sn live = rig.put("live", Duration::days(30));
  const std::size_t free_before = rig.records->free_blocks();
  // A write staged its payload and journaled its intent; the host died
  // before the crossing.
  common::Bytes payload = common::to_bytes("orphaned plaintext");
  storage::RecordDescriptor rd = rig.records->write(payload);
  rig.crash();
  journal_refused_intent(rig, rd, payload);

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.resent, 1u);
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(rig.store->counters().at("recovery.orphan_blocks"),
            rd.blocks.size());
  EXPECT_EQ(rig.records->free_blocks(), free_before);
  for (std::uint64_t b : rd.blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), common::Bytes(rig.disk.block_size(), 0))
        << "block " << b;
  }

  // The orphan's blocks go to the next write; the live record is untouched.
  Sn next = rig.put("next", Duration::days(30));
  EXPECT_EQ(rig.store->vrdt().find(next)->vrd.rdl.at(0).blocks, rd.blocks);
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {live, next}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Recovery, RefusedResendNeverZeroesASharedLiveRecord) {
  // With dedup on, a staged write can name a live record's descriptor. The
  // refused frame then names blocks a VRD still governs.
  StoreConfig sc = worm::testing::lockstep_store_config();
  sc.dedup = true;
  CrashRig rig("recovery_orphan_dedup.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  common::Bytes payload = common::to_bytes("popular attachment");
  Sn live = rig.store->write(
      {.payloads = {payload}, .attr = rig.attr(Duration::days(30))});
  storage::RecordDescriptor rd = rig.store->vrdt().find(live)->vrd.rdl.at(0);
  rig.crash();
  journal_refused_intent(rig, rd, payload);

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(rig.store->counters().at("recovery.orphan_blocks"), 0u);
  EXPECT_EQ(rig.verifier().verify_read(live, rig.store->read(live)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, UnjournaledIntentZeroesTheBlocksItStaged) {
  // A chunk staged its payloads, then its intent never reached the journal.
  // Nothing will ever name those blocks, so the chunk zeroes and frees them
  // before the error reaches the caller. When zero-filling the first record
  // fails too, only that record keeps its block: the other is still zeroed
  // and freed, and the caller sees the journal's error, not the device's.
  for (bool zero_fill_fails : {false, true}) {
    SCOPED_TRACE(zero_fill_fails ? "the first zero-fill fails" : "no refault");
    CrashRig rig("recovery_unjournaled.wal");
    const common::Bytes zeros(rig.disk.block_size(), 0);
    Sn expired = rig.put(std::string(2 * rig.disk.block_size(), 'e'),
                         Duration::hours(1));
    const std::vector<std::uint64_t> blocks =
        rig.store->vrdt().find(expired)->vrd.rdl.at(0).blocks;
    rig.clock.advance(Duration::hours(2));  // the expiry frees both blocks
    const std::size_t free_before = rig.records->free_blocks();
    ASSERT_EQ(free_before, blocks.size());

    rig.fault.schedule("journal.append", FaultKind::kTransient, 1);
    // device.write evaluations 1-2 stage the two records; 3 zero-fills the
    // first one.
    if (zero_fill_fails) {
      rig.fault.schedule("device.write", FaultKind::kTransient, 3);
    }
    const std::vector<WriteRequest> requests = {
        {.payloads = {common::to_bytes("staged A")},
         .attr = rig.attr(Duration::days(30))},
        {.payloads = {common::to_bytes("staged B")},
         .attr = rig.attr(Duration::days(30))},
    };
    try {
      (void)rig.store->write_batch(requests);
      ADD_FAILURE() << "write_batch landed despite the journal fault";
    } catch (const common::TransientStorageError& e) {
      EXPECT_NE(std::string(e.what()).find("journal"), std::string::npos)
          << e.what();
    }
    const std::size_t kept = zero_fill_fails ? 1 : 0;
    EXPECT_EQ(rig.records->free_blocks(), free_before - kept);
    std::size_t zeroed = 0;
    for (std::uint64_t b : blocks) zeroed += rig.disk.raw_block(b) == zeros;
    EXPECT_EQ(zeroed, blocks.size() - kept);

    // The store goes on: the same writes land.
    std::vector<Sn> sns = rig.store->write_batch(requests);
    ClientVerifier verifier = rig.verifier();
    for (Sn sn : sns) {
      EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
                Verdict::kAuthentic)
          << "sn " << sn;
    }
  }
}

TEST(Recovery, UnjournaledIntentDropsItsDedupReference) {
  // With dedup on, staging a payload a live record already holds takes a
  // reference on that record. A chunk whose intent never lands must drop
  // it, or the live record is never shredded when it expires.
  StoreConfig sc = worm::testing::lockstep_store_config();
  sc.dedup = true;
  CrashRig rig("recovery_unjournaled_dedup.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  const common::Bytes payload = common::to_bytes("popular attachment");
  Sn live = rig.store->write(
      {.payloads = {payload}, .attr = rig.attr(Duration::hours(1))});
  const std::vector<std::uint64_t> blocks =
      rig.store->vrdt().find(live)->vrd.rdl.at(0).blocks;

  rig.fault.schedule("journal.append", FaultKind::kTransient, 1);
  EXPECT_THROW((void)rig.store->write({.payloads = {payload},
                                       .attr = rig.attr(Duration::days(30))}),
               common::TransientStorageError);
  EXPECT_EQ(rig.verifier().verify_read(live, rig.store->read(live)).verdict,
            Verdict::kAuthentic)
      << "the live record it shares is untouched";

  rig.clock.advance(Duration::hours(2));  // the live record expires
  for (std::uint64_t b : blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), common::Bytes(rig.disk.block_size(), 0))
        << "block " << b;
  }
}

TEST(Recovery, TornJournalTailIsDiscardedNotFatal) {
  CrashRig rig("recovery_torn.wal");
  Sn s1 = rig.put("durable 1", Duration::days(30));
  Sn s2 = rig.put("durable 2", Duration::days(30));
  // The next intent append tears mid-frame — a power cut during the write.
  rig.fault.schedule("journal.append", FaultKind::kTorn, 1);
  EXPECT_THROW((void)rig.put("torn away", Duration::days(30)),
               common::TransientStorageError);
  rig.fault.disarm_all();

  auto report = rig.crash_and_recover();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.torn_bytes, 0u);

  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(s1, rig.store->read(s1)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(verifier.verify_read(s2, rig.store->read(s2)).verdict,
            Verdict::kAuthentic);
  // The torn intent never crossed: SN 3 was never issued, and is issued now.
  EXPECT_EQ(rig.put("after the tear", Duration::days(30)), 3u);
  EXPECT_GT(rig.store->counters().at("recovery.torn_bytes"), 0u);
}

TEST(Recovery, WriteAfterATornAppendSurvivesTheCrash) {
  // A torn append leaves half a frame on disk, and the store goes on. The
  // next append cuts the journal back to its last whole frame first, so the
  // write acknowledged after the tear replays; a frame left behind the torn
  // one would be invisible to replay, and the honest host would read its
  // own acknowledged SN as a failure.
  CrashRig rig("recovery_torn_then_more.wal");
  EXPECT_EQ(rig.put("before the tear", Duration::days(30)), 1u);
  rig.fault.schedule("journal.append", FaultKind::kTorn, 1);
  EXPECT_THROW((void)rig.put("torn away", Duration::days(30)),
               common::TransientStorageError);
  EXPECT_EQ(rig.put("after the tear", Duration::days(30)), 2u);

  auto report = rig.crash_and_recover();
  EXPECT_FALSE(report.torn_tail);
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {Sn{1}, Sn{2}}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
  EXPECT_EQ(rig.put("after the crash", Duration::days(30)), 3u);
}

TEST(Recovery, ReopenedJournalCutsATornTailBeforeAppending) {
  // The process died mid-append, leaving half a frame. A journal reopened
  // over it must not append behind that frame, where no replay would reach:
  // the replay that finds the damaged tail has the next append cut it off.
  const std::string path = ::testing::TempDir() + "recovery_reopen_torn.wal";
  std::remove(path.c_str());
  common::FaultInjector fault(0x5eed);
  {
    HostJournal dying(path, &fault);
    dying.append(JournalRecordType::kComplete, common::Bytes{1});
    fault.schedule("journal.append", FaultKind::kTorn, 1);
    EXPECT_THROW(dying.append(JournalRecordType::kComplete, common::Bytes{2}),
                 common::TransientStorageError);
  }
  HostJournal reopened(path);
  HostJournal::ReplayResult before = reopened.replay();
  EXPECT_TRUE(before.torn_tail);
  EXPECT_EQ(before.records.size(), 1u);
  reopened.append(JournalRecordType::kComplete, common::Bytes{3});
  HostJournal::ReplayResult after = reopened.replay();
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].payload, common::Bytes{3});
}

TEST(Recovery, PartialMultiBlockWriteZeroesWhatItWrote) {
  // A 3-block record whose second block's write fails: the first block
  // already holds plaintext that no descriptor will ever name. The record
  // store zeroes and frees every block the call took before the error
  // reaches the caller, so neither this process nor the next boot leaves
  // the payload on the platter.
  CrashRig rig("recovery_partial_record.wal");
  const std::size_t bs = rig.disk.block_size();
  const common::Bytes zeros(bs, 0);
  const common::Bytes plaintext(bs, 'p');
  ASSERT_EQ(rig.records->free_blocks(), 0u);
  rig.fault.schedule("device.write", FaultKind::kTransient, 2);
  EXPECT_THROW((void)rig.put(std::string(3 * bs, 'p'), Duration::days(30)),
               common::TransientStorageError);
  EXPECT_EQ(rig.disk.raw_block(0), zeros);
  EXPECT_EQ(rig.records->free_blocks(), 2u) << "blocks 0 and 1 are free again";

  // The store goes on, and its next record takes the freed block 0.
  Sn sn = rig.put("next", Duration::days(30));
  EXPECT_EQ(rig.store->vrdt().find(sn)->vrd.rdl.at(0).blocks,
            std::vector<std::uint64_t>{0});
  rig.crash_and_recover();
  EXPECT_EQ(rig.verifier().verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
  for (std::uint64_t b = 0; b < rig.disk.block_count(); ++b) {
    EXPECT_NE(rig.disk.raw_block(b), plaintext) << "block " << b;
  }
}

TEST(Recovery, CheckpointTruncatesReplayHistory) {
  CrashRig rig("recovery_checkpoint.wal");
  for (int i = 0; i < 8; ++i) (void)rig.put("r", Duration::days(30));
  auto first = rig.crash_and_recover();
  EXPECT_GE(first.replayed, 8u);
  // Recovery rewrote the journal as one checkpoint: a second crash replays
  // that snapshot, not the original mutation history.
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.replayed, 1u);
  EXPECT_EQ(second.resent, 0u);
  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(5, rig.store->read(5)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(rig.put("ninth", Duration::days(30)), 9u);
}

TEST(Recovery, ExpirationProofsSurviveTheCrash) {
  CrashRig rig("recovery_expiry.wal");
  Sn sn = rig.put("short-lived", Duration::hours(1));
  rig.clock.advance(Duration::hours(2));  // on_expire journals the proof
  auto report = rig.crash_and_recover();
  EXPECT_GT(report.replayed, 0u);
  ClientVerifier verifier = rig.verifier();
  ReadOutcome res = rig.store->read(sn);
  ASSERT_TRUE(res.is<ReadDeleted>()) << to_string(res.status());
  EXPECT_EQ(verifier.verify_read(sn, res).verdict, Verdict::kDeletedVerified);
}

TEST(Recovery, InterruptedExpiryShredIsRedoneOnReplay) {
  // on_expire journals the deletion proof, then shreds. A crash between the
  // two leaves blocks holding plaintext that no VRD governs any more: replay
  // sees the proof land on an active VRD and shreds that record again.
  CrashRig rig("recovery_reshred.wal");
  const common::Bytes zeros(rig.disk.block_size(), 0);
  Sn sn = rig.put(std::string(3 * rig.disk.block_size(), 'p'),
                  Duration::hours(1));
  const std::vector<std::uint64_t> blocks =
      rig.store->vrdt().find(sn)->vrd.rdl.at(0).blocks;
  ASSERT_EQ(blocks.size(), 3u);
  // The zero pass dies on its second block.
  rig.fault.schedule("device.write", FaultKind::kTransient, 2);
  EXPECT_THROW(rig.clock.advance(Duration::hours(2)),
               common::TransientStorageError);
  rig.fault.disarm_all();
  EXPECT_EQ(rig.disk.raw_block(blocks[0]), zeros);
  EXPECT_NE(rig.disk.raw_block(blocks[1]), zeros);

  (void)rig.crash_and_recover();
  for (std::uint64_t b : blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), zeros) << "block " << b;
  }
  ReadOutcome res = rig.store->read(sn);
  ASSERT_TRUE(res.is<ReadDeleted>()) << to_string(res.status());
  EXPECT_EQ(rig.verifier().verify_read(sn, res).verdict,
            Verdict::kDeletedVerified);
}

TEST(Recovery, ReplayedExpiryNeverShredsAReusedBlock) {
  // The shred completed and a later write took the freed block. Replay
  // still folds the expiry over an active VRD, but a live record names the
  // block, so the re-shred must leave it alone.
  CrashRig rig("recovery_reshred_reuse.wal");
  Sn expired = rig.put("short-lived", Duration::hours(1));
  const std::vector<std::uint64_t> blocks =
      rig.store->vrdt().find(expired)->vrd.rdl.at(0).blocks;
  rig.clock.advance(Duration::hours(2));
  Sn later = rig.put("reuses the block", Duration::days(30));
  ASSERT_EQ(rig.store->vrdt().find(later)->vrd.rdl.at(0).blocks, blocks);

  (void)rig.crash_and_recover();
  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(later, rig.store->read(later)).verdict,
            Verdict::kAuthentic);
  EXPECT_EQ(verifier.verify_read(expired, rig.store->read(expired)).verdict,
            Verdict::kDeletedVerified);
}

TEST(Recovery, LitigationHoldSurvivesTheCrash) {
  CrashRig rig("recovery_lit.wal");
  Sn sn = rig.put("held", Duration::days(10));
  common::Bytes cred = crypto::rsa_sign(
      worm::testing::regulator_key(),
      lit_credential_payload(sn, rig.clock.now(), 99, true));
  rig.store->lit_hold({.sn = sn,
                       .lit_id = 99,
                       .hold_until = rig.clock.now() + Duration::days(60),
                       .cred_issued_at = rig.clock.now(),
                       .credential = cred});
  (void)rig.crash_and_recover();
  ReadOutcome res = rig.store->read(sn);
  auto* ok = res.get_if<ReadOk>();
  ASSERT_NE(ok, nullptr) << to_string(res.status());
  EXPECT_TRUE(ok->vrd.attr.litigation_hold);
  EXPECT_EQ(res.status(), ReadStatus::kHold);
}

TEST(Recovery, DeviceBaseAdvanceDuringOutageIsJournaledBeforeTrim) {
  // The device's SN_base moves while the host is down (an out-of-band
  // advance with proofs the host had already journaled). Recovery's
  // catch-up trim must hit the WAL *before* the VRDT: tear the very next
  // journal append and the trim has to abort with local state untouched.
  CrashRig rig("recovery_base_outage.wal");
  Sn s1 = rig.put("expires 1", Duration::minutes(5));
  Sn s2 = rig.put("expires 2", Duration::minutes(5));
  Sn s3 = rig.put("survivor", Duration::days(30));
  rig.clock.advance(Duration::minutes(10));  // proofs delivered + journaled
  DeletionProof p1 = rig.store->read(s1).get<ReadDeleted>().proof;
  DeletionProof p2 = rig.store->read(s2).get<ReadDeleted>().proof;

  rig.crash();
  rig.firmware.advance_base(s3, {p1, p2}, {});

  rig.boot();
  rig.fault.schedule("journal.append", FaultKind::kTorn, 1);
  EXPECT_THROW((void)rig.store->recover(), common::TransientStorageError);
  // WAL-first held: the append tore, so the trim never ran — the replayed
  // deletion proof still answers.
  EXPECT_NE(rig.store->read(s1).get_if<ReadDeleted>(), nullptr);
  rig.fault.disarm_all();

  // Clean reboot: the torn tail is discarded, the trim lands journaled,
  // below-base reads answer as such, and the survivor still verifies.
  auto report = rig.crash_and_recover();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_NE(rig.store->read(s1).get_if<ReadBelowBase>(), nullptr);
  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(s3, rig.store->read(s3)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, RebootAgainstZeroizedDeviceComesUpDegraded) {
  CrashRig rig("recovery_zeroized.wal");
  Sn sn = rig.put("outlives the device", Duration::days(30));
  ClientVerifier verifier = rig.verifier();  // anchors fetched pre-outage
  rig.device.trigger_tamper_response();

  rig.crash();
  rig.boot();  // the status probe finds the device dead — no throw
  EXPECT_TRUE(rig.store->degraded());
  auto report = rig.store->recover();
  EXPECT_GE(report.replayed, 1u);

  // Replayed proofs still serve and verify; mutations are refused.
  EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
  EXPECT_THROW((void)rig.put("no device left", Duration::days(1)),
               common::ReadOnlyStoreError);
}

}  // namespace
}  // namespace worm::core
