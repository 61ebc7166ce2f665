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
using worm::testing::outcome_fingerprint;

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
  // Recovery journals the resent write's answer (its kComplete, the one
  // record the resend appends) with faults still live. A transient fault
  // fails that append cleanly; recovery appends it again instead of failing,
  // whether one fault or two in a row strike it.
  for (std::uint64_t faults : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(faults) + " journal.append fault(s) in a row");
    CrashRig rig("recovery_resend_journal.wal");
    rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
    EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
                 ChannelTimeoutError);
    rig.fault.disarm_all();
    const std::uint64_t executed = rig.firmware.counters().writes;

    rig.crash();
    rig.boot();
    const std::uint64_t fired_before = rig.fault.injected_total();
    for (std::uint64_t nth = 1; nth <= faults; ++nth) {
      rig.fault.schedule("journal.append", FaultKind::kTransient, nth);
    }
    auto report = rig.store->recover();
    EXPECT_EQ(rig.fault.injected_total(), fired_before + faults);
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

  // The checkpoint kept the intent, so the next recovery lands it
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

TEST(Recovery, LostAnswerLandsAtTheNextCrossing) {
  // The device runs a write, but every answer is lost. The store keeps the
  // frame and resends it before its next sequenced crossing, so the device
  // never holds more than one unanswered command and answers it from its
  // 16-deep response cache however many writes follow. Left to recovery,
  // the resend would find the answer pushed out of the cache by 20 later
  // writes, run the write again as SN 22, and SN 1 would read as tampered.
  CrashRig rig("recovery_lost_answer.wal");
  const std::uint64_t executed_before = rig.firmware.counters().writes;
  rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  EXPECT_THROW((void)rig.put("lost answer", Duration::days(30)),
               ChannelTimeoutError);
  rig.fault.disarm_all();
  for (int i = 0; i < 20; ++i) {
    (void)rig.put("later " + std::to_string(i), Duration::days(30));
  }

  (void)rig.crash_and_recover();
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 21)
      << "the device ran SN 1 once";
  ReadOutcome first = rig.store->read(1);
  EXPECT_EQ(rig.verifier().verify_read(1, first).verdict, Verdict::kAuthentic);
  ASSERT_NE(first.get_if<ReadOk>(), nullptr) << to_string(first.status());
  EXPECT_EQ(first.get<ReadOk>().payloads,
            std::vector<common::Bytes>{common::to_bytes("lost answer")});
}

TEST(Recovery, LostAnswerLandsWithoutAJournal) {
  // The same lost answer on a store that journals nothing: the frame is kept
  // in memory all the same, so the next write lands SN 1 before its own.
  // Otherwise a fresh heartbeat counts SN 1 while the host holds no entry
  // for it, and the read answers a failure, which the client reports as
  // tampering.
  CrashRig rig("");
  rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
  EXPECT_THROW((void)rig.put("lost answer", Duration::days(30)),
               ChannelTimeoutError);
  rig.fault.disarm_all();
  EXPECT_EQ(rig.put("next", Duration::days(30)), 2u);
  (void)rig.store->refresh_heartbeat();
  EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, LateAnswerLeavesTheExpiryProofStanding) {
  // A write's answer is lost, and its retention runs out before the next
  // crossing: the device's expiry lands first, as a proof with no VRD to
  // replace, so it shreds nothing. The next write's crossing lands the
  // answer, which must leave the one-time proof in place and shred the
  // record by its own policy. Were the VRD put over the proof, the record
  // would be served past its retention, its plaintext never shredded, and
  // compaction and the base would stop at its SN for good.
  for (const char* wal : {"", "recovery_late_answer.wal"}) {
    const bool journaled = *wal != '\0';
    SCOPED_TRACE(journaled ? "journaled" : "unjournaled");
    CrashRig rig(wal);
    const common::Bytes zeros(rig.disk.block_size(), 0);
    const std::uint64_t executed_before = rig.firmware.counters().writes;
    rig.fault.arm("channel.response", {.kind = FaultKind::kDrop});
    EXPECT_THROW((void)rig.put(std::string(2 * rig.disk.block_size(), 'p'),
                               Duration::hours(1)),
                 ChannelTimeoutError);
    rig.fault.disarm_all();
    rig.clock.advance(Duration::hours(2));  // the device expires SN 1
    ASSERT_TRUE(rig.store->read(1).is<ReadDeleted>());

    // The resend lands SN 1 and frees its two blocks; SN 2 takes the first.
    Sn next = rig.put("next", Duration::days(30));
    EXPECT_EQ(next, 2u);
    EXPECT_EQ(rig.firmware.counters().writes, executed_before + 2);
    EXPECT_EQ(rig.store->vrdt().find(next)->vrd.rdl.at(0).blocks,
              std::vector<std::uint64_t>{0});
    auto check = [&] {
      ClientVerifier verifier = rig.verifier();
      ReadOutcome late = rig.store->read(1);
      ASSERT_TRUE(late.is<ReadDeleted>()) << to_string(late.status());
      EXPECT_EQ(verifier.verify_read(1, late).verdict,
                Verdict::kDeletedVerified);
      EXPECT_EQ(rig.disk.raw_block(1), zeros);
      EXPECT_EQ(verifier.verify_read(next, rig.store->read(next)).verdict,
                Verdict::kAuthentic);
    };
    check();
    if (!journaled) continue;
    // Replay lands the answer after the proof, as the live store did.
    (void)rig.crash_and_recover();
    check();
  }
}

/// Journals a one-write kWriteBatch the device answered: its intent, naming
/// `rd`, and the answer witnessing it as `sn`, as a store journals a live
/// crossing. The witness carries no signatures.
void journal_answered_write(CrashRig& rig, std::uint64_t seq, Sn sn,
                            const storage::RecordDescriptor& rd) {
  Firmware::BatchItem item;
  item.attr = rig.attr(Duration::days(30));
  item.rdl = {rd};
  item.payloads = {common::to_bytes("forged")};
  common::ByteWriter frame;
  ScpuChannel::encode_write_batch_into(frame, {item}, WitnessMode::kStrong,
                                       HashMode::kScpuHash);
  common::ByteWriter ack;  // one witness, SN_current after, no epoch cert
  ack.u32(1);
  ack.u64(sn);
  item.attr.serialize(ack);
  ack.blob(common::Bytes(32, 0));
  SigBox{}.serialize(ack);
  SigBox{}.serialize(ack);
  ack.u64(sn);
  ack.boolean(false);

  HostJournal journal(rig.config.journal_path);
  common::ByteWriter intent;
  intent.u64(seq);
  intent.blob(frame.bytes());
  intent.u32(0);  // supersedes no admissions
  journal.append(JournalRecordType::kIntent, intent.bytes());
  common::ByteWriter answer;
  answer.u64(seq);
  answer.boolean(true);
  answer.blob(ack.bytes());
  journal.append(JournalRecordType::kComplete, answer.bytes());
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
  // Untrusted input: a journaled answer whose intent names a block far past
  // the device must neither size the free list nor be handed out.
  const std::uint64_t bogus = rig.disk.block_count() + 1000;
  journal_answered_write(rig, /*seq=*/1000, /*sn=*/99,
                         {.record_id = 42, .size = 1, .blocks = {bogus}});

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_FALSE(report.torn_tail);
  ASSERT_TRUE(rig.store->vrdt().find(99).has_value()) << "the forged pair replayed";
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
  // blocks its frame names stay allocated until its answer lands: at the
  // next crossing, which resends it before it stages anything. Had the
  // derivation freed them, the next write would overwrite SN 1's payload.
  CrashRig rig("recovery_unresolved_blocks.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt());
  const std::uint64_t executed_before = rig.firmware.counters().writes;
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  EXPECT_THROW((void)rig.put("in flight", Duration::days(30)),
               ChannelTimeoutError);
  rig.crash();
  rig.boot();
  rig.fault.schedule("channel.response", FaultKind::kDrop, 2);
  ASSERT_EQ(rig.store->recover().unresolved, 1u);

  Sn after = rig.put("after", Duration::days(30));
  EXPECT_EQ(after, 2u);
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 2);
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.resent, 0u) << "the crossing before SN 2 landed SN 1";
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {Sn{1}, after}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Recovery, QueuedReexecutionTimeoutKeepsItsAdmissionsThroughTheCheckpoint) {
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

  // The checkpoint kept that intent: the next recovery resends it exactly
  // once, from the response cache, and does not re-execute the admission it
  // superseded.
  auto second = rig.crash_and_recover();
  EXPECT_EQ(second.resent, 1u);
  EXPECT_EQ(second.queued_replayed, 0u);
  EXPECT_EQ(second.recovered_sns, std::vector<Sn>{1});
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 1);
  EXPECT_EQ(rig.verifier().verify_read(1, rig.store->read(1)).verdict,
            Verdict::kAuthentic);

  // A write's answer is lost, and an admission after it is never grouped.
  // When recovery's resend times out again, re-executing the admission
  // would resend that intent first, outside the report: the checkpoint
  // keeps the admission for the next boot, and the timeout counts once.
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  EXPECT_THROW((void)rig.put("lost answer", Duration::days(30)),
               ChannelTimeoutError);
  WriteTicket owed = rig.store->write_async(
      {.payloads = {common::to_bytes("owed")},
       .attr = rig.attr(Duration::days(30))});
  rig.crash();
  EXPECT_THROW((void)owed.get(), common::TransientStorageError);
  rig.boot();
  rig.fault.schedule("channel.response", FaultKind::kDrop, 2);
  auto third = rig.store->recover();
  EXPECT_EQ(third.resent, 1u);
  EXPECT_EQ(third.unresolved, 1u);
  EXPECT_EQ(third.queued_replayed, 0u);
  EXPECT_TRUE(third.recovered_sns.empty());
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 2);

  auto fourth = rig.crash_and_recover();
  EXPECT_EQ(fourth.resent, 1u);
  EXPECT_EQ(fourth.unresolved, 0u);
  EXPECT_EQ(fourth.queued_replayed, 1u);
  EXPECT_EQ(fourth.recovered_sns, (std::vector<Sn>{2, 3}));
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 3);
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {Sn{2}, Sn{3}}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
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
  // The derivation counted them live until the rejection released them.
  EXPECT_EQ(rig.records->free_blocks(), free_before + rd.blocks.size());
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

TEST(Recovery, RefusedForgedResendNeverZeroesALiveRecord) {
  // The journal is untrusted: an edited intent the device refuses names a
  // live record's block, under that record's id or another one. Releasing
  // what the refused frame staged must leave the block to the live record,
  // and the next write must not be handed it.
  for (bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup" : "no dedup");
    StoreConfig sc = worm::testing::lockstep_store_config();
    sc.dedup = dedup;
    CrashRig rig("recovery_forged_refused.wal", /*with_faults=*/true, 0x5eed,
                 worm::testing::slow_timers_config(), sc);
    common::Bytes payload = common::to_bytes("live record");
    Sn live = rig.store->write(
        {.payloads = {payload}, .attr = rig.attr(Duration::days(30))});
    storage::RecordDescriptor rd = rig.store->vrdt().find(live)->vrd.rdl.at(0);
    rig.crash();
    storage::RecordDescriptor forged = rd;
    forged.record_id += 1000;
    journal_refused_intent(rig, dedup ? forged : rd, payload);

    rig.boot();
    auto report = rig.store->recover();
    EXPECT_EQ(report.abandoned, 1u);
    EXPECT_EQ(rig.store->counters().at("recovery.orphan_blocks"), 0u);
    Sn next = rig.put("next", Duration::days(30));
    EXPECT_NE(rig.store->vrdt().find(next)->vrd.rdl.at(0).blocks, rd.blocks);
    ClientVerifier verifier = rig.verifier();
    for (Sn sn : {live, next}) {
      EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
                Verdict::kAuthentic)
          << "sn " << sn;
    }
  }
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

TEST(Recovery, FailedShredLeavesTheRetentionMonitorArmed) {
  // A shred that hits a device fault throws out of the expiry. The
  // retention monitor must still wake for the records expiring after it,
  // with no write in between to reschedule it.
  CrashRig rig("recovery_rm_rearm.wal");
  const common::Bytes zeros(rig.disk.block_size(), 0);
  (void)rig.put("expires first", Duration::hours(1));
  Sn later = rig.put(std::string(2 * rig.disk.block_size(), 'l'),
                     Duration::hours(3));
  const std::vector<std::uint64_t> blocks =
      rig.store->vrdt().find(later)->vrd.rdl.at(0).blocks;
  // The first shred's first block write fails.
  rig.fault.schedule("device.write", FaultKind::kTransient, 1);
  EXPECT_THROW(rig.clock.advance(Duration::hours(2)),
               common::TransientStorageError);
  rig.fault.disarm_all();

  rig.clock.advance(Duration::hours(3));
  ReadOutcome res = rig.store->read(later);
  ASSERT_TRUE(res.is<ReadDeleted>()) << to_string(res.status());
  EXPECT_EQ(rig.verifier().verify_read(later, res).verdict,
            Verdict::kDeletedVerified);
  for (std::uint64_t b : blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), zeros) << "block " << b;
  }
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

/// A litigation hold (or release) of `sn` under a regulator credential
/// issued now.
LitigationRequest litigation(CrashRig& rig, Sn sn, bool hold) {
  return {.sn = sn,
          .lit_id = 99,
          .hold_until = rig.clock.now() + Duration::days(60),
          .cred_issued_at = rig.clock.now(),
          .credential = crypto::rsa_sign(
              worm::testing::regulator_key(),
              lit_credential_payload(sn, rig.clock.now(), 99, hold))};
}

TEST(Recovery, ReplayLandsEveryAnswerAsTheLiveStoreDid) {
  // The journal holds what the device answered, and replay applies each
  // answer through the fold the live crossing used. So after a crash every
  // SN answers as it did before: writes in all three witness modes, a hold
  // and its release, and one duty pass that strengthens, compacts a window
  // and advances the base past it. Replayed answers count only as replayed.
  CrashRig rig("recovery_answers.wal");
  for (int i = 0; i < 4; ++i) {
    (void)rig.put("expiring " + std::to_string(i), Duration::minutes(5));
  }
  (void)rig.put("strong", Duration::days(30), WitnessMode::kStrong);
  Sn deferred = rig.put("deferred", Duration::days(30), WitnessMode::kDeferred);
  (void)rig.put("hmac", Duration::days(30), WitnessMode::kHmac);
  Sn held = rig.put("held", Duration::days(30));
  rig.store->lit_hold(litigation(rig, held, /*hold=*/true));
  rig.store->lit_release(litigation(rig, held, /*hold=*/false));
  rig.clock.advance(Duration::minutes(10));  // SNs 1-4 expire
  ASSERT_TRUE(rig.store->pump_idle());
  ASSERT_TRUE(rig.store->read(1).is<ReadBelowBase>()) << "no base advance";
  ASSERT_EQ(rig.store->read(deferred).get<ReadOk>().vrd.metasig.kind,
            SigKind::kStrong)
      << "no strengthening";
  std::vector<common::Bytes> before;
  for (Sn sn = 1; sn <= held; ++sn) {
    before.push_back(outcome_fingerprint(rig.store->read(sn)));
  }

  auto report = rig.crash_and_recover();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.resent, 0u);
  ClientVerifier verifier = rig.verifier();
  for (Sn sn = 1; sn <= held; ++sn) {
    ReadOutcome after = rig.store->read(sn);
    EXPECT_EQ(outcome_fingerprint(after), before[sn - 1]) << "sn " << sn;
    EXPECT_TRUE(verifier.verify_read(sn, after).trustworthy()) << "sn " << sn;
  }
  const auto counters = rig.store->counters();
  EXPECT_EQ(counters.at("store.writes"), 0u);
  EXPECT_EQ(counters.at("store.compactions"), 0u);
  EXPECT_EQ(counters.at("store.base_advances"), 0u);
  EXPECT_EQ(counters.at("recovery.replayed"), report.replayed);
}

TEST(Recovery, AnswerAppendFaultServesNeitherWriteUntilItLands) {
  // The two writes of one chunk land through one journaled answer. The
  // store already holds that answer, so a transient fault on its append is
  // retried. Once the retries run out, nothing is applied: neither write is
  // served, and the intent stays pending. Recovery lands both from the
  // device's response cache.
  CrashRig rig("recovery_answer_fault.wal");
  const std::uint64_t executed_before = rig.firmware.counters().writes;
  const std::vector<WriteRequest> requests = {
      {.payloads = {common::to_bytes("A")}, .attr = rig.attr(Duration::days(30))},
      {.payloads = {common::to_bytes("B")}, .attr = rig.attr(Duration::days(30))},
  };
  // journal.append evaluation 1 is a chunk's intent, 2 its answer, 3 and 4
  // the answer's retries.
  rig.fault.schedule("journal.append", FaultKind::kTransient, 2);
  EXPECT_EQ(rig.store->write_batch(requests), (std::vector<Sn>{1, 2}));
  for (std::uint64_t nth : {2u, 3u, 4u}) {
    rig.fault.schedule("journal.append", FaultKind::kTransient, nth);
  }
  EXPECT_THROW((void)rig.store->write_batch(requests),
               common::TransientStorageError);
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 4);
  for (Sn sn : {Sn{3}, Sn{4}}) {
    ReadOutcome limbo = rig.store->read(sn);
    auto* gone = limbo.get_if<ReadUnavailable>();
    ASSERT_NE(gone, nullptr) << "sn " << sn << ": " << to_string(limbo.status());
    EXPECT_TRUE(gone->retryable);
  }

  auto report = rig.crash_and_recover();
  EXPECT_EQ(report.recovered_sns, (std::vector<Sn>{3, 4}));
  EXPECT_EQ(rig.firmware.counters().writes, executed_before + 4);
  ClientVerifier verifier = rig.verifier();
  for (Sn sn = 1; sn <= 4; ++sn) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Recovery, ReplayedBaseGivesWayToTheDevicesNewerOne) {
  // Replay restores the S_s(SN_base) an advance answered. The device's base
  // moved on during the outage, so that proof does not cover the SNs between
  // the two bases: a read there must fetch the device's own, or the client
  // would convict the honest host.
  CrashRig rig("recovery_base_replayed.wal");
  for (int i = 0; i < 4; ++i) {
    (void)rig.put("early " + std::to_string(i), Duration::minutes(5));
  }
  Sn s5 = rig.put("late 5", Duration::hours(1));
  Sn s6 = rig.put("late 6", Duration::hours(1));
  Sn survivor = rig.put("survivor", Duration::days(30));
  rig.clock.advance(Duration::minutes(10));  // SNs 1-4 expire
  ASSERT_TRUE(rig.store->pump_idle());       // the base advances to SN 5
  ASSERT_TRUE(rig.store->read(1).is<ReadBelowBase>());
  rig.clock.advance(Duration::hours(1));  // SNs 5 and 6 expire
  DeletionProof p5 = rig.store->read(s5).get<ReadDeleted>().proof;
  DeletionProof p6 = rig.store->read(s6).get<ReadDeleted>().proof;

  rig.crash();
  rig.firmware.advance_base(survivor, {p5, p6}, {});
  (void)rig.crash_and_recover();
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {Sn{1}, s5, s6}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kDeletedVerified)
        << "sn " << sn;
  }
  EXPECT_EQ(verifier.verify_read(survivor, rig.store->read(survivor)).verdict,
            Verdict::kAuthentic);
}

TEST(Recovery, LateAnswerBelowTheBaseIsShreddedOnReplay) {
  // A write's answer is lost and it expires; while the host is down, the
  // device advances its base past it over the expiry proof. Recovery's
  // resend is lost too, so the intent stays pending through the checkpoint.
  // The next crossing lands the answer below the base: no VRD goes there,
  // where it would be served past its retention, and the record is
  // shredded. That shred fails on its second block, so replay, whose fold
  // knows the base from the boot's status probe, shreds it again.
  CrashRig rig("recovery_late_below_base.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), one_attempt());
  const common::Bytes zeros(rig.disk.block_size(), 0);
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  EXPECT_THROW((void)rig.put(std::string(2 * rig.disk.block_size(), 'p'),
                             Duration::hours(1)),
               ChannelTimeoutError);
  rig.clock.advance(Duration::hours(2));  // the device expires SN 1
  DeletionProof proof = rig.store->read(1).get<ReadDeleted>().proof;
  rig.crash();
  rig.firmware.advance_base(2, {proof}, {});
  rig.boot();
  // channel.response evaluation 1 is recovery's status probe, 2 the resend.
  rig.fault.schedule("channel.response", FaultKind::kDrop, 2);
  ASSERT_EQ(rig.store->recover().unresolved, 1u);

  // device.write evaluations 1 and 2 zero-fill SN 1's blocks.
  rig.fault.schedule("device.write", FaultKind::kTransient, 2);
  Sn next = rig.put("next", Duration::days(30));
  EXPECT_FALSE(rig.store->vrdt().find(1).has_value());
  EXPECT_NE(rig.disk.raw_block(1), zeros);

  (void)rig.crash_and_recover();
  EXPECT_FALSE(rig.store->vrdt().find(1).has_value());
  EXPECT_EQ(rig.disk.raw_block(0), zeros);
  EXPECT_EQ(rig.disk.raw_block(1), zeros);
  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(1, rig.store->read(1)).verdict,
            Verdict::kDeletedVerified);
  EXPECT_EQ(verifier.verify_read(next, rig.store->read(next)).verdict,
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
