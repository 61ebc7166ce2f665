// The journal's frames match a hex golden, and online checkpoints: the
// journal stays bounded while the store serves, a crash at every step of a
// checkpoint loses no acknowledged write, a failed checkpoint leaves the
// journal appendable, no checkpoint folds away a record replay needs to
// redo a failed shred, and reads and admissions go on while a checkpoint
// streams the VRDT.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.hpp"
#include "fault_fixture.hpp"
#include "parkable_fixture.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::Duration;
using common::FaultKind;
using worm::testing::CrashRig;

StoreConfig pipelined() {
  StoreConfig sc = worm::testing::lockstep_store_config();
  sc.pipeline.enabled = true;
  sc.mailbox.max_batch = 4;
  return sc;
}

/// An ingest-sized payload unique to (writer, index).
Bytes payload(int writer, int index, std::size_t size = 8192) {
  std::string text =
      "writer " + std::to_string(writer) + " #" + std::to_string(index) + " ";
  text.resize(size, static_cast<char>('a' + index % 26));
  return common::to_bytes(text);
}

WriteRequest request(const CrashRig& rig, Bytes bytes) {
  return {.payloads = {std::move(bytes)}, .attr = rig.attr(Duration::days(30))};
}

std::uint64_t counter(const CrashRig& rig, std::string_view key) {
  return rig.store->counters().at(key);
}

/// Every acknowledged write reads back kAuthentic with its own payload.
void expect_authentic(CrashRig& rig, const std::map<Sn, Bytes>& acked) {
  ClientVerifier verifier = rig.verifier();
  for (const auto& [sn, bytes] : acked) {
    ReadOutcome r = rig.store->read(sn);
    ASSERT_EQ(verifier.verify_read(sn, r).verdict, Verdict::kAuthentic)
        << "sn " << sn << ": " << to_string(r.status());
    EXPECT_EQ(r.get<ReadOk>().payloads, std::vector<Bytes>{bytes})
        << "sn " << sn;
  }
}

/// Small writes until the VRDT's encoding spans more than one
/// Vrdt::serialize_to piece, so a checkpoint's first "journal.rewrite"
/// point falls partway through its VRDT.
void grow_vrdt_past_one_piece(CrashRig& rig, std::map<Sn, Bytes>& acked) {
  int index = 0;
  while (rig.store->vrdt().storage_bytes() <= Vrdt::kSerializePiece) {
    std::vector<WriteRequest> batch;
    std::vector<Bytes> bytes;
    for (int k = 0; k < 16; ++k) {
      bytes.push_back(payload(7, index++, 64));
      batch.push_back(request(rig, bytes.back()));
    }
    std::vector<Sn> sns = rig.store->write_batch(batch);
    for (std::size_t k = 0; k < sns.size(); ++k) acked[sns[k]] = bytes[k];
  }
}

/// The queued id of every kQueuedWrite the journal holds, in file order.
std::vector<std::uint64_t> admission_qids(const std::string& path) {
  std::vector<std::uint64_t> qids;
  for (const JournalRecord& rec : HostJournal(path).replay().records) {
    if (rec.type != JournalRecordType::kQueuedWrite) continue;
    common::ByteReader r(rec.payload);
    qids.push_back(r.u64());
  }
  return qids;
}

/// The journal file's bytes, hex-encoded.
std::string file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const Bytes bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return common::hex_encode(bytes);
}

// ---------------------------------------------------------------------------
// The on-disk format
// ---------------------------------------------------------------------------

TEST(Journal, FramesMatchTheGoldenEncoding) {
  // Each frame is u8 type | u32 payload length | payload | u32 CRC-32C of
  // the payload, integers little-endian. Payloads are opaque to the
  // journal; the qids tie admissions to the intent that supersedes them.
  const std::string path = ::testing::TempDir() + "journal_golden.wal";
  std::remove(path.c_str());
  HostJournal journal(path);
  const std::uint64_t first = 1;
  const std::uint64_t second = 2;
  journal.append(JournalRecordType::kQueuedWrite, common::to_bytes("qw1"),
                 {&first, 1});
  journal.append(JournalRecordType::kQueuedWrite, common::to_bytes("qw2"),
                 {&second, 1});
  journal.append(JournalRecordType::kIntent, common::to_bytes("intent"),
                 {&first, 1});
  journal.append(JournalRecordType::kComplete, common::to_bytes("done"));
  journal.append(JournalRecordType::kPutDeleted, common::to_bytes("proof"));
  journal.append(JournalRecordType::kTrimBelow,
                 Bytes{0x2a, 0, 0, 0, 0, 0, 0, 0});
  const std::string queued_second = "09" "03000000" "717732" "c7134a87";
  EXPECT_EQ(file_hex(path),
            "09" "03000000" "717731" "33e01a94" +     // kQueuedWrite "qw1"
                queued_second +                       // kQueuedWrite "qw2"
                "01" "06000000" "696e74656e74" "ff052b1b"  // kIntent
                "02" "04000000" "646f6e65" "cb203605"      // kComplete
                "04" "05000000" "70726f6f66" "df6b2b86"    // kPutDeleted
                "07" "08000000" "2a00000000000000" "87296b51");  // kTrimBelow

  // A checkpoint whose first frame streams in two pieces. Only the second
  // admission survives into it: the intent superseded the first.
  journal.checkpoint([](HostJournal::FrameSink& out) {
    out.begin(JournalRecordType::kCheckpoint);
    out.write(common::to_bytes("vr"));
    out.write(common::to_bytes("dt"));
    out.end();
    out.frame(JournalRecordType::kIntent, common::to_bytes("pending"));
  });
  const std::string checkpointed =
      "08" "04000000" "76726474" "66703d78"            // kCheckpoint "vrdt"
      "01" "07000000" "70656e64696e67" "685d9eb2" +    // kIntent "pending"
      queued_second;                                   // copied verbatim
  EXPECT_EQ(file_hex(path), checkpointed);

  // The journal goes on behind the checkpoint.
  journal.append(JournalRecordType::kComplete, common::to_bytes("next"));
  EXPECT_EQ(file_hex(path),
            checkpointed + "02" "04000000" "6e657874" "bbe8148f");
  EXPECT_EQ(journal.replay().records.size(), 4u);
}

// ---------------------------------------------------------------------------
// The size gate
// ---------------------------------------------------------------------------

TEST(Checkpoint, JournalStaysBoundedThroughWriteAsyncAndWriteBatch) {
  // After every group the journal holds at most one checkpoint, what the
  // threshold let accumulate behind it, and that group's own records.
  CrashRig rig("ckpt_bounded.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), pipelined());
  const std::string& path = rig.config.journal_path;
  std::map<Sn, Bytes> acked;
  std::uint64_t last_checkpoint = 0;
  auto group = [&](const std::function<void()>& commit) {
    const std::uint64_t appended = counter(rig, "journal.appended_bytes");
    const std::uint64_t checkpoints = counter(rig, "journal.checkpoints");
    commit();
    // A group's tickets resolve before its checkpoint runs: drain so the
    // flush, its checkpoint included, is over before the sample.
    rig.store->drain_writes();
    const std::uint64_t now_checkpoints = counter(rig, "journal.checkpoints");
    const std::uint64_t records =
        counter(rig, "journal.appended_bytes") - appended;
    const std::uint64_t size = std::filesystem::file_size(path);
    EXPECT_LE(size, std::max(kCheckpointFloorBytes, last_checkpoint) +
                        last_checkpoint + records);
    if (now_checkpoints > checkpoints) last_checkpoint = size;
  };

  int index = 0;
  while (counter(rig, "journal.checkpoints") < 3) {
    group([&] {
      Bytes bytes = payload(0, index++);
      Sn sn = rig.store->write_async(request(rig, bytes)).get();
      acked[sn] = std::move(bytes);
    });
    ASSERT_LT(index, 600) << "write_async never made a checkpoint due";
  }
  const std::uint64_t async_checkpoints = counter(rig, "journal.checkpoints");
  while (counter(rig, "journal.checkpoints") < async_checkpoints + 3) {
    group([&] {
      std::vector<WriteRequest> batch;
      std::vector<Bytes> bytes;
      for (int k = 0; k < 4; ++k) {
        bytes.push_back(payload(1, index++));
        batch.push_back(request(rig, bytes.back()));
      }
      std::vector<Sn> sns = rig.store->write_batch(batch);
      for (std::size_t k = 0; k < sns.size(); ++k) acked[sns[k]] = bytes[k];
    });
    ASSERT_LT(index, 1400) << "write_batch never made a checkpoint due";
  }
  EXPECT_EQ(counter(rig, "journal.checkpoint_failures"), 0u);

  // A boot replays the newest checkpoint plus what followed it.
  auto report = rig.crash_and_recover();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_LT(report.replayed, acked.size() / 2);
  expect_authentic(rig, acked);
}

TEST(Checkpoint, QidsNamedByACheckpointedIntentAreNeverHandedOutAgain) {
  // A group's answer is lost twice, so the checkpoint recovery writes keeps
  // its intent, and with it the queued ids it superseded, while their
  // kQueuedWrite records are gone. The next boot must not hand those ids
  // out again: replay takes them from the intent.
  StoreConfig sc = pipelined();
  sc.mailbox.retry.max_attempts = 1;
  sc.mailbox.max_batch = 1024;
  CrashRig rig("ckpt_qids.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  rig.fault.schedule("channel.response", FaultKind::kDrop, 1);
  WriteTicket a = rig.store->write_async(request(rig, payload(0, 0, 64)));
  WriteTicket b = rig.store->write_async(request(rig, payload(0, 1, 64)));
  EXPECT_THROW((void)a.get(), ChannelTimeoutError);
  EXPECT_THROW((void)b.get(), ChannelTimeoutError);

  // Recovery's resend is lost too (evaluations 1-3 are the boot's status
  // and heartbeat, then recovery's status probe).
  rig.fault.schedule("channel.response", FaultKind::kDrop, 4);
  auto lost_again = rig.crash_and_recover();
  EXPECT_EQ(lost_again.unresolved, 1u);
  EXPECT_TRUE(admission_qids(rig.config.journal_path).empty())
      << "the intent superseded both admissions";

  auto landed = rig.crash_and_recover();
  EXPECT_EQ(landed.recovered_sns, (std::vector<Sn>{1, 2}));
  WriteTicket c = rig.store->write_async(request(rig, payload(0, 2, 64)));
  EXPECT_EQ(admission_qids(rig.config.journal_path),
            std::vector<std::uint64_t>{3});
  EXPECT_EQ(c.get(), 3u);
}

TEST(Checkpoint, QueuedAdmissionsAreCopiedIntoEveryCheckpoint) {
  // Admissions whose group has not crossed exist only as their kQueuedWrite
  // frames. Every checkpoint must copy them, the copy of a copy included,
  // or a crash loses writes recovery owes.
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 1024;  // the queued group never fills
  CrashRig rig("ckpt_queued.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  std::vector<Bytes> owed;
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    owed.push_back(payload(9, i));
    tickets.push_back(rig.store->write_async(request(rig, owed.back())));
  }
  // write_batch crosses on this thread, past the queue, until its appends
  // have made two checkpoints due.
  std::map<Sn, Bytes> acked;
  int index = 0;
  while (counter(rig, "journal.checkpoints") < 2) {
    Bytes bytes = payload(0, index++, 64 * 1024);
    acked[rig.store->write_batch(std::vector{request(rig, bytes)}).front()] =
        bytes;
    ASSERT_LT(index, 100) << "write_batch never made a checkpoint due";
  }
  rig.crash();
  for (WriteTicket& t : tickets) {
    EXPECT_THROW((void)t.get(), common::TransientStorageError);
  }

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_EQ(report.queued_replayed, owed.size());
  expect_authentic(rig, acked);
  ClientVerifier verifier = rig.verifier();
  for (std::size_t k = 0; k < report.recovered_sns.size(); ++k) {
    const Sn sn = report.recovered_sns[k];
    ReadOutcome r = rig.store->read(sn);
    ASSERT_EQ(verifier.verify_read(sn, r).verdict, Verdict::kAuthentic);
    EXPECT_EQ(r.get<ReadOk>().payloads, std::vector<Bytes>{owed.at(k)});
  }
}

// ---------------------------------------------------------------------------
// A crash at every step of a checkpoint
// ---------------------------------------------------------------------------

struct CrashStep {
  const char* name;
  // Which evaluation of "journal.rewrite" in the first checkpoint fails it:
  // 1 partway through the VRDT, 2 with every frame in the temp file, 3
  // before the rename, 4 after it.
  std::uint64_t point;

  // gtest lists a value-parameterized test with its GetParam() printed;
  // unprinted, a CrashStep would show its bytes, the name pointer's
  // address among them, and the test's name would change with every run.
  friend void PrintTo(const CrashStep& step, std::ostream* os) {
    *os << step.name;
  }
};

class CheckpointCrash : public ::testing::TestWithParam<CrashStep> {};

TEST_P(CheckpointCrash, NoAcknowledgedWriteIsLost) {
  const CrashStep step = GetParam();
  CrashRig rig(std::string("ckpt_crash_") + step.name + ".wal",
               /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), pipelined());
  const std::uint64_t executed_before = rig.firmware.counters().writes;
  std::map<Sn, Bytes> acked;
  grow_vrdt_past_one_piece(rig, acked);
  rig.fault.schedule("journal.rewrite", FaultKind::kTransient, step.point);

  // Pipelined writers until the checkpoint fails, and a few writes past it.
  std::mutex mu;
  auto writer = [&](int w) {
    int after_fault = 0;
    for (int i = 0; i < 300 && after_fault < 8; ++i) {
      Bytes bytes = payload(w, i);
      Sn sn = rig.store->write_async(request(rig, bytes)).get();
      std::lock_guard lk(mu);
      acked[sn] = std::move(bytes);
      if (rig.fault.site_stats("journal.rewrite").fires > 0) ++after_fault;
    }
  };
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w) writers.emplace_back(writer, w);
    for (std::thread& t : writers) t.join();
  }
  ASSERT_EQ(rig.fault.site_stats("journal.rewrite").fires, 1u);
  EXPECT_GE(counter(rig, "journal.checkpoint_failures"), 1u);

  // Three admissions whose group is never due: journaled, never resolved.
  std::vector<Bytes> owed;
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    owed.push_back(payload(9, i));
    tickets.push_back(rig.store->write_async(request(rig, owed.back())));
  }
  rig.crash();
  for (WriteTicket& t : tickets) {
    EXPECT_THROW((void)t.get(), common::TransientStorageError);
  }
  // What a power cut partway through a later checkpoint would leave: a
  // torn temp file, which the boot ignores and its checkpoint overwrites.
  std::ofstream(rig.config.journal_path + ".tmp", std::ios::binary)
      << "half a checkpoint";

  rig.boot();
  auto report = rig.store->recover();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.queued_replayed, owed.size());
  expect_authentic(rig, acked);

  // No read answers a failure, and each owed admission ran exactly once.
  std::map<Bytes, int> runs;
  const Sn top = rig.firmware.sn_current();
  for (Sn sn = 1; sn <= top; ++sn) {
    ReadOutcome r = rig.store->read(sn);
    ASSERT_FALSE(r.is<ReadFailure>()) << "sn " << sn;
    if (const auto* ok = r.get_if<ReadOk>()) ++runs[ok->payloads.at(0)];
  }
  for (const Bytes& bytes : owed) EXPECT_EQ(runs[bytes], 1);
  EXPECT_EQ(rig.firmware.counters().writes,
            executed_before + acked.size() + owed.size());
}

INSTANTIATE_TEST_SUITE_P(
    Steps, CheckpointCrash,
    ::testing::Values(CrashStep{"partway", 1}, CrashStep{"all_frames", 2},
                      CrashStep{"before_rename", 3},
                      CrashStep{"after_rename", 4}),
    [](const ::testing::TestParamInfo<CrashStep>& step) {
      return std::string(step.param.name);
    });

// ---------------------------------------------------------------------------
// Failed checkpoints
// ---------------------------------------------------------------------------

TEST(Checkpoint, FailedRewriteKeepsTheJournalAppendable) {
  // A directory squatting on the temp path fails recovery's checkpoint.
  // The journal must go on appending to the file it replayed: the next
  // write is acknowledged, and a later boot replays it.
  CrashRig rig("ckpt_squatted.wal");
  const Sn before = rig.put("before the failed checkpoint", Duration::days(30));
  const std::string tmp = rig.config.journal_path + ".tmp";
  std::filesystem::create_directory(tmp);
  EXPECT_THROW((void)rig.crash_and_recover(), common::StorageError);
  EXPECT_TRUE(std::filesystem::is_directory(tmp))
      << "the checkpoint removes only a temp file it made";
  const Sn after = rig.put("after the failed checkpoint", Duration::days(30));
  EXPECT_EQ(after, before + 1);

  std::filesystem::remove(tmp);
  (void)rig.crash_and_recover();
  ClientVerifier verifier = rig.verifier();
  for (Sn sn : {before, after}) {
    EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
}

TEST(Checkpoint, OnlineFailureIsCountedAndRetriedWhenNextDue) {
  CrashRig rig("ckpt_online_failure.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), pipelined());
  const std::string tmp = rig.config.journal_path + ".tmp";
  std::filesystem::create_directory(tmp);
  std::map<Sn, Bytes> acked;
  int index = 0;
  while (counter(rig, "journal.checkpoint_failures") < 2) {
    Bytes bytes = payload(0, index++);
    acked[rig.store->write_async(request(rig, bytes)).get()] = bytes;
    rig.store->drain_writes();  // the group's checkpoint attempt included
    ASSERT_LT(index, 600) << "no checkpoint was ever due";
  }
  EXPECT_EQ(counter(rig, "journal.checkpoints"), 0u);

  std::filesystem::remove(tmp);
  Bytes bytes = payload(0, index++);
  acked[rig.store->write_async(request(rig, bytes)).get()] = bytes;
  rig.store->drain_writes();
  EXPECT_EQ(counter(rig, "journal.checkpoints"), 1u)
      << "still due, so the next group checkpoints";
  (void)rig.crash_and_recover();
  expect_authentic(rig, acked);
}

TEST(Checkpoint, DegradedBootServesThroughAFailedCheckpoint) {
  // Against a zeroized device, recover() comes up read-only even when its
  // checkpoint cannot be written: the failure is logged and counted, and
  // the journal it replayed stays as it was for the next boot.
  CrashRig rig("ckpt_degraded.wal");
  const Sn sn = rig.put("outlives the device", Duration::days(30));
  ClientVerifier verifier = rig.verifier();  // anchors fetched pre-outage
  rig.device.trigger_tamper_response();
  rig.crash();
  rig.boot();
  const std::string& path = rig.config.journal_path;
  const std::string tmp = path + ".tmp";
  std::filesystem::create_directory(tmp);
  const std::uintmax_t size = std::filesystem::file_size(path);

  WormStore::RecoveryReport report;
  ASSERT_NO_THROW(report = rig.store->recover());
  EXPECT_TRUE(rig.store->degraded());
  EXPECT_EQ(counter(rig, "journal.checkpoint_failures"), 1u);
  EXPECT_EQ(counter(rig, "journal.checkpoints"), 0u);
  EXPECT_EQ(std::filesystem::file_size(path), size);
  EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);

  std::filesystem::remove(tmp);
  EXPECT_EQ(rig.crash_and_recover().replayed, report.replayed);
  EXPECT_EQ(counter(rig, "journal.checkpoints"), 1u);
  EXPECT_EQ(verifier.verify_read(sn, rig.store->read(sn)).verdict,
            Verdict::kAuthentic);
}

// ---------------------------------------------------------------------------
// Shreds a checkpoint must not fold away
// ---------------------------------------------------------------------------

TEST(Checkpoint, ExpiryWhoseShredFailedIsShreddedBeforeItsProofIsFolded) {
  // on_expire journals the deletion proof, then the zero pass dies on its
  // second block. The proof still replaces the VRD, and the shred is owed:
  // the checkpoint that folds the kPutDeleted away (replay would shred the
  // record again from it) first retries the shred.
  CrashRig rig("ckpt_expiry_shred.wal");
  const Bytes zeros(rig.disk.block_size(), 0);
  const Sn expired = rig.put(std::string(3 * rig.disk.block_size(), 'p'),
                             Duration::hours(1));
  const std::vector<std::uint64_t> blocks =
      rig.store->vrdt().find(expired)->vrd.rdl.at(0).blocks;
  rig.fault.schedule("device.write", FaultKind::kTransient, 2);
  EXPECT_THROW(rig.clock.advance(Duration::hours(2)),
               common::TransientStorageError);
  ASSERT_NE(rig.disk.raw_block(blocks[1]), zeros);
  ReadOutcome gone = rig.store->read(expired);
  ASSERT_TRUE(gone.is<ReadDeleted>()) << to_string(gone.status());
  EXPECT_EQ(rig.verifier().verify_read(expired, gone).verdict,
            Verdict::kDeletedVerified);

  // Writes until a checkpoint lands; its due check retried the shred.
  std::map<Sn, Bytes> acked;
  int index = 0;
  while (counter(rig, "journal.checkpoints") == 0) {
    Bytes bytes = payload(0, index++, 64 * 1024);
    acked[rig.store->write_batch(std::vector{request(rig, bytes)}).front()] =
        bytes;
    ASSERT_LT(index, 100) << "write_batch never made a checkpoint due";
  }
  EXPECT_EQ(counter(rig, "journal.checkpoint_failures"), 0u);
  for (std::uint64_t b : blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), zeros) << "block " << b;
  }

  (void)rig.crash_and_recover();
  for (std::uint64_t b : blocks) {
    EXPECT_EQ(rig.disk.raw_block(b), zeros) << "block " << b;
  }
  EXPECT_EQ(rig.verifier().verify_read(expired, rig.store->read(expired))
                .verdict,
            Verdict::kDeletedVerified);
  expect_authentic(rig, acked);
}

TEST(Checkpoint, LateAnswerShredThatStillFailsHoldsTheCheckpointBack) {
  // As in Recovery.LateAnswerBelowTheBaseIsShreddedOnReplay: a write's
  // answer is lost, the device expires it and advances its base past it
  // while the host is down, and the answer lands below the base at the next
  // crossing. The shred of its record fails, and so does the retry at the
  // next due check, so that checkpoint waits: the kComplete replay shreds
  // the record from stays in the journal.
  StoreConfig sc = worm::testing::lockstep_store_config();
  sc.mailbox.retry.max_attempts = 1;
  CrashRig rig("ckpt_late_shred.wal", /*with_faults=*/true, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  const Bytes zeros(rig.disk.block_size(), 0);
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
  const std::uint64_t checkpoints = counter(rig, "journal.checkpoints");

  // device.write evaluations 1 and 2 zero-fill SN 1's blocks.
  rig.fault.schedule("device.write", FaultKind::kTransient, 2);
  std::map<Sn, Bytes> acked;
  Bytes next = payload(0, 0, 64);
  acked[rig.store->write_batch(std::vector{request(rig, next)}).front()] =
      next;
  ASSERT_FALSE(rig.store->vrdt().find(1).has_value());
  ASSERT_NE(rig.disk.raw_block(1), zeros);

  // Two writes whose intents carry more than the threshold between them:
  // the second makes a checkpoint due, and the retry's first block write,
  // right after both payloads', fails.
  const std::size_t size = kCheckpointFloorBytes / 2 + 128 * 1024;
  rig.fault.schedule("device.write", FaultKind::kTransient,
                     2 * (size / rig.disk.block_size()) + 1);
  for (int i = 1; i <= 2; ++i) {
    Bytes bytes = payload(0, i, size);
    acked[rig.store->write_batch(std::vector{request(rig, bytes)}).front()] =
        bytes;
  }
  EXPECT_EQ(counter(rig, "journal.checkpoint_failures"), 1u);
  EXPECT_EQ(counter(rig, "journal.checkpoints"), checkpoints);
  EXPECT_NE(rig.disk.raw_block(1), zeros);

  (void)rig.crash_and_recover();
  EXPECT_EQ(rig.disk.raw_block(0), zeros);
  EXPECT_EQ(rig.disk.raw_block(1), zeros);
  ClientVerifier verifier = rig.verifier();
  EXPECT_EQ(verifier.verify_read(1, rig.store->read(1)).verdict,
            Verdict::kDeletedVerified);
  expect_authentic(rig, acked);
}

// ---------------------------------------------------------------------------
// A checkpoint parked partway through its VRDT
// ---------------------------------------------------------------------------

TEST(Checkpoint, ReadsAndAdmissionsProceedWhileTheVrdtStreams) {
  worm::testing::ParkableFault parked("journal.rewrite");
  StoreConfig sc = pipelined();
  sc.fault = &parked.fault;
  CrashRig rig("ckpt_parked.wal", /*with_faults=*/false, 0x5eed,
               worm::testing::slow_timers_config(), sc);
  ClientVerifier verifier = rig.verifier();  // anchors() crosses: ask early
  constexpr std::size_t kBig = 64 * 1024;

  // Fill the journal to just short of the threshold.
  std::map<Sn, Bytes> acked;
  grow_vrdt_past_one_piece(rig, acked);
  int index = 0;
  while (counter(rig, "journal.appended_bytes") + 4 * kBig <
         kCheckpointFloorBytes) {
    Bytes bytes = payload(0, index++, kBig);
    acked[rig.store->write_async(request(rig, bytes)).get()] = bytes;
  }
  ASSERT_EQ(counter(rig, "journal.checkpoints"), 0u);

  // The writer's next groups make a checkpoint due; it parks in the
  // committer, holding the commit lock and the shared store lock.
  parked.bp.arm();
  std::future<std::map<Sn, Bytes>> writer;
  std::future<std::vector<std::pair<Sn, ReadOutcome>>> reads;
  std::future<std::optional<WriteTicket>> admission;
  worm::testing::ReleaseOnExit release{parked.bp};
  writer = std::async(std::launch::async, [&, index] {
    std::map<Sn, Bytes> mine;
    for (int i = index; i < index + 8; ++i) {
      Bytes bytes = payload(0, i, kBig);
      mine[rig.store->write_async(request(rig, bytes)).get()] = bytes;
    }
    return mine;
  });
  ASSERT_TRUE(parked.bp.wait_parked());

  reads = std::async(std::launch::async, [&] {
    std::vector<std::pair<Sn, ReadOutcome>> outcomes;
    for (const auto& [sn, bytes] : acked) {
      outcomes.emplace_back(sn, rig.store->read(sn));
    }
    return outcomes;
  });
  const Bytes admitted_bytes = payload(1, 0);
  admission = std::async(std::launch::async, [&] {
    return rig.store->try_write_async(request(rig, admitted_bytes));
  });
  EXPECT_TRUE(worm::testing::returned(reads)) << "reads waited for the VRDT";
  EXPECT_TRUE(worm::testing::returned(admission))
      << "an admission waited for the VRDT";
  parked.bp.release();
  for (const auto& [sn, outcome] : reads.get()) {
    EXPECT_EQ(verifier.verify_read(sn, outcome).verdict, Verdict::kAuthentic)
        << "sn " << sn;
  }

  std::map<Sn, Bytes> mine = writer.get();
  acked.insert(mine.begin(), mine.end());
  std::optional<WriteTicket> ticket = admission.get();
  ASSERT_TRUE(ticket.has_value());
  acked[ticket->get()] = admitted_bytes;
  EXPECT_GE(counter(rig, "journal.checkpoints"), 1u);
  EXPECT_EQ(counter(rig, "journal.checkpoint_failures"), 0u);

  (void)rig.crash_and_recover();
  expect_authentic(rig, acked);
}

}  // namespace
}  // namespace worm::core
