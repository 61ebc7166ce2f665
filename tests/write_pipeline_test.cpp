// Group-commit write pipeline: write_async tickets, group formation,
// backpressure, read-your-writes across the queue, graceful close vs crash
// shutdown, lockstep proof-stream equivalence against a synchronous
// uncached reference, and what reads, admissions and heartbeats see while
// the committer is mid-crossing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "fault_fixture.hpp"
#include "parkable_fixture.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using worm::testing::kPatience;
using worm::testing::lockstep_store_config;
using worm::testing::outcome_fingerprint;
using worm::testing::ParkableRig;
using worm::testing::ReleaseOnExit;
using worm::testing::returned;
using worm::testing::Rig;

StoreConfig pipelined(StoreConfig base = {}) {
  base.pipeline.enabled = true;
  return base;
}

TEST(WritePipeline, AsyncTicketsResolveInAdmissionOrder) {
  Rig rig({}, pipelined());
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(rig.store.write_async(
        {.payloads = {common::to_bytes("rec " + std::to_string(i))},
         .attr = rig.attr(Duration::days(30))}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].get(), i + 1) << "tickets resolve in queue order";
  }
  for (Sn sn = 1; sn <= 10; ++sn) {
    EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
              Verdict::kAuthentic)
        << "sn " << sn;
  }
  auto counters = rig.store.counters();
  EXPECT_EQ(counters.at("write_pipeline.queued"), 10u);
  EXPECT_GE(counters.at("write_pipeline.batches"), 1u);
  EXPECT_GE(counters.at("write_pipeline.batch_fill_avg"), 1u);
}

TEST(WritePipeline, GroupsFormUnderTheBatchThreshold) {
  // A window of admissions before any ticket wait: the committer takes them
  // as max_batch-sized groups, so crossings are amortized.
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 8;
  Rig rig({}, sc);
  std::uint64_t crossings0 = rig.store.counters().at("mailbox.crossings");
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(rig.store.write_async(
        {.payloads = {common::to_bytes("g")},
         .attr = rig.attr(Duration::days(30))}));
  }
  for (auto& t : tickets) (void)t.get();
  auto counters = rig.store.counters();
  // 16 writes, groups of 8: two kWriteBatch crossings (plus at most a few
  // incidental duty crossings), never 16 write crossings.
  EXPECT_LE(counters.at("mailbox.crossings") - crossings0, 6u);
  EXPECT_EQ(counters.at("write_pipeline.batch_fill_avg"), 8u);
  EXPECT_EQ(counters.at("store.writes"), 16u);
}

TEST(WritePipeline, SyncWriteDelegatesToThePipeline) {
  Rig rig({}, pipelined());
  EXPECT_EQ(rig.put("one", Duration::days(30)), 1u);
  EXPECT_EQ(rig.put("two", Duration::days(30)), 2u);
  EXPECT_EQ(rig.store.counters().at("write_pipeline.queued"), 2u);
  EXPECT_EQ(rig.verifier.verify_read(1, rig.store.read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(WritePipeline, WriteAsyncRequiresThePipeline) {
  Rig rig;  // pipeline off (default)
  EXPECT_THROW((void)rig.store.write_async(
                   {.payloads = {common::to_bytes("x")},
                    .attr = rig.attr(Duration::days(30))}),
               common::PreconditionError);
}

TEST(WritePipeline, ReadYourWritesAnswersUnavailableWhileQueued) {
  // A batch threshold nothing reaches and no ticket asked: admissions stay
  // queued until drained.
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 1024;
  Rig rig({}, sc);
  WriteTicket t = rig.store.write_async(
      {.payloads = {common::to_bytes("queued")},
       .attr = rig.attr(Duration::days(30))});

  // The SN this admission will claim is above the mirror; a signed "not
  // allocated" now would be contradicted the moment the group flushes.
  ReadOutcome limbo = rig.store.read(1);
  auto* unavailable = limbo.get_if<ReadUnavailable>();
  ASSERT_NE(unavailable, nullptr) << to_string(limbo.status());
  EXPECT_TRUE(unavailable->retryable);

  rig.store.drain_writes();
  ASSERT_TRUE(t.ready());
  EXPECT_EQ(t.get(), 1u);
  EXPECT_EQ(rig.verifier.verify_read(1, rig.store.read(1)).verdict,
            Verdict::kAuthentic);
}

TEST(WritePipeline, BackpressureStallsAreCountedAndRecover) {
  StoreConfig sc = pipelined();
  sc.pipeline.queue_capacity = 2;
  sc.mailbox.max_batch = 2;
  Rig rig({}, sc);
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 12; ++i) {
    // A full queue is itself a flush trigger, so a lone submitter stalls
    // only until the committer takes the current group.
    tickets.push_back(rig.store.write_async(
        {.payloads = {common::to_bytes("bp")},
         .attr = rig.attr(Duration::days(30))}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].get(), i + 1);
  }
  EXPECT_GE(rig.store.counters().at("write_pipeline.backpressure_stalls"), 1u);
}

TEST(WritePipeline, CloseDrainsThenRejectsNewWrites) {
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 1024;
  Rig rig({}, sc);
  WriteTicket t = rig.store.write_async(
      {.payloads = {common::to_bytes("to drain")},
       .attr = rig.attr(Duration::days(30))});
  rig.store.close();
  EXPECT_EQ(t.get(), 1u) << "close() drains, never drops";
  EXPECT_THROW((void)rig.store.write_async(
                   {.payloads = {common::to_bytes("late")},
                    .attr = rig.attr(Duration::days(30))}),
               common::PreconditionError);
}

TEST(WritePipeline, DestructionFailsQueuedTicketsWithTransientError) {
  // Destroying the store without close() is the crash path: queued tickets
  // fail, they do not hang.
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 1024;
  auto rig = std::make_unique<Rig>(core::FirmwareConfig{}, sc);
  WriteTicket t = rig->store.write_async(
      {.payloads = {common::to_bytes("dropped")},
       .attr = rig->attr(Duration::days(30))});
  rig.reset();
  ASSERT_TRUE(t.ready());
  EXPECT_THROW((void)t.get(), common::TransientStorageError);
}

TEST(WritePipeline, RacingWritersAndReadersStayCoherent) {
  // Writers admit through the pipeline while readers sweep the SN space.
  // Every observed outcome must be an honest one — a settled record reads
  // Ok, an unsettled SN reads Unavailable or NotAllocated, and nothing ever
  // reads as Failure (which would claim data loss).
  StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 8;
  Rig rig({}, sc);
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 24;
  std::atomic<std::size_t> failures{0};
  std::atomic<bool> stop_readers{false};

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        WriteTicket t = rig.store.write_async(
            {.payloads = {common::to_bytes("race")},
             .attr = rig.attr(Duration::days(30))});
        (void)t.get();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      Sn sn = 1;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        ReadOutcome out = rig.store.read(sn);
        if (out.is<ReadFailure>()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        sn = sn % (kWriters * kPerWriter) + 1;
      }
    });
  }
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop_readers.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(failures.load(), 0u);
  rig.store.drain_writes();
  for (Sn sn = 1; sn <= kWriters * kPerWriter; ++sn) {
    EXPECT_TRUE(rig.store.read(sn).is<ReadOk>()) << "sn " << sn;
  }
}

TEST(WritePipeline, ProofStreamEquivalentToSynchronousUncachedReference) {
  // Lockstep configs (zero cost models, no transfer charges) pin both clocks
  // at zero, so signatures embed identical timestamps: the pipelined store
  // must produce byte-for-byte the proof stream of a synchronous store with
  // no batching.
  StoreConfig async_cfg = pipelined(lockstep_store_config());
  async_cfg.mailbox.max_batch = 4;
  Rig pipelined_rig({}, async_cfg, 32u << 20, scpu::CostModel::zero());

  Rig ref_rig({}, lockstep_store_config(), 32u << 20,
              scpu::CostModel::zero());

  constexpr std::size_t kRecords = 10;
  std::vector<WriteTicket> tickets;
  for (std::size_t i = 0; i < kRecords; ++i) {
    WriteRequest req{.payloads = {common::to_bytes("eq " + std::to_string(i))},
                     .attr = pipelined_rig.attr(Duration::days(30))};
    tickets.push_back(pipelined_rig.store.write_async(req));
    (void)ref_rig.store.write(req);
  }
  pipelined_rig.store.drain_writes();
  for (std::size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(tickets[i].get(), i + 1);
  }

  // Sweep past the written range too: absence proofs must also agree.
  for (Sn sn = 1; sn <= kRecords + 2; ++sn) {
    EXPECT_EQ(outcome_fingerprint(pipelined_rig.store.read(sn)),
              outcome_fingerprint(ref_rig.store.read(sn)))
        << "proof streams diverge at sn " << sn;
  }
}

// ---------------------------------------------------------------------------
// The committer crosses the mailbox with the store lock released
// ---------------------------------------------------------------------------

TEST(WritePipeline, ReadsAndAdmissionsProceedWhileTheCommitterCrosses) {
  ParkableRig p("channel.request", pipelined());
  Sn committed = p.rig.put("committed", Duration::days(30));

  std::future<ReadOutcome> read;
  std::future<std::optional<WriteTicket>> admission;
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  WriteTicket crossing = p.rig.store.write_async(p.request("crossing"));
  (void)crossing.ready();  // asking makes its group due
  ASSERT_TRUE(p.bp.wait_parked());

  // The committer has journaled its intent and is crossing: neither a read
  // nor an admission may wait for the SCPU.
  read = std::async(std::launch::async,
                    [&] { return p.rig.store.read(committed); });
  admission = std::async(std::launch::async, [&] {
    return p.rig.store.try_write_async(p.request("admitted"));
  });
  EXPECT_TRUE(returned(read)) << "read waited for the crossing";
  EXPECT_TRUE(returned(admission)) << "admission waited for the crossing";
  p.bp.release();

  EXPECT_EQ(p.rig.verifier.verify_read(committed, read.get()).verdict,
            Verdict::kAuthentic);
  std::optional<WriteTicket> admitted = admission.get();
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(crossing.get(), committed + 1);
  EXPECT_EQ(admitted->get(), committed + 2);
}

TEST(WritePipeline, HeartbeatMidCrossingKeepsNextSnExact) {
  StoreConfig sc = pipelined();
  ParkableRig p("channel.response", sc);
  Sn committed = p.rig.put("committed", Duration::days(30));

  std::future<void> heartbeat;
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  std::vector<WriteTicket> group;
  for (int i = 0; i < 3; ++i) {
    group.push_back(p.rig.store.write_async(p.request("in flight")));
  }
  (void)group.front().ready();  // asking makes the group due
  ASSERT_TRUE(p.bp.wait_parked());

  // The device has witnessed the group; the host has not applied the ack.
  // Its heartbeat counts the in-flight SNs, and arrives now.
  SignedSnCurrent hb = p.rig.firmware.heartbeat();
  ASSERT_EQ(hb.sn_current, committed + 3);
  heartbeat = std::async(std::launch::async,
                         [&] { p.rig.store.on_heartbeat(hb); });
  ASSERT_TRUE(returned(heartbeat)) << "on_heartbeat waited for the crossing";

  EXPECT_EQ(p.rig.store.next_sn(), committed + 4);
  for (Sn sn = committed + 1; sn <= committed + 3; ++sn) {
    ReadOutcome r = p.rig.store.read(sn);
    auto* unavailable = r.get_if<ReadUnavailable>();
    ASSERT_NE(unavailable, nullptr) << "sn " << sn << ": "
                                    << to_string(r.status());
    EXPECT_TRUE(unavailable->retryable);
  }
  p.bp.release();

  for (std::size_t k = 0; k < group.size(); ++k) {
    EXPECT_EQ(group[k].get(), committed + 1 + k);
  }
  EXPECT_EQ(p.rig.store.next_sn(), committed + 4);
  for (Sn sn = committed + 1; sn <= committed + 3; ++sn) {
    EXPECT_EQ(p.rig.verifier.verify_read(sn, p.rig.store.read(sn)).verdict,
              Verdict::kAuthentic);
  }
}

TEST(WritePipeline, WriteBatchInFlightSnsAnswerUnavailableNotFailure) {
  // The synchronous committer too: with no pipeline and no journal, only
  // the in-flight crossing stands between a heartbeat that counts an SN and
  // a read that finds no entry for it — which would read as data loss.
  ParkableRig p("channel.response", StoreConfig{});
  Sn committed = p.rig.put("committed", Duration::days(30));

  std::future<std::vector<Sn>> batch;
  std::future<void> heartbeat;
  std::vector<WriteRequest> requests(2, p.request("in flight"));
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  batch = std::async(std::launch::async,
                     [&] { return p.rig.store.write_batch(requests); });
  ASSERT_TRUE(p.bp.wait_parked());

  SignedSnCurrent hb = p.rig.firmware.heartbeat();
  ASSERT_EQ(hb.sn_current, committed + 2);
  heartbeat = std::async(std::launch::async,
                         [&] { p.rig.store.on_heartbeat(hb); });
  ASSERT_TRUE(returned(heartbeat)) << "on_heartbeat waited for the crossing";
  for (Sn sn = committed + 1; sn <= committed + 2; ++sn) {
    ReadOutcome r = p.rig.store.read(sn);
    auto* unavailable = r.get_if<ReadUnavailable>();
    ASSERT_NE(unavailable, nullptr) << "sn " << sn << ": "
                                    << to_string(r.status());
    EXPECT_TRUE(unavailable->retryable);
  }
  p.bp.release();

  EXPECT_EQ(batch.get(), (std::vector<Sn>{committed + 1, committed + 2}));
  EXPECT_EQ(p.rig.store.next_sn(), committed + 3);
}

TEST(WritePipeline, AskingOneTicketSendsItsWholeGroup) {
  // Below max_batch, admissions stay queued until a ticket is asked. ready()
  // answers at once and makes the group due; the committer then crosses all
  // three writes as one group, with nobody waiting on a ticket.
  Rig rig({}, pipelined());
  auto count = [&rig](const char* key) {
    return rig.store.counters().at(key);
  };
  const std::uint64_t batches0 = count("write_pipeline.batches");
  const std::uint64_t writes0 = count("store.writes");
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(rig.store.write_async(
        {.payloads = {common::to_bytes("asked " + std::to_string(i))},
         .attr = rig.attr(Duration::days(30))}));
  }
  EXPECT_EQ(count("store.writes"), writes0) << "nothing asked, nothing due";
  EXPECT_FALSE(tickets[1].ready());

  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (count("store.writes") < writes0 + 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].ready()) << "ticket " << i;
    EXPECT_EQ(tickets[i].get(), i + 1);
  }
  EXPECT_EQ(count("write_pipeline.batches"), batches0 + 1);
}

TEST(WritePipeline, ConfigValidationRejectsBrokenKnobs) {
  StoreConfig bad = pipelined();
  bad.pipeline.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  // One batch bound for groups and crossings alike.
  bad = pipelined();
  bad.mailbox.max_batch = 0;
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  bad = pipelined();
  bad.mailbox.max_batch = 4096;  // beyond the wire bound
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  // Off means the knobs are inert: a zeroed config still validates.
  StoreConfig off;
  off.pipeline.queue_capacity = 0;
  off.validate();
}

}  // namespace
}  // namespace worm::core
