// Group-commit write pipeline: write_async tickets, group formation,
// backpressure, read-your-writes across the queue, graceful close vs crash
// shutdown, and lockstep proof-stream equivalence against a synchronous
// uncached reference.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fault_fixture.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Duration;
using worm::testing::lockstep_store_config;
using worm::testing::outcome_fingerprint;
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
  sc.pipeline.max_batch = 8;
  sc.pipeline.linger = Duration::hours(1);  // only the size threshold fires
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
  // Huge linger + batch thresholds: admissions stay queued until drained.
  StoreConfig sc = pipelined();
  sc.pipeline.linger = Duration::hours(1);
  sc.pipeline.max_batch = 1024;
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
  sc.pipeline.max_batch = 2;
  sc.pipeline.linger = Duration::hours(1);
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
  sc.pipeline.linger = Duration::hours(1);
  sc.pipeline.max_batch = 1024;
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
  sc.pipeline.linger = Duration::hours(1);
  sc.pipeline.max_batch = 1024;
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
  sc.pipeline.max_batch = 8;
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
  // no read cache and no batching.
  StoreConfig async_cfg = pipelined(lockstep_store_config());
  async_cfg.pipeline.max_batch = 4;
  Rig pipelined_rig({}, async_cfg, 32u << 20, scpu::CostModel::zero());

  StoreConfig ref_cfg = lockstep_store_config();
  ref_cfg.read_cache_capacity = 0;  // uncached, unbatched reference
  Rig ref_rig({}, ref_cfg, 32u << 20, scpu::CostModel::zero());

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

TEST(WritePipeline, ConfigValidationRejectsBrokenKnobs) {
  StoreConfig bad = pipelined();
  bad.pipeline.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  bad = pipelined();
  bad.pipeline.max_batch = 0;
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  bad = pipelined();
  bad.pipeline.max_batch = 4096;  // beyond the wire bound
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  bad = pipelined();
  bad.pipeline.max_bytes = 0;
  EXPECT_THROW(bad.validate(), common::PreconditionError);
  // Off means the knobs are inert: a zeroed config still validates.
  StoreConfig off;
  off.pipeline.queue_capacity = 0;
  off.validate();
}

}  // namespace
}  // namespace worm::core
