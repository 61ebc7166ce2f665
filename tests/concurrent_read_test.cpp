// Read-path concurrency (§4.2.2): reads are served by the untrusted main
// CPU with no SCPU involvement, so many client threads may read while the
// single store driver writes, applies litigation holds, strengthens
// signatures and compacts deleted windows. These tests race real threads
// over the real locking (run them under the tsan preset) and pin down the
// three contracts of the shared-lock read path:
//
//  * Theorem 1 still holds mid-race: a concurrent reader never observes a
//    result that fails client verification, no matter how the race with
//    writes / holds / expiry / compaction interleaves.
//  * Coherence: a read issued after a mutation returns reflects that
//    mutation — never a stale VRD — and two identically seeded deployments
//    driven through the same script emit byte-identical proof streams.
//  * No read waits for the SCPU: every crossing runs with the store lock
//    released, so a read returns while a hold, an idle duty or another
//    read's base refresh is parked mid-crossing.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "parkable_fixture.hpp"
#include "worm_fixture.hpp"

namespace worm {
namespace {

using namespace worm::testing;
using common::Duration;
using core::ClientVerifier;
using core::Outcome;
using core::ReadDeleted;
using core::ReadOk;
using core::ReadOutcome;
using core::SigKind;
using core::Sn;
using core::Verdict;
using core::WitnessMode;

/// Field-wise ReadOutcome equality (the variant alternatives carry proof
/// structs with defaulted operator==, but ReadOutcome itself does not).
bool same_read(const ReadOutcome& a, const ReadOutcome& b) {
  if (a.status() != b.status()) return false;
  if (const auto* ao = a.get_if<ReadOk>()) {
    const auto& bo = b.get<ReadOk>();
    return ao->vrd == bo.vrd && ao->payloads == bo.payloads;
  }
  if (const auto* ad = a.get_if<ReadDeleted>()) {
    return ad->proof == b.get<ReadDeleted>().proof;
  }
  if (const auto* ab = a.get_if<core::ReadBelowBase>()) {
    return ab->base == b.get<core::ReadBelowBase>().base;
  }
  if (const auto* an = a.get_if<core::ReadNotAllocated>()) {
    return an->current == b.get<core::ReadNotAllocated>().current;
  }
  if (const auto* aw = a.get_if<core::ReadInDeletedWindow>()) {
    return aw->window == b.get<core::ReadInDeletedWindow>().window;
  }
  if (const auto* au = a.get_if<core::ReadUnavailable>()) {
    const auto& bu = b.get<core::ReadUnavailable>();
    return au->reason == bu.reason && au->retryable == bu.retryable;
  }
  return a.get<core::ReadFailure>().reason ==
         b.get<core::ReadFailure>().reason;
}

// ---------------------------------------------------------------------------
// The race: N verifying readers vs. the store driver
// ---------------------------------------------------------------------------

TEST(ConcurrentRead, RacingReadersNeverObserveTamper) {
  // Four reader threads hammer a fixed SN range while the driver thread
  // writes new records, toggles a litigation hold, expires short-retention
  // records, strengthens deferred witnesses and compacts deleted windows.
  // Holds and duties cross with the store lock released, so readers also
  // land while each is mid-crossing, between gathering and applying.
  // Every concurrent read must verify: authentic while the record lives, a
  // valid deletion/window/base proof afterwards. Anything else is a stale
  // or torn read — exactly the bugs this test exists to catch.
  Rig rig(slow_timers_config());
  constexpr Sn kSeeded = 64;
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kReadsPerThread = 400;

  // Low SNs expire (and later compact) during the race; high SNs live on.
  for (Sn sn = 1; sn <= kSeeded; ++sn) {
    rig.put("record " + std::to_string(sn),
            sn <= 24 ? Duration::minutes(30) : Duration::days(30));
  }
  const ClientVerifier verifier = rig.fresh_verifier();

  std::atomic<std::size_t> bad{0};
  std::mutex detail_mu;
  std::string first_detail;
  auto reader = [&](std::size_t t) {
    for (std::size_t i = 0; i < kReadsPerThread; ++i) {
      Sn sn = 1 + (t * 37 + i * 11) % kSeeded;
      Outcome out = verifier.verify_read(sn, rig.store.read(sn));
      if (!out.trustworthy()) {
        bad.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(detail_mu);
        if (first_detail.empty()) {
          first_detail = "sn " + std::to_string(sn) + ": " +
                         core::to_string(out.verdict) + " — " + out.detail;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) readers.emplace_back(reader, t);

  // Driver: the only thread that advances the clock or crosses the mailbox.
  Sn held = 30;
  rig.store.lit_hold({.sn = held,
                      .lit_id = 11,
                      .hold_until = rig.clock.now() + Duration::days(3),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(held, 11, true)});
  for (int round = 0; round < 40; ++round) {
    rig.put("racing write " + std::to_string(round), Duration::days(30));
    rig.clock.advance(Duration::minutes(2));  // expiries fire past round 15
    rig.store.pump_idle();                    // strengthen + compact windows
  }
  rig.store.lit_release({.sn = held,
                         .lit_id = 11,
                         .cred_issued_at = rig.clock.now(),
                         .credential = rig.lit_credential(held, 11, false)});
  rig.clock.advance(Duration::minutes(10));
  while (rig.store.pump_idle()) {
  }

  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u) << "first untrustworthy read: " << first_detail;
}

// ---------------------------------------------------------------------------
// No read waits for the SCPU: crossings park, reads return
// ---------------------------------------------------------------------------

TEST(ConcurrentRead, ReadsAndAdmissionsProceedWhileAHoldCrosses) {
  core::StoreConfig sc;
  sc.pipeline.enabled = true;
  ParkableRig p("channel.response", sc);
  Sn held = p.rig.put("held", Duration::days(30));
  const std::uint64_t lit_ops = p.rig.firmware.counters().lit_ops;
  core::LitigationRequest hold{
      .sn = held,
      .lit_id = 7,
      .hold_until = p.rig.clock.now() + Duration::days(2),
      .cred_issued_at = p.rig.clock.now(),
      .credential = p.rig.lit_credential(held, 7, true)};

  std::future<void> crossing;
  std::future<ReadOutcome> read;
  std::future<std::optional<core::WriteTicket>> admission;
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  crossing = std::async(std::launch::async,
                        [&] { p.rig.store.lit_hold(hold); });
  ASSERT_TRUE(p.bp.wait_parked());
  // The device has applied the hold; the host has not applied its answer.
  ASSERT_EQ(p.rig.firmware.counters().lit_ops, lit_ops + 1);
  read = std::async(std::launch::async, [&] { return p.rig.store.read(held); });
  admission = std::async(std::launch::async, [&] {
    return p.rig.store.try_write_async(p.request("admitted"));
  });
  EXPECT_TRUE(returned(read)) << "read waited for the hold's crossing";
  EXPECT_TRUE(returned(admission)) << "admission waited for the hold's crossing";
  p.bp.release();
  crossing.get();

  ReadOutcome before = read.get();
  EXPECT_FALSE(before.get<ReadOk>().vrd.attr.litigation_hold);
  EXPECT_EQ(p.rig.verifier.verify_read(held, before).verdict,
            Verdict::kAuthentic);
  ReadOutcome after = p.rig.store.read(held);
  EXPECT_TRUE(after.get<ReadOk>().vrd.attr.litigation_hold);
  EXPECT_EQ(p.rig.verifier.verify_read(held, after).verdict,
            Verdict::kAuthentic);
  std::optional<core::WriteTicket> admitted = admission.get();
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(admitted->get(), held + 1);
}

TEST(ConcurrentRead, ReadsProceedWhileAnIdleDutyCrosses) {
  // One duty pass strengthens SN 5, compacts SNs 1-4 into a window and
  // advances the base past it. Park the pass at each of its crossings in
  // turn, on a fresh deployment each time: a read of every SN returns
  // meanwhile, and verifies.
  auto deploy = [] {
    auto p = std::make_unique<ParkableRig>("channel.response",
                                           core::StoreConfig{},
                                           slow_timers_config());
    for (int i = 0; i < 4; ++i) {
      (void)p->rig.put("expiring " + std::to_string(i), Duration::minutes(5));
    }
    (void)p->rig.put("deferred", Duration::days(30), WitnessMode::kDeferred);
    p->rig.clock.advance(Duration::minutes(10));  // SNs 1-4 expire
    return p;
  };
  const std::vector<Sn> sns{1, 2, 3, 4, 5};
  std::uint64_t crossings = 0;
  {
    auto p = deploy();
    auto answers = [&p] {
      return p->fault.site_stats("channel.response").evaluations;
    };
    const std::uint64_t before = answers();
    ASSERT_TRUE(p->rig.store.pump_idle());
    crossings = answers() - before;
    ASSERT_EQ(p->rig.store.read(5).get<ReadOk>().vrd.metasig.kind,
              SigKind::kStrong);
    ASSERT_TRUE(p->rig.store.read(1).is<core::ReadBelowBase>());
  }
  ASSERT_GE(crossings, 3u) << "strengthen, certify window, advance base";

  for (std::uint64_t k = 0; k < crossings; ++k) {
    SCOPED_TRACE("parked at crossing " + std::to_string(k));
    auto p = deploy();
    const ClientVerifier verifier = p->rig.fresh_verifier();
    std::future<bool> pump;
    std::future<std::vector<ReadOutcome>> reads;
    p->bp.arm(/*skip=*/k);
    ReleaseOnExit release{p->bp};
    pump = std::async(std::launch::async,
                      [&] { return p->rig.store.pump_idle(); });
    ASSERT_TRUE(p->bp.wait_parked());
    reads = std::async(std::launch::async,
                       [&] { return p->rig.store.read_many(sns); });
    EXPECT_TRUE(returned(reads)) << "read waited for the duty's crossing";
    p->bp.release();
    EXPECT_TRUE(pump.get());
    std::vector<ReadOutcome> during = reads.get();
    for (std::size_t i = 0; i < sns.size(); ++i) {
      Outcome out = verifier.verify_read(sns[i], during[i]);
      EXPECT_TRUE(out.trustworthy())
          << "sn " << sns[i] << ": " << core::to_string(out.verdict);
    }
  }
}

TEST(ConcurrentRead, ReadsProceedWhileAnotherReadRefreshesTheBase) {
  ParkableRig p("channel.request", {}, slow_timers_config());
  for (int i = 0; i < 4; ++i) {
    (void)p.rig.put("expiring " + std::to_string(i), Duration::minutes(5));
  }
  Sn live = p.rig.put("live", Duration::days(30));
  p.rig.clock.advance(Duration::minutes(10));  // the first four expire
  while (p.rig.store.pump_idle()) {
  }  // compacts them, then advances the base past them
  ASSERT_TRUE(p.rig.store.read(1).is<core::ReadBelowBase>());
  p.rig.clock.advance(Duration::days(3));  // the cached S_s(SN_base) expires
  const ClientVerifier verifier = p.rig.fresh_verifier();

  std::future<ReadOutcome> refresh;
  std::future<ReadOutcome> read;
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  refresh = std::async(std::launch::async, [&] { return p.rig.store.read(1); });
  ASSERT_TRUE(p.bp.wait_parked());
  read = std::async(std::launch::async, [&] { return p.rig.store.read(live); });
  EXPECT_TRUE(returned(read)) << "read waited for another read's base refresh";
  p.bp.release();

  EXPECT_EQ(verifier.verify_read(live, read.get()).verdict,
            Verdict::kAuthentic);
  ReadOutcome below = refresh.get();
  ASSERT_TRUE(below.is<core::ReadBelowBase>());
  EXPECT_EQ(verifier.verify_read(1, below).verdict, Verdict::kDeletedVerified);
}

TEST(ConcurrentRead, CountersProceedWhileAWriteGroupCrosses) {
  // A stats read takes no commit lock: the transport's counts are atomics,
  // and the rest need only the shared store lock, which no crossing holds.
  core::StoreConfig sc;
  sc.pipeline.enabled = true;
  ParkableRig p("channel.request", sc);
  const Sn committed = p.rig.put("committed", Duration::days(30));
  const auto before = p.rig.store.counters();

  std::future<std::map<std::string_view, std::uint64_t>> stats;
  p.bp.arm();
  ReleaseOnExit release{p.bp};
  core::WriteTicket crossing = p.rig.store.write_async(p.request("crossing"));
  (void)crossing.ready();  // asking makes its group due
  ASSERT_TRUE(p.bp.wait_parked());
  stats = std::async(std::launch::async,
                     [&] { return p.rig.store.counters(); });
  EXPECT_TRUE(returned(stats)) << "counters() waited for the crossing";
  p.bp.release();
  EXPECT_EQ(crossing.get(), committed + 1);

  // Parked before the device saw it, the group's crossing is not counted
  // yet; its admission is.
  const auto during = stats.get();
  EXPECT_EQ(during.at("mailbox.crossings"), before.at("mailbox.crossings"));
  EXPECT_EQ(during.at("write_pipeline.queued"),
            before.at("write_pipeline.queued") + 1);
  EXPECT_GT(p.rig.store.counters().at("mailbox.crossings"),
            before.at("mailbox.crossings"));
}

// ---------------------------------------------------------------------------
// Coherence: mutations are visible to the very next read
// ---------------------------------------------------------------------------

TEST(ConcurrentRead, ReadAfterStrengthenSeesStrongSignature) {
  // Read the record while it still carries a short-term witness; after the
  // strengthening pass the next read shows the permanent signature — not
  // the short-term one an earlier read saw.
  Rig rig;
  Sn sn = rig.put("deferred", Duration::days(1), WitnessMode::kDeferred);
  ASSERT_EQ(rig.store.read(sn).get<ReadOk>().vrd.metasig.kind,
            SigKind::kShortTerm);
  while (rig.store.pump_idle()) {
  }
  ReadOutcome res = rig.store.read(sn);
  EXPECT_EQ(res.get<ReadOk>().vrd.metasig.kind, SigKind::kStrong);
  EXPECT_EQ(res.get<ReadOk>().vrd.datasig.kind, SigKind::kStrong);
}

TEST(ConcurrentRead, ReadAfterLitigationHoldSeesUpdatedAttr) {
  Rig rig;
  Sn sn = rig.put("held", Duration::hours(1));
  ASSERT_FALSE(rig.store.read(sn).get<ReadOk>().vrd.attr.litigation_hold);

  rig.store.lit_hold({.sn = sn,
                      .lit_id = 3,
                      .hold_until = rig.clock.now() + Duration::days(2),
                      .cred_issued_at = rig.clock.now(),
                      .credential = rig.lit_credential(sn, 3, true)});
  // The hold mutated the VRD after the first read: the next read must show
  // it, signed, and still verify.
  ReadOutcome res = rig.store.read(sn);
  EXPECT_TRUE(res.get<ReadOk>().vrd.attr.litigation_hold);
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict, Verdict::kAuthentic);

  rig.store.lit_release({.sn = sn,
                         .lit_id = 3,
                         .cred_issued_at = rig.clock.now(),
                         .credential = rig.lit_credential(sn, 3, false)});
  EXPECT_FALSE(rig.store.read(sn).get<ReadOk>().vrd.attr.litigation_hold);
}

TEST(ConcurrentRead, ReadAfterExpiryReturnsDeletionProof) {
  Rig rig;
  Sn sn = rig.put("short lived", Duration::minutes(5));
  ASSERT_TRUE(rig.store.read(sn).is<ReadOk>());  // read while live
  rig.clock.advance(Duration::minutes(6));
  ReadOutcome res = rig.store.read(sn);
  ASSERT_TRUE(res.is<ReadDeleted>());
  EXPECT_EQ(rig.verifier.verify_read(sn, res).verdict,
            Verdict::kDeletedVerified);
}

// ---------------------------------------------------------------------------
// Proof-stream equivalence: identically seeded stores answer alike
// ---------------------------------------------------------------------------

TEST(ConcurrentRead, ProofStreamMatchesUncachedStore) {
  // Two identically seeded deployments driven through the same write /
  // re-read / hold / expiry / compaction script must answer every read
  // identically, field for field. Zero cost models keep the clocks in
  // lockstep so signatures embed equal timestamps.
  Rig a(slow_timers_config(), {}, 32u << 20, scpu::CostModel::zero());
  Rig b(slow_timers_config(), {}, 32u << 20, scpu::CostModel::zero());

  auto drive = [](Rig& rig) {
    std::vector<ReadOutcome> stream;
    for (int i = 0; i < 12; ++i) {
      rig.put("record " + std::to_string(i), Duration::minutes(40),
              i % 3 == 0 ? WitnessMode::kDeferred : WitnessMode::kStrong);
    }
    auto read_all = [&] {
      for (Sn sn = 1; sn <= 12; ++sn) stream.push_back(rig.store.read(sn));
    };
    read_all();
    read_all();  // again, with every record already read once
    rig.store.lit_hold({.sn = 5,
                        .lit_id = 9,
                        .hold_until = rig.clock.now() + Duration::days(1),
                        .cred_issued_at = rig.clock.now(),
                        .credential = rig.lit_credential(5, 9, true)});
    stream.push_back(rig.store.read(5));
    rig.clock.advance(Duration::minutes(90));  // everything unheld expires
    while (rig.store.pump_idle()) {
    }
    read_all();  // deletion proofs / compacted windows / the held survivor
    stream.push_back(rig.store.read(200));  // never allocated
    return stream;
  };

  std::vector<ReadOutcome> sa = drive(a);
  std::vector<ReadOutcome> sb = drive(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(same_read(sa[i], sb[i])) << "stream diverges at read " << i;
  }
}

// ---------------------------------------------------------------------------
// read_many
// ---------------------------------------------------------------------------

TEST(ConcurrentRead, ReadManyMatchesSequentialReads) {
  Rig rig(slow_timers_config());
  std::vector<Sn> sns;
  for (int i = 0; i < 40; ++i) {
    sns.push_back(rig.put("batch " + std::to_string(i),
                          i < 10 ? Duration::minutes(5) : Duration::days(30),
                          i % 2 == 0 ? WitnessMode::kStrong
                                     : WitnessMode::kDeferred));
  }
  rig.clock.advance(Duration::minutes(10));  // first ten become deleted
  sns.push_back(999);                        // and one never-allocated SN

  std::vector<ReadOutcome> sequential;
  for (Sn sn : sns) sequential.push_back(rig.store.read(sn));
  std::vector<ReadOutcome> batched = rig.store.read_many(sns);

  ASSERT_EQ(batched.size(), sns.size());
  for (std::size_t i = 0; i < sns.size(); ++i) {
    EXPECT_TRUE(same_read(sequential[i], batched[i]))
        << "read_many diverges from read() at sn " << sns[i];
  }
  EXPECT_EQ(rig.store.counters().at("store.read_many_batches"), 1u);

  // Every batched result verifies, same as its sequential twin.
  for (std::size_t i = 0; i < sns.size(); ++i) {
    EXPECT_TRUE(rig.verifier.verify_read(sns[i], batched[i]).trustworthy());
  }
}

}  // namespace
}  // namespace worm
