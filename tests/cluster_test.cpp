// Sharded scale-out integration: the in-process ShardRouter (routing, batch
// reassembly, counter aggregation, admission-side capacity checks) and the
// networked ClusterClient speaking the v4 protocol to real WormServers —
// client-sequenced masking-quorum writes, verified reads, conviction of a
// Byzantine replica that forges an envelope, laggard repair from quorum
// reads, operator-signed shard-map refresh (forged and rollback envelopes
// refused), and the kStaleRoute path that turns map version skew into a
// retryable blip instead of a misroute.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "crypto/rsa.hpp"
#include "cluster/quorum.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/shard_router.hpp"
#include "server/worm_server.hpp"
#include "worm/session.hpp"
#include "worm_fixture.hpp"

namespace worm::cluster {
namespace {

using common::Bytes;
using common::Duration;
using worm::testing::Rig;

core::StoreConfig pipelined() {
  core::StoreConfig sc;
  sc.pipeline.enabled = true;
  return sc;
}

core::WriteRequest record(const std::string& text) {
  core::WriteRequest w;
  w.payloads = {common::to_bytes(text)};
  w.attr.retention = Duration::days(30);
  w.attr.regulation_policy = 17;
  return w;
}

/// The cluster operator's shard-map signing key. One per test binary:
/// keygen is the expensive part, and every rig can share an operator.
const crypto::RsaPrivateKey& operator_key() {
  static const crypto::RsaPrivateKey key = [] {
    crypto::Drbg rng(std::uint64_t{0x5eed'ca11'0b01});
    return crypto::rsa_generate(rng, 512);
  }();
  return key;
}

// ---------------------------------------------------------------------------
// ShardRouter: in-process scale-out.
// ---------------------------------------------------------------------------

/// N full deployments behind one router.
struct RouterRig {
  explicit RouterRig(ShardMap map) {
    for (std::size_t i = 0; i < map.shard_count(); ++i) {
      rigs.push_back(std::make_unique<Rig>(core::FirmwareConfig{},
                                           pipelined()));
    }
    router.emplace(std::move(map), [this](ShardId shard) {
      Rig& rig = *rigs[shard];
      return std::make_unique<core::WormSession>(rig.store, "router-test",
                                                 rig.clock);
    });
  }

  std::vector<std::unique_ptr<Rig>> rigs;
  std::optional<ShardRouter> router;
};

TEST(ShardRouter, RoundRobinsWritesAcrossGlobalRanges) {
  RouterRig rr(ShardMap::uniform(2, 1000));
  ShardRouter& router = *rr.router;

  // Round-robin: shard 0 local 1 -> global 1, shard 1 local 1 -> global 1001.
  EXPECT_EQ(router.write(record("a")), 1u);
  EXPECT_EQ(router.write(record("b")), 1001u);
  EXPECT_EQ(router.write(record("c")), 2u);
  EXPECT_EQ(router.write(record("d")), 1002u);

  core::ReadOutcome out = router.read(1001);
  const auto* ok = out.get_if<core::ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->payloads.at(0), common::to_bytes("b"));

  // An SN nobody owns is a routing error, not a store answer.
  EXPECT_THROW((void)router.read(5000), common::PreconditionError);
  EXPECT_THROW((void)router.session(99), common::PreconditionError);
}

TEST(ShardRouter, RoutedTicketTranslatesToGlobal) {
  RouterRig rr(ShardMap::uniform(2, 1000));
  RoutedTicket t0 = rr.router->write_async(record("x"));
  RoutedTicket t1 = rr.router->write_async(record("y"));
  EXPECT_EQ(t0.shard(), 0u);
  EXPECT_EQ(t1.shard(), 1u);
  EXPECT_EQ(t0.get(), 1u);
  EXPECT_EQ(t1.get(), 1001u);
  rr.router->drain_writes();
}

TEST(ShardRouter, ReadManyReassemblesInRequestOrder) {
  RouterRig rr(ShardMap::uniform(2, 1000));
  for (int i = 0; i < 6; ++i) {
    (void)rr.router->write(record("r" + std::to_string(i)));
  }
  // Mixed shard order, duplicates included: answers must line up 1:1.
  std::vector<core::Sn> sns = {1002, 1, 3, 1001, 1, 1003};
  std::vector<std::string> want = {"r3", "r0", "r4", "r1", "r0", "r5"};
  std::vector<core::ReadOutcome> outs = rr.router->read_many(sns);
  ASSERT_EQ(outs.size(), sns.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const auto* ok = outs[i].get_if<core::ReadOk>();
    ASSERT_NE(ok, nullptr) << "position " << i;
    EXPECT_EQ(ok->payloads.at(0), common::to_bytes(want[i])) << "position "
                                                             << i;
  }
}

TEST(ShardRouter, AggregatesCountersAcrossShards) {
  RouterRig rr(ShardMap::uniform(2, 1000));
  for (int i = 0; i < 5; ++i) (void)rr.router->write(record("c"));

  rr.router->drain_writes();
  auto m = rr.router->counters();
  ASSERT_EQ(m.count("shard.2.store.writes"), 0u);  // two shards, no third
  // Round-robin put 3 on shard 0 and 2 on shard 1; the cluster view sums.
  EXPECT_EQ(m.at("shard.0.store.writes"), 3u);
  EXPECT_EQ(m.at("shard.1.store.writes"), 2u);
  EXPECT_EQ(m.at("cluster.store.writes"), 5u);
}

TEST(ShardRouter, SkipsEmptyShardsOnWrite) {
  // Shard 1 is provisioned but owns no SNs: the round-robin must never
  // admit into it (its ticket could not translate back to a global SN).
  RouterRig rr(ShardMap(1, {ShardRange{1, 101, 0}, ShardRange{101, 101, 1},
                            ShardRange{101, 201, 2}}));
  for (int i = 0; i < 4; ++i) (void)rr.router->write(record("w"));
  rr.router->drain_writes();
  auto m = rr.router->counters();
  EXPECT_EQ(m.at("shard.1.store.writes"), 0u);
  EXPECT_EQ(m.at("cluster.store.writes"), 4u);
}

// ---------------------------------------------------------------------------
// ClusterClient: quorum replication over real servers.
// ---------------------------------------------------------------------------

/// One replica: a full deployment plus a WormServer announcing its cluster
/// membership (shard id, route version, the serialized map).
struct ReplicaRig {
  explicit ReplicaRig(const server::ServerConfig& cfg) : rig({}, pipelined()) {
    auth.add("alice", common::to_bytes("alice-secret"));
    auth.add("bob", common::to_bytes("bob-secret"));
    server.emplace(cfg, auth, [this](std::string_view principal) {
      return std::make_unique<core::WormSession>(
          rig.store, std::string(principal), rig.clock);
    });
    server->start();
  }

  Rig rig;
  server::AuthRegistry auth;
  std::optional<server::WormServer> server;
};

/// n replicas per shard, every server configured from `server_map`. The
/// client's initial map may be older — that is the version-skew test.
struct ClusterRig {
  /// Lets a test hand a chosen replica a hostile kShardMap payload (forged
  /// signature, rollback, raw bytes) in place of the operator-signed one.
  using BlobHook = std::function<Bytes(std::size_t shard_idx,
                                       std::uint32_t replica_idx,
                                       const Bytes& genuine)>;

  ClusterRig(const ShardMap& server_map, QuorumParams q,
             const BlobHook& blob_for = nullptr)
      : quorum(q) {
    Bytes blob = sign_shard_map(server_map, operator_key());
    std::size_t shard_idx = 0;
    for (const ShardRange& range : server_map.ranges()) {
      auto& column = replicas.emplace_back();
      for (std::uint32_t i = 0; i < q.n; ++i) {
        server::ServerConfig cfg;
        cfg.shard_id = range.shard;
        cfg.route_version = server_map.version();
        cfg.shard_map_blob = blob_for ? blob_for(shard_idx, i, blob) : blob;
        column.push_back(std::make_unique<ReplicaRig>(cfg));
      }
      shard_ids.push_back(range.shard);
      ++shard_idx;
    }
  }

  ClusterConfig client_config(ShardMap client_map) const {
    ClusterConfig cc;
    cc.map = std::move(client_map);
    cc.map_key = operator_key().public_key();
    cc.quorum = quorum;
    for (std::size_t s = 0; s < replicas.size(); ++s) {
      ShardReplicaSet set;
      set.shard = shard_ids[s];
      for (const auto& rep : replicas[s]) {
        ReplicaEndpoint ep;
        ep.client.tcp_port = rep->server->port();
        ep.client.principal = "alice";
        ep.client.token = rep->auth.mint("alice");
        // Out-of-band trust anchors of THIS replica's SCPU.
        ep.anchors = rep->rig.store.anchors();
        set.replicas.push_back(std::move(ep));
      }
      cc.shards.push_back(std::move(set));
    }
    return cc;
  }

  /// The trusted time source for the client verifiers. Every replica runs
  /// an identical op sequence, so the sim clocks stay in lockstep; any
  /// replica's clock works as the synchronized client clock.
  const common::TimeSource& trusted_time() const {
    return replicas.at(0).at(0)->rig.clock;
  }

  QuorumParams quorum;
  std::vector<ShardId> shard_ids;
  std::vector<std::vector<std::unique_ptr<ReplicaRig>>> replicas;
};

TEST(ClusterClient, RejectsInvalidQuorumConfigs) {
  // n >= 4f+1: n=4, f=1 is NOT enough to mask a Byzantine replica.
  EXPECT_FALSE((QuorumParams{4, 1}.valid()));
  ASSERT_TRUE((QuorumParams{5, 1}.valid()));
  EXPECT_EQ((QuorumParams{5, 1}.write_quorum()), 4u);
  EXPECT_EQ((QuorumParams{5, 1}.read_quorum()), 2u);

  ClusterRig cluster(ShardMap::uniform(1, 100), QuorumParams{5, 1});
  ClusterConfig bad = cluster.client_config(ShardMap::uniform(1, 100));
  bad.quorum = QuorumParams{4, 1};
  EXPECT_THROW((void)ClusterClient(std::move(bad), cluster.trusted_time()),
               common::PreconditionError);

  // Replica set size must equal n.
  ClusterConfig short_set = cluster.client_config(ShardMap::uniform(1, 100));
  short_set.shards[0].replicas.pop_back();
  EXPECT_THROW(
      (void)ClusterClient(std::move(short_set), cluster.trusted_time()),
      common::PreconditionError);
}

TEST(ClusterClient, QuorumWritesAndVerifiedReadsAcrossShards) {
  ShardMap map = ShardMap::uniform(2, 100);
  ClusterRig cluster(map, QuorumParams{5, 1});
  ClusterClient client(cluster.client_config(map), cluster.trusted_time());

  // Round-robin across the two shards' global ranges; every replica acks.
  std::vector<core::Sn> want = {1, 101, 2, 102};
  for (std::size_t i = 0; i < want.size(); ++i) {
    QuorumWrite w = client.write(record("record " + std::to_string(i)));
    ASSERT_TRUE(w.ok) << w.message;
    EXPECT_FALSE(w.busy);
    EXPECT_EQ(w.acks, 5u);
    EXPECT_EQ(w.sn, want[i]);
  }

  for (std::size_t i = 0; i < want.size(); ++i) {
    QuorumRead r = client.read(want[i]);
    ASSERT_TRUE(r.trustworthy()) << r.verdict.detail;
    EXPECT_EQ(r.verdict.verdict, core::Verdict::kAuthentic);
    EXPECT_EQ(r.agreeing, 5u);
    EXPECT_TRUE(r.convictions.empty());
    const auto* ok = r.outcome.get_if<core::ReadOk>();
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->payloads.at(0),
              common::to_bytes("record " + std::to_string(i)));
  }

  // Absence is quorum-proven too: an unallocated SN verifies as
  // never-existed on every honest replica.
  QuorumRead gone = client.read(50);
  EXPECT_TRUE(gone.trustworthy());
  EXPECT_EQ(gone.verdict.verdict, core::Verdict::kNeverExistedVerified);
  EXPECT_EQ(gone.agreeing, 5u);

  // Off the map entirely: a routing error, not a store answer.
  EXPECT_THROW((void)client.read(500), common::PreconditionError);

  // Writes forwarded attestations; each shard tracks its own watermark
  // (independent SCPUs — there is no single cluster watermark).
  EXPECT_TRUE(client.watermark(0).has_value());
  EXPECT_TRUE(client.watermark(1).has_value());
}

TEST(ClusterClient, ByzantineReplicaIsOutvotedAndConvicted) {
  ShardMap map = ShardMap::uniform(1, 1000);
  ClusterRig cluster(map, QuorumParams{5, 1});
  ClusterClient client(cluster.client_config(map), cluster.trusted_time());

  QuorumWrite w = client.write(record("evidence"));
  ASSERT_TRUE(w.ok) << w.message;
  ASSERT_EQ(w.sn, 1u);

  // Replica 2's insider forges the envelope in its VRDT: a litigation hold
  // appears that the SCPU never witnessed. The forgery is self-consistent
  // on that replica's host, so only verification against its own anchors —
  // not cross-replica comparison — can catch it.
  {
    ReplicaRig& byzantine = *cluster.replicas[0][2];
    core::Vrdt& vrdt = core::InsiderHandle(byzantine.rig.store).vrdt();
    std::optional<core::Vrdt::Entry> e = vrdt.find(1);
    ASSERT_TRUE(e.has_value());
    e->vrd.attr.litigation_hold = true;
    vrdt.put_active(e->vrd);
  }

  QuorumRead r = client.read(1);
  // The four honest replicas still clear the read quorum (f+1 = 2)...
  ASSERT_TRUE(r.trustworthy()) << r.verdict.detail;
  EXPECT_EQ(r.verdict.verdict, core::Verdict::kAuthentic);
  EXPECT_EQ(r.agreeing, 4u);
  const auto* ok = r.outcome.get_if<core::ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->payloads.at(0), common::to_bytes("evidence"));
  EXPECT_FALSE(ok->vrd.attr.litigation_hold);

  // ...and the forger is convicted by name, with the verifier's verdict.
  ASSERT_EQ(r.convictions.size(), 1u);
  EXPECT_EQ(r.convictions[0].shard, 0u);
  EXPECT_EQ(r.convictions[0].replica, 2u);
  EXPECT_EQ(r.convictions[0].verdict, core::Verdict::kTampered);
}

TEST(ClusterClient, BatchedQuorumReadConvictsByzantinePerSlot) {
  ShardMap map = ShardMap::uniform(2, 100);
  ClusterRig cluster(map, QuorumParams{5, 1});
  ClusterClient client(cluster.client_config(map), cluster.trusted_time());

  std::map<core::Sn, Bytes> expected;
  for (int i = 0; i < 6; ++i) {
    Bytes payload = common::to_bytes("slot " + std::to_string(i));
    QuorumWrite w = client.write(record("slot " + std::to_string(i)));
    ASSERT_TRUE(w.ok) << w.message;
    expected[w.sn] = std::move(payload);
  }

  // Replica 1 of shard 0 forges ONE record's envelope; its other records
  // stay honest. The forgery is self-consistent on that host — only
  // verification against the replica's own anchors catches it.
  {
    ReplicaRig& byz = *cluster.replicas[0][1];
    core::Vrdt& vrdt = core::InsiderHandle(byz.rig.store).vrdt();
    std::optional<core::Vrdt::Entry> e = vrdt.find(2);
    ASSERT_TRUE(e.has_value());
    e->vrd.attr.litigation_hold = true;
    vrdt.put_active(e->vrd);
  }

  // One batched quorum read spanning both shards plus an absent SN: the
  // whole fan-out rides kReadBatch windows (one pipelined round per
  // replica), yet verification, voting, and conviction stay per slot.
  std::vector<core::Sn> sns = {1, 2, 3, 101, 102, 103, 50};
  std::vector<QuorumRead> rs = client.read_many(sns);
  ASSERT_EQ(rs.size(), sns.size());

  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(rs[i].trustworthy())
        << sns[i] << ": " << rs[i].verdict.detail;
    EXPECT_EQ(rs[i].verdict.verdict, core::Verdict::kAuthentic);
    const auto* ok = rs[i].outcome.get_if<core::ReadOk>();
    ASSERT_NE(ok, nullptr) << sns[i];
    EXPECT_EQ(ok->payloads.at(0), expected.at(sns[i])) << sns[i];
    if (sns[i] == 2) {
      // The forged slot: four honest replicas outvote the forger, and the
      // conviction names it.
      EXPECT_EQ(rs[i].agreeing, 4u);
      ASSERT_EQ(rs[i].convictions.size(), 1u);
      EXPECT_EQ(rs[i].convictions[0].shard, 0u);
      EXPECT_EQ(rs[i].convictions[0].replica, 1u);
      EXPECT_EQ(rs[i].convictions[0].verdict, core::Verdict::kTampered);
      EXPECT_FALSE(ok->vrd.attr.litigation_hold);
    } else {
      // Sibling slots served by the SAME replica in the SAME batch still
      // count its honest answers: conviction is per slot, not per replica
      // round.
      EXPECT_EQ(rs[i].agreeing, 5u) << sns[i];
      EXPECT_TRUE(rs[i].convictions.empty()) << sns[i];
    }
  }

  // Absence is quorum-proven inside the same batch.
  EXPECT_TRUE(rs[6].trustworthy());
  EXPECT_EQ(rs[6].verdict.verdict, core::Verdict::kNeverExistedVerified);
  EXPECT_EQ(rs[6].agreeing, 5u);
}

TEST(ClusterClient, VersionSkewRefreshesInsteadOfMisrouting) {
  // Servers run map v2; the client boots with the stale v1 view.
  ShardMap v2 = ShardMap::uniform(2, 100, /*version=*/2);
  ClusterRig cluster(v2, QuorumParams{5, 1});
  ClusterClient client(cluster.client_config(ShardMap::uniform(2, 100, 1)),
                       cluster.trusted_time());
  ASSERT_EQ(client.map().version(), 1u);

  // Every replica answers kStaleRoute to the v1-stamped frame; the client
  // fetches the v2 map over kShardMap, verifies the operator signature,
  // re-stamps, and retries — one write call, no misroute, no duplicate SN
  // (the retried frames are sequenced, so a replica that already committed
  // the slot would refuse a second copy with kSnMismatch).
  QuorumWrite w = client.write(record("skewed"));
  ASSERT_TRUE(w.ok) << w.message;
  EXPECT_EQ(w.sn, 1u);
  EXPECT_EQ(client.map().version(), 2u);

  QuorumRead r = client.read(1);
  ASSERT_TRUE(r.trustworthy()) << r.verdict.detail;
  EXPECT_EQ(r.agreeing, 5u);

  // A second stale client exercises the read-side refresh: its first read
  // hits kStaleRoute (a typed, retryable wire error — never a misroute)
  // and transparently lands after its own refresh.
  ClusterClient late(cluster.client_config(ShardMap::uniform(2, 100, 1)),
                     cluster.trusted_time());
  QuorumRead lr = late.read(1);
  ASSERT_TRUE(lr.trustworthy()) << lr.verdict.detail;
  EXPECT_EQ(late.map().version(), 2u);
  const auto* ok = lr.outcome.get_if<core::ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->payloads.at(0), common::to_bytes("skewed"));

  // refresh_map reports whether the version moved.
  EXPECT_FALSE(client.refresh_map());  // already at v2
}

TEST(ShardRouter, FullShardsRejectAdmissionRetryably) {
  // Two shards of span 2: four writes fill the cluster. The fifth must be
  // refused at admission with a retryable error — not committed durably at
  // a local SN the global space cannot address.
  RouterRig rr(ShardMap::uniform(2, 2));
  for (int i = 0; i < 4; ++i) (void)rr.router->write(record("w"));
  EXPECT_THROW((void)rr.router->write(record("x")),
               common::TransientStorageError);
  // The refusal wrote nothing: both stores still hold exactly their span.
  rr.router->drain_writes();
  auto m = rr.router->counters();
  EXPECT_EQ(m.at("cluster.store.writes"), 4u);
}

TEST(ClusterClient, ForgedOrRolledBackShardMapIsNeverAdopted) {
  // Servers run map v2; the client boots at v1, so its first write forces a
  // refresh. The first three replicas asked serve hostile kShardMap
  // payloads: a v9 map signed by an attacker's key, a genuinely signed but
  // old v1 map (rollback), and raw unsigned map bytes. None may be adopted
  // — the first honest replica's operator-signed v2 map wins.
  ShardMap v2 = ShardMap::uniform(2, 100, /*version=*/2);
  crypto::Drbg rng(std::uint64_t{0xa77ac});
  crypto::RsaPrivateKey attacker = crypto::rsa_generate(rng, 512);
  Bytes forged = sign_shard_map(ShardMap::uniform(2, 100, 9), attacker);
  Bytes rollback =
      sign_shard_map(ShardMap::uniform(2, 100, 1), operator_key());
  Bytes raw = ShardMap::uniform(2, 100, 9).serialize();
  ClusterRig cluster(
      v2, QuorumParams{5, 1},
      [&](std::size_t s, std::uint32_t r, const Bytes& genuine) {
        if (s == 0 && r == 0) return forged;
        if (s == 0 && r == 1) return rollback;
        if (s == 0 && r == 2) return raw;
        return genuine;
      });
  ClusterClient client(cluster.client_config(ShardMap::uniform(2, 100, 1)),
                       cluster.trusted_time());

  QuorumWrite w = client.write(record("authentic routing"));
  ASSERT_TRUE(w.ok) << w.message;
  EXPECT_EQ(w.sn, 1u);
  // v9 forgery refused (wrong key), v1 refused (not strictly newer), raw
  // bytes refused (no envelope): the adopted map is the operator's v2.
  EXPECT_EQ(client.map().version(), 2u);
}

TEST(ClusterClient, ServerRefusesMissequencedWrites) {
  // The v4 expected_sn condition at one replica: a mismatched slot writes
  // nothing and counter-offers the replica's actual next SN.
  ReplicaRig standalone((server::ServerConfig()));
  server::ClientConfig cfg;
  cfg.tcp_port = standalone.server->port();
  cfg.principal = "alice";
  cfg.token = standalone.auth.mint("alice");
  server::WormClient client(std::move(cfg));

  // A pure probe (an SN no store ever assigns) learns the cursor, writes
  // nothing.
  server::WriteResult probe =
      client.write(record("probe"), ~static_cast<core::Sn>(0));
  ASSERT_TRUE(probe.sn_mismatch()) << probe.message;
  EXPECT_EQ(probe.sn, 1u);

  server::WriteResult wrong = client.write(record("wrong slot"), 5);
  ASSERT_TRUE(wrong.sn_mismatch()) << wrong.message;
  EXPECT_EQ(wrong.sn, 1u);

  server::WriteResult right = client.write(record("first"), 1);
  ASSERT_TRUE(right.ok()) << right.message;
  EXPECT_EQ(right.sn, 1u);

  // A retry of the committed slot is refused, never double-committed.
  server::WriteResult replay = client.write(record("first"), 1);
  ASSERT_TRUE(replay.sn_mismatch()) << replay.message;
  EXPECT_EQ(replay.sn, 2u);

  // Unsequenced writes (expected_sn = 0) still work for standalone use.
  server::WriteResult plain = client.write(record("second"));
  ASSERT_TRUE(plain.ok()) << plain.message;
  EXPECT_EQ(plain.sn, 2u);
}

TEST(ClusterClient, WriterPrincipalRestrictsWrites) {
  // Replicated deployments enforce the one-sequencer-per-shard assumption
  // server-side: only the configured principal may write; everyone reads.
  server::ServerConfig cfg;
  cfg.writer_principal = "alice";
  ReplicaRig rig(cfg);

  server::ClientConfig ac;
  ac.tcp_port = rig.server->port();
  ac.principal = "alice";
  ac.token = rig.auth.mint("alice");
  server::WormClient alice(std::move(ac));
  server::WriteResult w = alice.write(record("by the sequencer"), 1);
  ASSERT_TRUE(w.ok()) << w.message;

  server::ClientConfig bc;
  bc.tcp_port = rig.server->port();
  bc.principal = "bob";
  bc.token = rig.auth.mint("bob");
  server::WormClient bob(std::move(bc));
  EXPECT_THROW((void)bob.write(record("interloper"), 2), common::Error);
  EXPECT_THROW((void)bob.write(record("interloper")), common::Error);

  core::ReadOutcome out = bob.read(1);
  const auto* ok = out.get_if<core::ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->payloads.at(0), common::to_bytes("by the sequencer"));
}

TEST(ClusterClient, LaggardReplicaIsRepairedFromQuorumReads) {
  ShardMap map = ShardMap::uniform(1, 100);
  ClusterRig cluster(map, QuorumParams{5, 1});
  // Replicas 0-3 already hold two records; replica 4 slept through both
  // (it answers kSnMismatch with next=1 while the quorum's frontier is 3).
  for (std::uint32_t i = 0; i < 4; ++i) {
    Rig& rig = cluster.replicas[0][i]->rig;
    core::WormSession session(rig.store, "backfill", rig.clock);
    ASSERT_EQ(session.write(record("seed-1")), 1u);
    ASSERT_EQ(session.write(record("seed-2")), 2u);
  }
  ClusterClient client(cluster.client_config(map), cluster.trusted_time());

  // The probe learns cursor 3 (the (f+1)-th largest counter-offer, so the
  // lone laggard's next=1 cannot drag it back), the quorum commits at 3,
  // and the repair path backfills the laggard: seed-1, seed-2, then the
  // fresh record at slot 3.
  QuorumWrite w = client.write(record("fresh"));
  ASSERT_TRUE(w.ok) << w.message;
  EXPECT_EQ(w.sn, 3u);
  EXPECT_EQ(w.acks, 4u);
  EXPECT_EQ(w.repaired, 3u);
  EXPECT_TRUE(w.convictions.empty());

  // After repair, all five replicas agree on every slot.
  for (core::Sn sn = 1; sn <= 3; ++sn) {
    QuorumRead r = client.read(sn);
    ASSERT_TRUE(r.trustworthy()) << "sn " << sn << ": " << r.verdict.detail;
    EXPECT_EQ(r.agreeing, 5u) << "sn " << sn;
    EXPECT_TRUE(r.convictions.empty()) << "sn " << sn;
  }
  QuorumRead first = client.read(1);
  const auto* ok = first.outcome.get_if<core::ReadOk>();
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->payloads.at(0), common::to_bytes("seed-1"));

  // Steady state: the cursor is established, everyone acks, nothing to
  // repair.
  QuorumWrite w2 = client.write(record("steady"));
  ASSERT_TRUE(w2.ok) << w2.message;
  EXPECT_EQ(w2.sn, 4u);
  EXPECT_EQ(w2.acks, 5u);
  EXPECT_EQ(w2.repaired, 0u);
}

TEST(ClusterClient, StandaloneServerHasNoShardMap) {
  // A server with no cluster membership rejects kShardMap as kBadRequest;
  // the client library surfaces it as an error rather than an empty map.
  ReplicaRig standalone((server::ServerConfig()));
  server::ClientConfig cfg;
  cfg.tcp_port = standalone.server->port();
  cfg.principal = "alice";
  cfg.token = standalone.auth.mint("alice");
  server::WormClient client(std::move(cfg));
  EXPECT_THROW((void)client.fetch_shard_map(), common::Error);
}

}  // namespace
}  // namespace worm::cluster
