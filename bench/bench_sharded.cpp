// Sharded scale-out: aggregate write throughput at 1/2/4 shards. Each shard
// is a full deployment — its own simulated SCPU, journal, record store, and
// group-commit pipeline — behind one global SN space partitioned by
// cluster::ShardMap. §4.1's arithmetic caps a single SCPU's write rate at
// crossings-per-record times the 25us command overhead; sharding is the only
// lever past that ceiling, because the crossings of different shards burn
// different SCPUs' time.
//
// Methodology: one driver thread round-robins the burst through
// ShardRouter::write_async. Every rig has its own SimClock, so the serial
// time each shard charges accrues on its own clock — exactly the parallel
// deployment's behavior — and the admission-side host hash is accounted to
// the owning shard. Aggregate makespan is the slowest shard's total;
// aggregate throughput is total records over that makespan. The per-shard
// counters come from the cluster-level aggregation
// (ShardRouter::counters), which also cross-checks that no record
// was lost or double-counted.
//
// Exit code is a regression gate: 4-shard aggregate throughput must be
// >= 2.5x the 1-shard baseline (ISSUE/ROADMAP acceptance), and the summed
// cluster.store.writes counter must equal the records driven.
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/shard_router.hpp"
#include "worm/session.hpp"

using namespace worm;

namespace {

constexpr std::size_t kPayload = 8192;
constexpr std::size_t kOps = 512;    // total records per row, all shard counts
constexpr std::size_t kWindow = 64;  // tickets in flight before a collect
constexpr core::Sn kSpan = 1u << 20;  // per-shard SN span (far above kOps)

core::StoreConfig sharded_config() {
  core::StoreConfig sc;
  sc.default_mode = core::WitnessMode::kHmac;  // §4.3 burst mode
  sc.hash_mode = core::HashMode::kHostHash;    // admission-side hashing
  sc.pipeline.enabled = true;
  sc.mailbox.max_batch = 16;
  sc.pipeline.queue_capacity = 256;
  return sc;
}

struct ShardedResult {
  double throughput = 0;  // modeled records/s, aggregate
  std::uint64_t cluster_writes = 0;  // summed store.writes across shards
};

ShardedResult run_sharded(std::size_t n_shards) {
  std::vector<std::unique_ptr<bench::BenchRig>> rigs;
  rigs.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    rigs.push_back(std::make_unique<bench::BenchRig>(bench::bench_fw_config(),
                                                     sharded_config()));
  }
  cluster::ShardRouter router(
      cluster::ShardMap::uniform(static_cast<cluster::ShardId>(n_shards),
                                 kSpan),
      [&](cluster::ShardId shard) {
        bench::BenchRig& rig = *rigs[shard];
        return std::make_unique<core::WormSession>(rig.store, "bench",
                                                   rig.clock);
      });

  common::Bytes payload(kPayload, 0x5a);
  core::Attr attr;
  attr.retention = common::Duration::years(5);
  const common::Duration hash_cost =
      rigs[0]->store.config().host_model.hash_cost(kPayload);

  std::vector<common::Duration> serial0(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    serial0[i] = rigs[i]->clock.total_charged();
  }

  std::vector<cluster::RoutedTicket> window;
  window.reserve(kWindow);
  std::vector<std::size_t> ops_on(n_shards, 0);
  auto collect = [&] {
    for (cluster::RoutedTicket& t : window) (void)t.get();
    window.clear();
  };
  for (std::size_t i = 0; i < kOps; ++i) {
    cluster::RoutedTicket t =
        router.write_async({.payloads = {payload}, .attr = attr});
    ++ops_on[t.shard()];
    window.push_back(std::move(t));
    if (window.size() >= kWindow) collect();
  }
  collect();
  router.drain_writes();

  // Per-shard makespan: serial time charged on that shard's own clock plus
  // the admission hashes its host ran. The aggregate finishes when the
  // slowest shard does.
  common::Duration slowest{};
  for (std::size_t i = 0; i < n_shards; ++i) {
    common::Duration makespan = rigs[i]->clock.total_charged() - serial0[i] +
                                hash_cost * static_cast<std::int64_t>(ops_on[i]);
    slowest = std::max(slowest, makespan);
  }

  ShardedResult r;
  r.throughput = static_cast<double>(kOps) / slowest.to_seconds_f();
  router.drain_writes();
  std::map<std::string, std::uint64_t> counters = router.counters();
  r.cluster_writes = counters.at("cluster.store.writes");
  if (n_shards == 4) {
    std::printf("\n  cluster counters at 4 shards (store.* only):\n");
    for (const auto& [name, value] : counters) {
      if (name.find("store.writes") != std::string::npos ||
          name.find("write_pipeline.batches") != std::string::npos) {
        std::printf("    %-36s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Sharded multi-SCPU scale-out — aggregate write throughput (8KB)",
      "one SCPU's crossings cap the write rate; N shards burn N SCPUs' "
      "time in parallel behind one SN space");

  std::printf("%-22s %8s %16s %10s\n", "op", "shards", "modeled rec/s",
              "speedup");

  std::vector<bench::BenchRow> rows;
  double base = 0;
  double at4 = 0;
  bool counters_ok = true;
  for (std::size_t n : {1u, 2u, 4u}) {
    ShardedResult r = run_sharded(n);
    if (n == 1) base = r.throughput;
    if (n == 4) at4 = r.throughput;
    counters_ok = counters_ok && r.cluster_writes == kOps;
    std::printf("%-22s %8zu %16.0f %9.2fx\n", "sharded_write", n,
                r.throughput, r.throughput / base);
    rows.push_back({"sharded_write", n, r.throughput, 0, 0});
  }

  bench::write_bench_json("sharded", rows);

  double scaling = at4 / base;
  std::printf("\n4-shard scaling: %.2fx over 1 shard (gate: >= 2.5x); "
              "cluster counters %s\n",
              scaling, counters_ok ? "consistent" : "INCONSISTENT");
  return (scaling >= 2.5 && counters_ok) ? 0 : 1;
}
