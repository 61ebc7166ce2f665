// Read-path concurrency: §4.2.2 serves reads entirely from the untrusted
// main CPU, so read throughput must scale with host parallelism — the SCPU
// is not on the path at all. This bench races N client threads over a warm
// store (verification on, signature memo populated) and reports aggregate
// throughput.
//
// Methodology (same convention as bench_scaling): threads execute the REAL
// concurrent code path — shared-lock VRDT reads, block-device copies,
// memoized client verification — so races are exercised (and
// caught under -fsanitize=thread), while throughput is computed from the
// calibrated cost models rather than container wall-clock. Each thread
// accumulates the modeled host cost of the ops it served (client-side
// chained hash + serving DMA, per Table 2's P4 model); the makespan is the
// slowest thread's busy time plus the serial fraction — simulated charges
// the store made on the shared clock during the run (zero on the warm
// in-memory path; the whole story on the cold disk-bound row). Wall-clock
// per-op p50/p99 is reported alongside as a contention sanity check only.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"

using namespace worm;

namespace {

struct SweepResult {
  double throughput = 0;  // modeled ops/s
  double p50_us = 0;      // wall-clock per-op
  double p99_us = 0;
  std::size_t failures = 0;
};

SweepResult run_sweep(bench::BenchRig& rig, const core::ClientVerifier& ver,
                      const std::vector<core::Sn>& sns, std::size_t nthreads,
                      std::size_t total_ops, std::size_t payload_size) {
  const scpu::CostModel& host = rig.store.config().host_model;
  const common::Duration per_op =
      host.hash_cost(payload_size) + host.dma_cost(payload_size);

  std::vector<std::thread> threads;
  std::vector<common::Duration> busy(nthreads);
  std::vector<std::vector<double>> wall(nthreads);
  std::atomic<std::size_t> failures{0};
  common::Duration serial0 = rig.clock.total_charged();

  for (std::size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t ops = total_ops / nthreads;
      wall[t].reserve(ops);
      for (std::size_t i = 0; i < ops; ++i) {
        core::Sn sn = sns[(t * ops + i) % sns.size()];
        auto w0 = std::chrono::steady_clock::now();
        core::ReadOutcome res = rig.store.read(sn);
        core::Outcome out = ver.verify_read(sn, res);
        auto w1 = std::chrono::steady_clock::now();
        if (out.verdict != core::Verdict::kAuthentic) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        busy[t] += per_op;
        wall[t].push_back(
            std::chrono::duration<double, std::micro>(w1 - w0).count());
      }
    });
  }
  for (auto& th : threads) th.join();

  common::Duration serial = rig.clock.total_charged() - serial0;
  common::Duration slowest{};
  std::vector<double> all_wall;
  for (std::size_t t = 0; t < nthreads; ++t) {
    slowest = std::max(slowest, busy[t]);
    all_wall.insert(all_wall.end(), wall[t].begin(), wall[t].end());
  }
  double makespan = (slowest + serial).to_seconds_f();
  SweepResult r;
  r.throughput = static_cast<double>(all_wall.size()) / makespan;
  r.p50_us = bench::percentile(all_wall, 50);
  r.p99_us = bench::percentile(all_wall, 99);
  r.failures = failures.load();
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Concurrent verified reads — thread sweep over a warm store (1KB)",
      "§4.2.2: reads are main-CPU-only, so they scale with host threads");

  const std::size_t kRecords = 256;
  const std::size_t kPayload = 1024;
  const std::size_t kOps = 8000;

  core::StoreConfig sc;  // kStrong default: records verify immediately
  bench::BenchRig rig(bench::bench_fw_config(), sc);
  common::Bytes payload(kPayload, 0x5a);
  core::Attr attr;
  attr.retention = common::Duration::years(5);
  std::vector<core::Sn> sns;
  for (std::size_t i = 0; i < kRecords; ++i) {
    sns.push_back(rig.store.write({.payloads = {payload}, .attr = attr}));
  }
  // One shared memo across all client threads: repeated RSA verifications
  // of the same witnesses collapse to lookups (the read-path hot loop).
  auto memo = std::make_shared<core::SigVerifyMemo>();
  core::ClientVerifier verifier(rig.store.anchors(), rig.clock, memo);
  // Warm-up: populate the signature memo.
  for (core::Sn sn : sns) (void)verifier.verify_read(sn, rig.store.read(sn));

  std::vector<bench::BenchRow> rows;
  std::printf("%8s %16s %10s %10s %10s %9s\n", "threads", "modeled ops/s",
              "speedup", "p50 us", "p99 us", "failures");
  double base = 0;
  double at8 = 0;
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    SweepResult r = run_sweep(rig, verifier, sns, k, kOps, kPayload);
    if (base == 0) base = r.throughput;
    if (k == 8) at8 = r.throughput;
    std::printf("%8zu %16.0f %9.2fx %10.1f %10.1f %9zu\n", k, r.throughput,
                r.throughput / base, r.p50_us, r.p99_us, r.failures);
    rows.push_back(
        {"warm_verified_read", k, r.throughput, r.p50_us, r.p99_us});
  }
  std::printf("\nspeedup at 8 threads: %.2fx (target >= 4x)\n", at8 / base);

  // Cold, disk-bound contrast (§5): with 2008 enterprise-disk latency and
  // nothing warm, the serial disk charges dominate the makespan and
  // concurrency buys little — the paper's observed operational bottleneck.
  bench::BenchRig cold_rig(bench::bench_fw_config(), sc,
                           storage::LatencyModel::enterprise_disk_2008());
  std::vector<core::Sn> cold_sns;
  for (std::size_t i = 0; i < kRecords; ++i) {
    cold_sns.push_back(
        cold_rig.store.write({.payloads = {payload}, .attr = attr}));
  }
  core::ClientVerifier cold_ver(cold_rig.store.anchors(), cold_rig.clock);
  SweepResult cold =
      run_sweep(cold_rig, cold_ver, cold_sns, 8, kRecords * 2, kPayload);
  std::printf(
      "\ncold 8-thread disk-bound row: %.0f ops/s — seek latency, not the\n"
      "WORM layer, is the bottleneck once nothing is warm.\n",
      cold.throughput);
  rows.push_back({"cold_disk_bound_read", 8, cold.throughput, cold.p50_us,
                  cold.p99_us});

  std::printf("\nstore counters after the sweeps:\n");
  bench::print_counters(rig.store);
  bench::write_bench_json("concurrent_reads", rows);
  return at8 / base >= 4.0 ? 0 : 1;
}
