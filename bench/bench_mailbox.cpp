// Mailbox transport microbenchmark: what the PCI-X boundary costs and what
// batching buys back.
//
//   (a) A/B the per-crossing transfer charge — the "without" device is the
//       4764 model with command_overhead_sec and dma_bytes_per_sec zeroed —
//       to isolate the transport's share of burst latency,
//   (b) sweep kWriteBatch batch sizes at fixed workload,
//   (c) dump the store's counters so the crossing/byte arithmetic is visible.
//
// The transfer cost is command_cost (25 us PCI-X round trip) plus DMA for the
// bytes actually moved; batching converts N crossings into one.
#include <cstdio>

#include "bench_util.hpp"

using namespace worm;

namespace {

core::StoreConfig burst_config(std::size_t max_batch) {
  core::StoreConfig sc;
  sc.default_mode = core::WitnessMode::kDeferred;
  sc.hash_mode = core::HashMode::kHostHash;
  sc.mailbox.max_batch = max_batch;
  return sc;
}

/// The 4764 with free crossings: no command round-trip, no DMA time.
scpu::CostModel no_transfer_model() {
  scpu::CostModel m = scpu::CostModel::ibm4764();
  m.command_overhead_sec = 0;
  m.dma_bytes_per_sec = 0;
  return m;
}

}  // namespace

int main() {
  const std::size_t kN = 400;

  bench::print_header(
      "Mailbox A/B — per-record deferred burst, transfer cost on vs off",
      "25 us command + DMA per crossing; off = zero-transfer device model");
  std::printf("%8s %20s %20s\n", "size", "with transfer", "without");
  for (std::size_t size : {512u, 1024u, 4096u, 16384u}) {
    bench::BenchRig with(bench::bench_fw_config(), burst_config(64));
    bench::BenchRig without(bench::bench_fw_config(), burst_config(64),
                            storage::LatencyModel::none(), 65536,
                            no_transfer_model());
    auto tw =
        bench::measure_writes(with, size, kN, core::WitnessMode::kDeferred);
    auto to =
        bench::measure_writes(without, size, kN, core::WitnessMode::kDeferred);
    std::printf("%7zuB %14.0f rec/s %14.0f rec/s\n", size, tw.records_per_sec,
                to.records_per_sec);
  }

  bench::print_header(
      "kWriteBatch sweep — 400 x 1KB deferred burst, transfer cost on",
      "§4.1 amortization: one crossing witnesses up to max_batch records");
  std::printf("%10s %16s %12s %14s\n", "batch", "throughput", "crossings",
              "bytes crossed");
  for (std::size_t batch : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    bench::BenchRig rig(bench::bench_fw_config(), burst_config(batch));
    auto t = bench::measure_batched_writes(rig, 1024, kN,
                                           core::WitnessMode::kDeferred, batch);
    auto counters = rig.store.counters();
    std::printf("%10zu %10.0f rec/s %12llu %14llu\n", batch,
                t.records_per_sec,
                static_cast<unsigned long long>(counters.at("mailbox.crossings")),
                static_cast<unsigned long long>(
                    counters.at("mailbox.bytes_crossed")));
  }

  bench::print_header("Counter dump — batched burst followed by idle pumping",
                      "WormStore::counters(): operation + transport metrics");
  {
    bench::BenchRig rig(bench::bench_fw_config(), burst_config(64));
    bench::measure_batched_writes(rig, 1024, kN, core::WitnessMode::kDeferred,
                                  64);
    while (rig.store.pump_idle()) {
    }
    bench::print_counters(rig.store);
  }
  return 0;
}
