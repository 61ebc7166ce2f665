// §4.3 ablation: "determine the maximum signature strength we can afford for
// a given throughput update rate". Sweeps the short-lived key strength and
// reports burst throughput, idle-time strengthening rate, and the maximum
// burst a given security lifetime can absorb before the strengthening
// backlog would violate it.
#include <cstdio>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

using namespace worm;

int main() {
  bench::print_header(
      "Deferred-strength ablation — burst rate vs short-key strength, and "
      "strengthening economics",
      "§4.3: 512-bit constructs resist 60-180 min; strength/throughput "
      "trade-off governed by sign cost ~ bits^3");

  std::printf("%12s %14s %18s %22s\n", "short bits", "burst rec/s",
              "strengthen rec/s", "max 60-min burst len");
  for (std::size_t bits : {512u, 640u, 768u, 896u, 1024u}) {
    core::FirmwareConfig fw = bench::bench_fw_config();
    fw.short_bits = bits;
    core::StoreConfig sc;
    sc.default_mode = core::WitnessMode::kDeferred;
    sc.hash_mode = core::HashMode::kHostHash;
    bench::BenchRig rig(fw, sc);

    const std::size_t n = 256;
    auto burst =
        bench::measure_writes(rig, 1024, n, core::WitnessMode::kDeferred);

    // Drain the strengthening backlog and measure the idle-time rate. Bounded
    // (one kIdleBatch-sized crossing per iteration, plus slack for audit and
    // compaction rotations): a backlog that fails to shrink is a liveness bug
    // this bench must crash on, not spin through.
    common::SimTime t0 = rig.clock.now();
    bool drained = common::bounded_drain(
        [&] {
          if (rig.firmware.deferred_count() == 0) return false;
          rig.store.pump_idle();
          return rig.firmware.deferred_count() > 0;
        },
        n / core::kIdleBatch + 64);
    WORM_CHECK(drained, "bench_deferred: strengthening backlog never drained");
    double drain_sec = (rig.clock.now() - t0).to_seconds_f();
    double strengthen_rate = static_cast<double>(n) / drain_sec;

    // A burst of B records at rate R lasts B/R seconds; every record must be
    // strengthened within `lifetime` of its signature. Worst case, the whole
    // backlog must drain within the lifetime: B <= strengthen_rate*lifetime.
    double max_burst = strengthen_rate * 3600.0;
    std::printf("%12zu %11.0f %15.0f %22.0f\n", bits, burst.records_per_sec,
                strengthen_rate, max_burst);
  }

  std::printf(
      "\nhmac mode (same pipeline, MAC witnesses): burst rate below —\n");
  {
    core::StoreConfig sc;
    sc.default_mode = core::WitnessMode::kHmac;
    sc.hash_mode = core::HashMode::kHostHash;
    bench::BenchRig rig(bench::bench_fw_config(), sc);
    auto t = bench::measure_writes(rig, 1024, 400, core::WitnessMode::kHmac);
    std::printf("%12s %11.0f rec/s (paper: 'practically unlimited, bus-"
                "limited')\n", "hmac", t.records_per_sec);
  }

  std::printf(
      "\nReading: burst throughput falls ~cubically with key strength (sign\n"
      "cost ~ bits^3), while strengthening throughput is fixed by the strong\n"
      "key — the trade is burst capacity against backlog lifetime, exactly\n"
      "the §4.3 knob.\n");
  return 0;
}
