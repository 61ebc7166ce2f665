// Shared experiment rig for the benchmark binaries. Each experiment builds a
// fresh simulated deployment, drives a workload, and reads *simulated* time
// off the clock — which the calibrated cost models (Table 2) turn into the
// paper's absolute throughput numbers regardless of build hardware.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.hpp"
#include "scpu/key_cache.hpp"
#include "scpu/scpu_device.hpp"
#include "storage/block_device.hpp"
#include "storage/record_store.hpp"
#include "worm/client_verifier.hpp"
#include "worm/firmware.hpp"
#include "worm/worm_store.hpp"

namespace worm::bench {

inline const crypto::RsaPrivateKey& regulator_key() {
  return scpu::cached_rsa_key(0x1e6a1, 1024);
}

/// One deployment on the heap (the benches build many).
struct BenchRig {
  BenchRig(core::FirmwareConfig fw_cfg, core::StoreConfig st_cfg,
           storage::LatencyModel disk_latency = storage::LatencyModel::none(),
           std::size_t disk_block = 65536,
           scpu::CostModel device_model = scpu::CostModel::ibm4764())
      : device(clock, device_model),
        firmware(device, fw_cfg, regulator_key().public_key()),
        disk(disk_block, 1024, &clock, disk_latency),
        records(disk),
        store(clock, firmware, records, st_cfg) {}

  common::SimClock clock;
  scpu::ScpuDevice device;
  core::Firmware firmware;
  storage::MemBlockDevice disk;
  storage::RecordStore records;
  core::WormStore store;
};

/// Firmware config tuned for long burst benchmarks: generous short-key
/// rotation so a sweep is not interrupted by inline keygen.
inline core::FirmwareConfig bench_fw_config() {
  core::FirmwareConfig cfg;
  cfg.heartbeat_interval = common::Duration::minutes(2);
  cfg.short_key_rotation = common::Duration::hours(2);
  cfg.short_sig_lifetime = common::Duration::minutes(90);
  return cfg;
}

struct Throughput {
  double records_per_sec = 0;
  double scpu_busy_frac = 0;
  double elapsed_sec = 0;
};

/// Writes `n` records of `size` bytes in a burst and reports simulated
/// throughput.
inline Throughput measure_writes(BenchRig& rig, std::size_t size,
                                 std::size_t n, core::WitnessMode mode) {
  common::Bytes payload(size, 0x5a);
  core::Attr attr;
  attr.retention = common::Duration::years(5);

  common::SimTime t0 = rig.clock.now();
  common::Duration busy0 = rig.device.busy_time();
  for (std::size_t i = 0; i < n; ++i) {
    (void)rig.store.write({.payloads = {payload}, .attr = attr, .mode = mode});
  }
  Throughput t;
  t.elapsed_sec = (rig.clock.now() - t0).to_seconds_f();
  t.records_per_sec = static_cast<double>(n) / t.elapsed_sec;
  t.scpu_busy_frac =
      (rig.device.busy_time() - busy0).to_seconds_f() / t.elapsed_sec;
  return t;
}

/// Same burst shipped through WormStore::write_batch (kWriteBatch crossings,
/// `batch` requests queued per submission).
inline Throughput measure_batched_writes(BenchRig& rig, std::size_t size,
                                         std::size_t n, core::WitnessMode mode,
                                         std::size_t batch) {
  common::Bytes payload(size, 0x5a);
  core::Attr attr;
  attr.retention = common::Duration::years(5);

  common::SimTime t0 = rig.clock.now();
  common::Duration busy0 = rig.device.busy_time();
  std::size_t done = 0;
  while (done < n) {
    std::size_t take = std::min(batch, n - done);
    std::vector<core::WriteRequest> queue(
        take, {.payloads = {payload}, .attr = attr, .mode = mode});
    (void)rig.store.write_batch(queue);
    done += take;
  }
  Throughput t;
  t.elapsed_sec = (rig.clock.now() - t0).to_seconds_f();
  t.records_per_sec = static_cast<double>(n) / t.elapsed_sec;
  t.scpu_busy_frac =
      (rig.device.busy_time() - busy0).to_seconds_f() / t.elapsed_sec;
  return t;
}

/// Latency percentile over per-op samples (`p` in [0,100]). Sorts a copy;
/// fine at bench sample counts.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// One machine-readable result row. Latencies are microseconds; zero-valued
/// optional fields are omitted from the JSON.
struct BenchRow {
  std::string op;
  std::size_t threads = 1;
  double throughput_ops_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Writes rows to BENCH_<name>.json in the working directory so harnesses
/// can diff results across commits without scraping stdout.
inline void write_bench_json(const std::string& name,
                             const std::vector<BenchRow>& rows) {
  std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", name.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"threads\": %zu, "
                 "\"throughput_ops_s\": %.2f",
                 r.op.c_str(), r.threads, r.throughput_ops_s);
    if (r.p50_us > 0) std::fprintf(f, ", \"p50_us\": %.3f", r.p50_us);
    if (r.p99_us > 0) std::fprintf(f, ", \"p99_us\": %.3f", r.p99_us);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n[wrote %s]\n", path.c_str());
}

/// Dumps the store's named counters (operation counts + mailbox transport
/// metrics) in a stable two-column form.
inline void print_counters(const core::WormStore& store) {
  for (const auto& [name, value] : store.counters()) {
    std::printf("  %-24s %llu\n", std::string(name).c_str(),
                static_cast<unsigned long long>(value));
  }
}

/// Record count that keeps memory and wall time bounded across sizes.
inline std::size_t records_for_size(std::size_t size) {
  std::size_t n = (48u << 20) / size;
  if (n > 400) n = 400;
  if (n < 24) n = 24;
  return n;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper reference: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

}  // namespace worm::bench
