// Network front-end under load: 8 keep-alive clients over a Unix socket
// against one WormServer, open-loop target-QPS sweep on a 90/10 read/write
// mix, plus a deliberate overload phase against a 2-deep write queue.
//
// Unlike the simulation benches this measures REAL latency (the server's
// event loop, framing and sockets are real); the in-process read p50 is
// measured in the same binary for an apples-to-apples baseline.
//
// Exit-code gates (CI server-smoke):
//  * at every sustained target, remote read p99 < 10x the in-process read
//    p50 (floored at 200us — below that loopback scheduling noise
//    dominates; see the comment at the bound);
//  * the overload phase must see kBusy rejections while reads keep being
//    served — backpressure must reach the wire instead of stalling the loop.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "server/client/worm_client.hpp"
#include "server/worm_server.hpp"

using namespace worm;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::StoreConfig server_store_config(std::size_t queue_capacity) {
  core::StoreConfig sc;
  sc.default_mode = core::WitnessMode::kDeferred;
  sc.hash_mode = core::HashMode::kHostHash;
  sc.pipeline.enabled = true;
  sc.pipeline.queue_capacity = queue_capacity;
  return sc;
}

core::WriteRequest make_record(const common::Bytes& payload) {
  core::WriteRequest w;
  w.payloads = {payload};
  w.attr.retention = common::Duration::years(5);
  return w;
}

struct Deployment {
  explicit Deployment(std::size_t queue_capacity)
      : rig(bench::bench_fw_config(), server_store_config(queue_capacity)),
        path("/tmp/bench_worm_server." + std::to_string(getpid()) + "." +
             std::to_string(instance++) + ".sock") {
    auth.add("bench", common::to_bytes("bench-secret"));
    server::ServerConfig cfg;
    cfg.unix_path = path;
    cfg.loops = 2;
    server = std::make_unique<server::WormServer>(
        cfg, auth, [this](std::string_view principal) {
          return std::make_unique<core::WormSession>(
              rig.store, std::string(principal), rig.clock);
        });
    server->start();
  }
  ~Deployment() { server.reset(); }

  server::WormClient connect() {
    server::ClientConfig c;
    c.unix_path = path;
    c.principal = "bench";
    c.token = auth.mint("bench");
    return server::WormClient(std::move(c));
  }

  static int instance;
  bench::BenchRig rig;
  std::string path;
  server::AuthRegistry auth;
  std::unique_ptr<server::WormServer> server;
};

int Deployment::instance = 0;

struct MixResult {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::uint64_t busy = 0;
  std::uint64_t unavailable = 0;
  double elapsed_s = 0;
};

/// One open-loop client: requests depart on a fixed schedule (arrears are
/// not forgiven — a slow server accumulates backlog and its tail shows it).
MixResult run_client(Deployment& dep, double qps, std::size_t ops,
                     std::uint64_t seed, core::Sn seeded) {
  MixResult res;
  server::WormClient client = dep.connect();
  common::Bytes payload(1024, 0x5a);
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
  const double interval_us = 1e6 / qps;
  double start = now_us();
  for (std::size_t i = 0; i < ops; ++i) {
    double due = start + static_cast<double>(i) * interval_us;
    double now = now_us();
    if (now < due) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(due - now));
    }
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    double t0 = now_us();
    if (rng % 10 != 0) {  // 90% reads
      core::Sn sn = 1 + (rng >> 8) % seeded;
      core::ReadOutcome out = client.read(sn);
      if (out.status() == core::ReadStatus::kUnavailable) ++res.unavailable;
      res.read_us.push_back(now_us() - t0);
    } else {
      server::WriteResult w = client.write(make_record(payload));
      while (w.busy()) {
        ++res.busy;
        w = client.write(make_record(payload));
      }
      res.write_us.push_back(now_us() - t0);
    }
  }
  res.elapsed_s = (now_us() - start) / 1e6;
  return res;
}

}  // namespace

int main() {
  bench::print_header(
      "WormServer — 8 keep-alive clients, open-loop QPS sweep, 90/10 r/w "
      "(1KB)",
      "multi-tenant front-end: untrusted server, kBusy backpressure on the "
      "wire");

  std::vector<bench::BenchRow> rows;
  bool gates_ok = true;

  // --- in-process baseline -------------------------------------------------
  double inproc_p50;
  double inproc_ops_s;
  {
    bench::BenchRig rig(bench::bench_fw_config(), server_store_config(64));
    common::Bytes payload(1024, 0x5a);
    for (int i = 0; i < 64; ++i) {
      (void)rig.store.write(make_record(payload));
    }
    for (core::Sn sn = 1; sn <= 64; ++sn) (void)rig.store.read(sn);  // warm
    std::vector<double> us;
    us.reserve(4000);
    double loop_start = now_us();
    for (int i = 0; i < 4000; ++i) {
      double t0 = now_us();
      (void)rig.store.read(1 + static_cast<core::Sn>(i % 64));
      us.push_back(now_us() - t0);
    }
    inproc_ops_s = 4000.0 / ((now_us() - loop_start) / 1e6);
    inproc_p50 = bench::percentile(us, 50);
    rows.push_back({"inproc_read", 1, inproc_ops_s, inproc_p50,
                    bench::percentile(us, 99)});
  }
  // Floor the baseline at 200us: a remote round trip costs at least two
  // context switches (client -> loop thread -> client), and on a shared
  // single-core CI box each is timeslice-scale. Below that the 10x bound
  // would gate kernel scheduling, not the server.
  double latency_bound = 10.0 * (inproc_p50 > 200.0 ? inproc_p50 : 200.0);
  std::printf("\nin-process read p50: %.1f us -> remote p99 bound %.1f us\n",
              inproc_p50, latency_bound);

  // --- keep-alive sweep ----------------------------------------------------
  constexpr std::size_t kClients = 8;
  std::printf("\n%10s %12s %12s %10s %10s %10s %8s\n", "target q/s",
              "achieved q/s", "reads", "r p50 us", "r p99 us", "w p99 us",
              "gate");
  {
    Deployment dep(/*queue_capacity=*/64);
    {  // seed records so reads have targets
      server::WormClient seeder = dep.connect();
      common::Bytes payload(1024, 0x5a);
      for (int i = 0; i < 64; ++i) {
        server::WriteResult w = seeder.write(make_record(payload));
        while (w.busy()) w = seeder.write(make_record(payload));
      }
    }
    for (double target : {2000.0, 6000.0, 12000.0}) {
      std::size_t ops_per_client =
          static_cast<std::size_t>(target / kClients * 2.5);  // ~2.5s
      std::vector<MixResult> results(kClients);
      std::vector<std::thread> threads;
      threads.reserve(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          results[c] = run_client(dep, target / kClients, ops_per_client,
                                  c + 1, 64);
        });
      }
      for (auto& t : threads) t.join();

      std::vector<double> reads, writes;
      double max_elapsed = 0;
      std::size_t total_ops = 0;
      for (const auto& r : results) {
        reads.insert(reads.end(), r.read_us.begin(), r.read_us.end());
        writes.insert(writes.end(), r.write_us.begin(), r.write_us.end());
        if (r.elapsed_s > max_elapsed) max_elapsed = r.elapsed_s;
        total_ops += r.read_us.size() + r.write_us.size();
      }
      double achieved = static_cast<double>(total_ops) / max_elapsed;
      double rp50 = bench::percentile(reads, 50);
      double rp99 = bench::percentile(reads, 99);
      double wp99 = bench::percentile(writes, 99);
      bool sustained = achieved >= 0.90 * target;
      bool pass = !sustained || rp99 < latency_bound;
      if (!pass) gates_ok = false;
      std::printf("%10.0f %12.0f %12zu %10.1f %10.1f %10.1f %8s\n", target,
                  achieved, reads.size(), rp50, rp99, wp99,
                  !sustained ? "  (lag)" : pass ? "ok" : "FAIL");
      rows.push_back({"read_q" + std::to_string(static_cast<int>(target)),
                      kClients, achieved, rp50, rp99});
      rows.push_back({"write_q" + std::to_string(static_cast<int>(target)),
                      kClients, achieved, bench::percentile(writes, 50),
                      wp99});
    }
  }

  // --- closed-loop saturation: pipelined kReadBatch windows ----------------
  // How fast can the wire go when the client stops paying one RTT per SN?
  // Each client hammers read_many back to back (256-SN frames, 4 in
  // flight); the server answers each frame with one read_many over its SNs
  // and appends the answers, in arrival order, to one response buffer. The
  // gate: this must clear 4x the ~12k ops/s per-frame ceiling the open-loop
  // sweep tops out at.
  {
    Deployment dep(/*queue_capacity=*/64);
    {
      server::WormClient seeder = dep.connect();
      common::Bytes payload(1024, 0x5a);
      for (int i = 0; i < 64; ++i) {
        server::WriteResult w = seeder.write(make_record(payload));
        while (w.busy()) w = seeder.write(make_record(payload));
      }
    }
    constexpr std::size_t kSatClients = 2;
    constexpr std::size_t kBurst = 512;
    const double sat_window_s = 2.0;
    std::vector<std::uint64_t> sns_done(kSatClients, 0);
    std::vector<double> elapsed_s(kSatClients, 1e-9);
    std::vector<std::thread> threads;
    threads.reserve(kSatClients);
    for (std::size_t c = 0; c < kSatClients; ++c) {
      threads.emplace_back([&, c] {
        server::ClientConfig cc;
        cc.unix_path = dep.path;
        cc.principal = "bench";
        cc.token = dep.auth.mint("bench");
        cc.read_chunk = 256;
        cc.read_window = 4;
        server::WormClient client(std::move(cc));
        std::vector<core::Sn> burst(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
          burst[i] = 1 + static_cast<core::Sn>((c * 17 + i) % 64);
        }
        double start = now_us();
        std::uint64_t done = 0;
        while ((now_us() - start) / 1e6 < sat_window_s) {
          done += client.read_many(burst).size();
        }
        sns_done[c] = done;
        elapsed_s[c] = (now_us() - start) / 1e6;
      });
    }
    for (auto& t : threads) t.join();
    std::uint64_t total = 0;
    double max_elapsed = 0;
    for (std::size_t c = 0; c < kSatClients; ++c) {
      total += sns_done[c];
      if (elapsed_s[c] > max_elapsed) max_elapsed = elapsed_s[c];
    }
    double wire_read_peak = static_cast<double>(total) / max_elapsed;
    const double kWireFloor = 4.0 * 12000.0;
    bool sat_ok = wire_read_peak >= kWireFloor;
    if (!sat_ok) gates_ok = false;
    // How much of the in-process read rate the wire now delivers: the
    // remaining gap is the protocol's true overhead, not per-RTT stalls.
    double wire_gap_ratio = inproc_ops_s / wire_read_peak;
    std::printf(
        "\nsaturation: %.0f SNs/s over pipelined kReadBatch (floor %.0f) "
        "%s; in-process/wire gap %.2fx\n",
        wire_read_peak, kWireFloor,
        sat_ok ? "(gate ok)" : "(gate FAIL: batch path below 4x ceiling)",
        wire_gap_ratio);
    rows.push_back({"wire_read_peak", kSatClients, wire_read_peak, 0, 0});
    rows.push_back({"wire_gap_ratio", kSatClients, wire_gap_ratio, 0, 0});
  }

  // --- overload: tiny queue, unpaced writers -------------------------------
  std::uint64_t busy_total = 0;
  std::uint64_t overload_reads = 0;
  {
    Deployment dep(/*queue_capacity=*/2);
    {
      server::WormClient seeder = dep.connect();
      common::Bytes payload(1024, 0x5a);
      server::WriteResult w = seeder.write(make_record(payload));
      while (w.busy()) w = seeder.write(make_record(payload));
    }
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> reads_served{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&dep, &busy, &reads_served] {
        server::WormClient client = dep.connect();
        common::Bytes payload(1024, 0x5a);
        for (int i = 0; i < 60; ++i) {
          server::WriteResult w = client.write(make_record(payload));
          while (w.busy()) {
            busy.fetch_add(1);
            // The loop must keep serving reads while refusing writes.
            (void)client.read(1);
            reads_served.fetch_add(1);
            w = client.write(make_record(payload));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    busy_total = busy.load();
    overload_reads = reads_served.load();
    if (busy_total == 0) gates_ok = false;
    std::printf(
        "\noverload: %llu kBusy rejections, %llu reads served during "
        "overload %s\n",
        static_cast<unsigned long long>(busy_total),
        static_cast<unsigned long long>(overload_reads),
        busy_total > 0 ? "(gate ok)" : "(gate FAIL: no backpressure seen)");
    rows.push_back({"overload_busy_rejections", kClients,
                    static_cast<double>(busy_total), 0, 0});
  }

  std::printf(
      "\nReading: the remote read tail stays within one order of magnitude\n"
      "of the in-process read (framing + two socket hops + a 1ms poll\n"
      "cadence), and a saturated write pipeline surfaces as explicit kBusy\n"
      "answers the client paces against — the event loop itself never\n"
      "stalls, so reads keep flowing at full speed during write overload.\n");
  bench::write_bench_json("server", rows);
  if (!gates_ok) {
    std::printf("\nGATE FAILURE (see above)\n");
    return 1;
  }
  return 0;
}
