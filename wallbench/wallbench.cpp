// Wall-clock benchmark of verified reads and acknowledged writes over the
// wire. One WormServer runs in process behind a Unix socket; at most four
// client threads drive it closed-loop, each through its own WormClient, and
// every read a client gets is checked with that client's own ClientVerifier.
// Every figure comes from steady_clock or getrusage: the SimClock only feeds
// the protocol's own freshness checks and is never read as a measurement.
//
// Workloads (inputs are a pure function of --seed):
//   ingest  4 writers, write only, payloads log-uniform 512 B..16 KiB. Runs in
//           rounds of a fixed 2,048 writes on a fresh deployment, so memory
//           and byte counts do not grow with speed; each round ends with a
//           seeded read-back whose payload bytes must match what was sent.
//   audit   16,384 preloaded 4 KiB records; 2 investigators issue read_many
//           of 64 uniform SNs and verify every slot. The working set is 4x
//           the read cache and 2x each verifier's signature memo.
//   lookup  the same preload; 2 connections, 90 % single-SN read + verify
//           (80 % of them on a 1,024-record hot set), 10 % 4 KiB writes.
//
// A traced run (--trace 1) splits the measured time into an untraced half
// and a traced half, times the calls into each layer's public functions from
// here (plus a timing BlockDevice under the record store), and reads the
// counters the layers already export. Nothing is traced inside src/.
//
// Usage: wallbench --workload ingest|audit|lookup --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--response-bitflip P]
// --response-bitflip arms the server's "server.response" fault point, which
// flips a bit in a fraction P of response bodies; the run must then fail.
//
// Output: one line per metric ("metric <name> <value> <unit> clock: wall"),
// then, as the last line, one JSON object with every metric, the attempted
// and failed operation counts and whether every output checked out. The exit
// code is 1 when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/sim_clock.hpp"
#include "scpu/key_cache.hpp"
#include "scpu/scpu_device.hpp"
#include "server/client/worm_client.hpp"
#include "server/worm_server.hpp"
#include "storage/block_device.hpp"
#include "storage/record_store.hpp"
#include "worm/client_verifier.hpp"
#include "worm/firmware.hpp"
#include "worm/session.hpp"
#include "worm/worm_store.hpp"

namespace {

using namespace worm;
namespace fs = std::filesystem;

constexpr std::size_t kBlockBytes = 4096;
constexpr core::Sn kPreload = 16384;  // audit/lookup records, 4 KiB each
constexpr std::size_t kPreloadBytes = 4096;
constexpr std::size_t kPreloadChunk = 256;  // requests per write_batch call
constexpr std::size_t kAuditBatch = 64;     // SNs per read_many call
constexpr std::size_t kHotSet = 1024;
constexpr std::size_t kReaders = 2;  // audit and lookup connections
constexpr std::size_t kWriters = 4;  // ingest connections
constexpr std::size_t kRoundWrites = 2048;  // ingest writes per round
constexpr std::size_t kMinPayload = 512, kMaxPayload = 16384;
constexpr std::size_t kReadbackSample = 256;  // ingest SNs read back per round
constexpr std::size_t kCommitBatch = 64;  // scpu.commit_us_per_record probe
constexpr int kSetups = 3;  // audit/lookup set-ups behind setup_s (median)
constexpr double kWarmupS = 1.0;
constexpr double kSliceS = 0.5;  // rate samples behind ops_s (median)
constexpr double kLatencyWindowS = 4;  // windows behind call_p50/p99 (median)
// Disk capacity in 4 KiB blocks, allocated at set-up so a run never grows
// the device mid-measurement. A round of ingest needs at most 4 blocks per
// write; audit/lookup leave room for the lookup writes after the preload.
constexpr std::size_t kIngestBlocks = kRoundWrites * 4;
constexpr std::size_t kPreloadBlocks = 3 * kPreload;

// ---------------------------------------------------------------------------
// Measuring helpers

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds (every thread: clients, loops, store).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set (VmHWM) in bytes.
double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;
    }
  }
  return 0;
}

/// Linear-interpolated percentile (`p` in [0,100]); 0 when there are no
/// samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median over windows of each window's percentile `p`, so that a slow
/// stretch of a shared host moves one window rather than the figure.
double windowed(const std::vector<std::vector<double>>& windows, double p) {
  std::vector<double> per;
  for (const auto& w : windows) {
    if (!w.empty()) per.push_back(percentile(w, p));
  }
  return percentile(per, 50);
}

/// splitmix64: small, seedable, and the same seed gives the same stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  common::Bytes bytes(std::size_t n) {
    common::Bytes b(n);
    for (std::size_t i = 0; i < n; i += 8) {
      std::uint64_t w = next();
      std::memcpy(b.data() + i, &w, std::min<std::size_t>(8, n - i));
    }
    return b;
  }

 private:
  std::uint64_t s_;
};

/// Independent stream `k` of a run's seed.
Rng stream(std::uint64_t seed, std::uint64_t k) {
  return Rng(Rng(seed ^ (k * 0xd1b54a32d192ed03ull)).next());
}

/// Log-uniform ingest payload size in [kMinPayload, kMaxPayload].
std::size_t ingest_size(Rng& rng) {
  double lo = std::log(static_cast<double>(kMinPayload));
  double hi = std::log(static_cast<double>(kMaxPayload));
  return static_cast<std::size_t>(std::exp(lo + rng.unit() * (hi - lo)));
}

core::WriteRequest record(common::Bytes payload) {
  core::WriteRequest w;
  w.payloads = {std::move(payload)};
  w.attr.retention = common::Duration::years(5);
  return w;
}

/// Payload of preloaded record `sn`, a function of the seed alone.
common::Bytes preload_payload(std::uint64_t seed, core::Sn sn) {
  return stream(seed, 1'000'000 + sn).bytes(kPreloadBytes);
}

// ---------------------------------------------------------------------------
// Deployment

/// Forwards to the in-memory disk; while `timing` is on it also records how
/// long each block read takes. Interposed in every run, so traced and
/// untraced runs build the same deployment.
class TimedDevice final : public storage::BlockDevice {
 public:
  explicit TimedDevice(storage::BlockDevice& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t block_size() const override {
    return inner_.block_size();
  }
  [[nodiscard]] std::size_t block_count() const override {
    return inner_.block_count();
  }
  void read_block(std::size_t index, common::Bytes& out) override {
    if (!timing.load(std::memory_order_relaxed)) {
      inner_.read_block(index, out);
      return;
    }
    double t0 = now_us();
    inner_.read_block(index, out);
    double us = now_us() - t0;
    std::lock_guard<std::mutex> lk(mu_);
    read_us_.push_back(us);
  }
  void write_block(std::size_t index, common::ByteView data) override {
    inner_.write_block(index, data);
  }
  void grow(std::size_t additional_blocks) override {
    inner_.grow(additional_blocks);
  }

  std::vector<double> take_read_us() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(read_us_);
  }

  std::atomic<bool> timing{false};

 private:
  storage::BlockDevice& inner_;
  std::mutex mu_;
  std::vector<double> read_us_;
};

core::FirmwareConfig fw_config() {
  // Long short-key rotation so a run never pauses for inline keygen.
  core::FirmwareConfig cfg;
  cfg.heartbeat_interval = common::Duration::minutes(2);
  cfg.short_key_rotation = common::Duration::hours(2);
  cfg.short_sig_lifetime = common::Duration::minutes(90);
  return cfg;
}

core::StoreConfig store_config(const std::string& journal_path) {
  core::StoreConfig sc;
  sc.default_mode = core::WitnessMode::kDeferred;
  sc.hash_mode = core::HashMode::kHostHash;
  sc.pipeline.enabled = true;
  sc.pipeline.queue_capacity = 64;
  sc.journal_path = journal_path;
  return sc;
}

std::string remove_stale(std::string path) {
  std::error_code ec;
  fs::remove(path, ec);
  return path;
}

/// The in-memory disk that stands in for platters. It is allocated before
/// set-up is timed and left out of peak_host_rss_mb: a deployment's disk
/// exists before the WORM layer starts.
std::unique_ptr<storage::MemBlockDevice> platters(std::size_t blocks) {
  return std::make_unique<storage::MemBlockDevice>(kBlockBytes, blocks);
}

/// One crash-consistent deployment: SCPU, firmware, the 4 KiB-block
/// in-memory disk, a journaled store with the group-commit pipeline, and
/// (once serve() runs) a two-loop WormServer on a Unix socket.
struct Deployment {
  Deployment(const fs::path& dir, int id,
             std::unique_ptr<storage::MemBlockDevice> platters)
      : device(clock, scpu::CostModel::ibm4764()),
        firmware(device, fw_config(),
                 scpu::cached_rsa_key(0x1e6a1, 1024).public_key()),
        disk(std::move(platters)),
        timed(*disk),
        records(timed),
        journal_path(remove_stale(
            (dir / ("journal." + std::to_string(id))).string())),
        socket_path(remove_stale((dir / ("s" + std::to_string(id))).string())),
        store(clock, firmware, records, store_config(journal_path)) {
    anchors = store.anchors();
  }

  ~Deployment() {
    if (server) server->stop();
    server.reset();
    try {
      store.close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "store close: %s\n", e.what());
    }
    std::error_code ec;
    fs::remove(journal_path, ec);
    fs::remove(socket_path, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void serve(common::FaultInjector* response_fault) {
    auth.add("bench", common::to_bytes("bench-secret"));
    server::ServerConfig cfg;
    cfg.unix_path = socket_path;
    cfg.loops = 2;
    cfg.fault = response_fault;
    server = std::make_unique<server::WormServer>(
        cfg, auth, [this](std::string_view principal) {
          return std::make_unique<core::WormSession>(
              store, std::string(principal), clock);
        });
    server->start();
  }

  [[nodiscard]] std::unique_ptr<server::WormClient> connect() const {
    server::ClientConfig c;
    c.unix_path = socket_path;
    c.principal = "bench";
    c.token = auth.mint("bench");
    return std::make_unique<server::WormClient>(std::move(c));
  }

  [[nodiscard]] std::uint64_t journal_bytes() const {
    std::error_code ec;
    auto n = fs::file_size(journal_path, ec);
    return ec ? 0 : n;
  }

  /// Bytes the deployment keeps for its records: disk blocks written plus
  /// the journal.
  [[nodiscard]] double stored_bytes() const {
    return static_cast<double>(disk->stats().bytes_written + journal_bytes());
  }

  [[nodiscard]] double disk_image_bytes() const {
    return static_cast<double>(disk->block_count() * kBlockBytes);
  }

  common::SimClock clock;
  scpu::ScpuDevice device;
  core::Firmware firmware;
  std::unique_ptr<storage::MemBlockDevice> disk;
  TimedDevice timed;
  storage::RecordStore records;
  std::string journal_path;
  std::string socket_path;
  core::WormStore store;
  core::TrustAnchors anchors;
  double user_bytes_written = 0;
  server::AuthRegistry auth;
  std::unique_ptr<server::WormServer> server;
};

/// Writes kPreload 4 KiB records through WormStore::write_batch; SNs must
/// come back as 1..kPreload.
void preload(Deployment& d, std::uint64_t seed) {
  for (core::Sn first = 1; first <= kPreload; first += kPreloadChunk) {
    std::vector<core::WriteRequest> reqs;
    for (core::Sn sn = first; sn < first + kPreloadChunk; ++sn) {
      reqs.push_back(record(preload_payload(seed, sn)));
    }
    std::vector<core::Sn> sns = d.store.write_batch(reqs);
    for (std::size_t i = 0; i < sns.size(); ++i) {
      if (sns[i] != first + i) {
        throw std::runtime_error("preload: SN " + std::to_string(sns[i]) +
                                 " where " + std::to_string(first + i) +
                                 " was expected");
      }
    }
    d.user_bytes_written += static_cast<double>(reqs.size() * kPreloadBytes);
  }
}

// ---------------------------------------------------------------------------
// Client-side bookkeeping

/// What one client thread saw in one phase.
struct Tally {
  std::uint64_t attempted = 0;  // SNs requested + writes issued
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;   // SNs verified kAuthentic
  std::uint64_t writes = 0;  // writes acknowledged
  std::uint64_t busy = 0;    // kBusy answers retried
  double read_bytes = 0;     // user payload bytes in verified reads
  double write_bytes = 0;    // user payload bytes acknowledged
  std::vector<double> read_us;   // one read call, verification included
  std::vector<double> write_us;  // one write, call to ack, retries included
  std::vector<double> call_us;      // both kinds, in completion order
  std::vector<double> call_end_us;  // when each of those calls returned
  // Traced phases only.
  std::vector<double> client_read_us;   // WormClient read/read_many call
  std::vector<double> client_write_us;  // WormClient write call
  std::vector<double> verify_us;        // ClientVerifier::verify_read per SN
  std::uint64_t memo_hits = 0, memo_misses = 0;
  std::vector<core::Sn> acked;  // SNs of acknowledged writes
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    reads += o.reads;
    writes += o.writes;
    busy += o.busy;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(read_us, o.read_us);
    cat(write_us, o.write_us);
    cat(call_us, o.call_us);
    cat(call_end_us, o.call_end_us);
    cat(client_read_us, o.client_read_us);
    cat(client_write_us, o.client_write_us);
    cat(verify_us, o.verify_us);
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    acked.insert(acked.end(), o.acked.begin(), o.acked.end());
    if (first_error.empty()) first_error = o.first_error;
  }

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }

  /// Records one read or write call that started at `t0`.
  void call(std::vector<double>& kind, double t0) {
    double t = now_us();
    kind.push_back(t - t0);
    call_us.push_back(t - t0);
    call_end_us.push_back(t);
  }
};

/// Verifies one read answer; only kAuthentic counts as a verified read.
bool verify(core::ClientVerifier& verifier, core::Sn sn,
            const core::ReadOutcome& out, Tally& t, bool traced) {
  core::SigMemoStats m0{};
  double t0 = 0;
  if (traced) {
    m0 = verifier.memo_stats();
    t0 = now_us();
  }
  core::Outcome v = verifier.verify_read(sn, out);
  if (traced) {
    t.verify_us.push_back(now_us() - t0);
    core::SigMemoStats m1 = verifier.memo_stats();
    t.memo_hits += m1.hits - m0.hits;
    t.memo_misses += m1.misses - m0.misses;
  }
  if (v.verdict != core::Verdict::kAuthentic) {
    t.fail("SN " + std::to_string(sn) + ": " + core::to_string(v.verdict) +
           " " + v.detail);
    return false;
  }
  ++t.reads;
  for (const auto& p : out.get<core::ReadOk>().payloads) {
    t.read_bytes += static_cast<double>(p.size());
  }
  return true;
}

/// One write to acknowledgement; kBusy answers are retried. Returns the SN,
/// or kInvalidSn after recording a failure.
core::Sn acked_write(server::WormClient& client, const core::WriteRequest& req,
                     Tally& t, bool traced) {
  ++t.attempted;
  double t0 = now_us();
  server::WriteResult w;
  for (;;) {
    double c0 = now_us();
    w = client.write(req);
    if (traced) t.client_write_us.push_back(now_us() - c0);
    if (!w.busy()) break;
    ++t.busy;
  }
  if (!w.ok()) {
    t.fail(std::string("write: ") + core::to_string(w.status) + " " +
           w.message);
    return core::kInvalidSn;
  }
  t.call(t.write_us, t0);
  ++t.writes;
  for (const auto& p : req.payloads) {
    t.write_bytes += static_cast<double>(p.size());
  }
  t.acked.push_back(w.sn);
  return w.sn;
}

/// Counts acknowledged SNs that were handed out twice.
std::uint64_t duplicate_sns(std::vector<core::Sn> sns) {
  std::sort(sns.begin(), sns.end());
  std::uint64_t dups = 0;
  for (std::size_t i = 1; i < sns.size(); ++i) dups += sns[i] == sns[i - 1];
  return dups;
}

// ---------------------------------------------------------------------------
// Layer counters read from outside

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  server::WormServer::StatsSnapshot server;
  storage::DeviceStats disk;
  std::uint64_t journal_bytes = 0;
};

Snapshot snapshot(const Deployment& d) {
  Snapshot s;
  for (const auto& [k, v] : d.store.counters()) s.counters[std::string(k)] = v;
  if (d.server) s.server = d.server->stats();
  s.disk = d.disk->stats();
  s.journal_bytes = d.journal_bytes();
  return s;
}

/// Counter movement between two snapshots, summed over windows.
struct Delta {
  std::map<std::string, double> c;
  double busy = 0, batch_frames = 0, batch_sns = 0;
  double disk_read = 0, journal = 0;

  void add(const Snapshot& a, const Snapshot& b) {
    for (const auto& [k, v] : b.counters) {
      c[k] += static_cast<double>(v - a.counters.at(k));
    }
    busy += static_cast<double>(b.server.busy - a.server.busy);
    batch_frames += static_cast<double>(b.server.read_batch_frames -
                                        a.server.read_batch_frames);
    batch_sns += static_cast<double>(b.server.read_batch_sns -
                                     a.server.read_batch_sns);
    disk_read += static_cast<double>(b.disk.bytes_read - a.disk.bytes_read);
    journal += static_cast<double>(b.journal_bytes - a.journal_bytes);
  }
  [[nodiscard]] double at(const std::string& k) const {
    auto it = c.find(k);
    return it == c.end() ? 0 : it->second;
  }
};

// ---------------------------------------------------------------------------
// Closed-loop clients

/// Steering shared by the client threads of a time-bounded workload.
struct Control {
  std::atomic<int> phase{0};  // index into each client's tallies
  std::atomic<bool> traced{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done{0};  // user ops completed
};

enum Phase { kWarmup = 0, kUntraced = 1, kTraced = 2, kPhases = 3 };

/// audit: read_many of 64 uniform SNs, every slot verified.
struct AuditClient {
  AuditClient(const Deployment& d, std::uint64_t seed)
      : verifier(d.anchors, d.clock), rng(seed), sns(kAuditBatch) {}

  void pick() {
    for (auto& sn : sns) sn = 1 + rng.below(kPreload);
  }

  std::uint64_t step(server::WormClient& client, Tally& t, bool traced) {
    pick();
    t.attempted += sns.size();
    double t0 = now_us();
    std::vector<server::BatchReadResult> got = client.read_many(sns);
    if (traced) t.client_read_us.push_back(now_us() - t0);
    if (got.size() != sns.size()) {
      t.fail("read_many: " + std::to_string(got.size()) + " slots for " +
             std::to_string(sns.size()) + " SNs");
      t.failed += sns.size() - 1;
      return 0;
    }
    std::uint64_t good = 0;
    for (std::size_t i = 0; i < sns.size(); ++i) {
      if (!got[i].is_read()) {
        t.fail("read_many slot: " + std::string(core::to_string(got[i].status)) +
               " " + got[i].message);
      } else if (verify(verifier, sns[i], got[i].outcome, t, traced)) {
        ++good;
      }
    }
    t.call(t.read_us, t0);
    return good;
  }

  /// The same read in process, without the wire or verification.
  double probe_us(core::WormSession& session) {
    pick();
    double t0 = now_us();
    (void)session.read_many(sns);
    return now_us() - t0;
  }

  core::ClientVerifier verifier;
  Rng rng;
  std::vector<core::Sn> sns;
};

/// lookup: 90 % single-SN read + verify (80 % on the hot set), 10 % writes.
struct LookupClient {
  LookupClient(const Deployment& d, std::uint64_t seed,
               const std::vector<core::Sn>& hot)
      : verifier(d.anchors, d.clock), rng(seed), hot(hot) {}

  std::uint64_t step(server::WormClient& client, Tally& t, bool traced) {
    if (rng.below(10) == 0) {
      core::WriteRequest req = record(rng.bytes(kPreloadBytes));
      core::Sn sn = acked_write(client, req, t, traced);
      if (sn != core::kInvalidSn && sn <= kPreload) {
        t.fail("write acknowledged with preloaded SN " + std::to_string(sn));
        return 0;
      }
      return sn != core::kInvalidSn ? 1 : 0;
    }
    core::Sn sn = pick();
    ++t.attempted;
    double t0 = now_us();
    core::ReadOutcome out = client.read(sn);
    if (traced) t.client_read_us.push_back(now_us() - t0);
    bool ok = verify(verifier, sn, out, t, traced);
    t.call(t.read_us, t0);
    return ok ? 1 : 0;
  }

  core::Sn pick() {
    return rng.below(10) < 8 ? hot[rng.below(hot.size())]
                             : 1 + rng.below(kPreload);
  }

  /// The same read in process, without the wire or verification.
  double probe_us(core::WormSession& session) {
    core::Sn sn = pick();
    double t0 = now_us();
    (void)session.read(sn);
    return now_us() - t0;
  }

  core::ClientVerifier verifier;
  Rng rng;
  const std::vector<core::Sn>& hot;
};

/// Runs `n` closed-loop client threads until ctl.stop; each owns one
/// connection and one per-phase Tally. An exception counts as one failed
/// operation and the client reconnects.
template <class Client, class Make>
class ClientPool {
 public:
  ClientPool(const Deployment& d, Control& ctl, std::size_t n, Make make)
      : tallies_(n), ready_(static_cast<std::ptrdiff_t>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([&d, &ctl, this, i, make] {
        Tally* t = &tallies_[i][kWarmup];
        bool counted = false;
        try {
          Client c = make(d, i);
          auto client = d.connect();
          ready_.count_down();
          counted = true;
          while (!ctl.stop.load()) {
            t = &tallies_[i][ctl.phase.load()];
            try {
              ctl.done += c.step(*client, *t, ctl.traced.load());
            } catch (const std::exception& e) {
              t->fail(std::string("client: ") + e.what());
              client = d.connect();
            }
          }
        } catch (const std::exception& e) {
          t->fail(std::string("client lost: ") + e.what());
          if (!counted) ready_.count_down();
        }
      });
    }
    ready_.wait();
  }

  ~ClientPool() { join(); }
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  void join() {
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

  /// Merged tallies of one phase; call after join().
  [[nodiscard]] Tally phase(int p) const {
    Tally all;
    for (const auto& t : tallies_) all.merge(t[p]);
    return all;
  }

 private:
  std::vector<std::array<Tally, kPhases>> tallies_;
  std::latch ready_;
  std::vector<std::thread> threads_;
};

/// Wall time, CPU time and the median per-slice rate of one phase.
struct Window {
  double start_us = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  double ops_s = 0;  // median over kSliceS slices
  Snapshot before, after;
};

Window run_window(Deployment& d, Control& ctl, Phase phase, bool traced,
                  double seconds) {
  Window w;
  ctl.traced = traced;
  d.timed.timing = traced;
  w.before = snapshot(d);
  ctl.phase = phase;
  double t0 = now_us();
  double c0 = cpu_s();
  w.start_us = t0;
  std::uint64_t done0 = ctl.done.load();
  std::vector<double> rates;
  auto slices = static_cast<int>(std::max(1.0, std::round(seconds / kSliceS)));
  double slice_start = t0;
  std::uint64_t slice_done = done0;
  for (int i = 1; i <= slices; ++i) {
    double due = t0 + seconds * 1e6 * i / slices;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(due - now_us()));
    double t = now_us();
    std::uint64_t done = ctl.done.load();
    rates.push_back(static_cast<double>(done - slice_done) /
                    ((t - slice_start) / 1e6));
    slice_start = t;
    slice_done = done;
  }
  w.elapsed_s = (now_us() - t0) / 1e6;
  w.cpu_s = cpu_s() - c0;
  w.ops_s = percentile(rates, 50);
  w.after = snapshot(d);
  d.timed.timing = false;
  return w;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void count(const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
    if (first_error.empty()) first_error = t.first_error;
  }
  void fail(std::uint64_t n, const std::string& what) {
    failed += n;
    if (n > 0 && first_error.empty()) first_error = what;
  }
};

/// End-to-end metrics common to every workload. `calls` holds the measured
/// call latencies split into windows.
void add_end_to_end(Report& r, const Tally& t,
                    const std::vector<std::vector<double>>& calls,
                    double ops_s, double cpu, double setup_s,
                    double disk_image, double stored, double user_written) {
  r.add("setup_s", setup_s, "s");
  r.add("ops_s", ops_s, "1/s");
  // No tail percentile here: with four busy threads on four shared vCPUs a
  // window's p95 or p99 follows the host's scheduling more than the system.
  // The split lines print the p99s.
  r.add("call_p50_us", windowed(calls, 50), "us");
  r.add("cpu_us_per_op", ratio(cpu * 1e6, static_cast<double>(t.ops())), "us");
  r.add("peak_host_rss_mb", (peak_rss_bytes() - disk_image) / 1048576.0, "MiB");
  r.add("stored_bytes_per_user_byte", ratio(stored, user_written), "B/B");
}

/// The issue's read/write split, printed for people; a metric that does not
/// apply to a workload reads "n/a".
void print_split(const Tally& t, double elapsed_s) {
  auto line = [](const char* name, bool applies, double v, const char* unit) {
    if (applies) {
      std::printf("split %-18s %14.4f %-6s clock: wall\n", name, v, unit);
    } else {
      std::printf("split %-18s %14s %-6s clock: wall\n", name, "n/a", unit);
    }
  };
  bool rd = !t.read_us.empty();
  bool wr = !t.write_us.empty();
  line("read_ops_s", rd, static_cast<double>(t.reads) / elapsed_s, "1/s");
  line("read_p50_us", rd, percentile(t.read_us, 50), "us");
  line("read_p99_us", rd, percentile(t.read_us, 99), "us");
  line("write_ops_s", wr, static_cast<double>(t.writes) / elapsed_s, "1/s");
  line("write_p50_us", wr, percentile(t.write_us, 50), "us");
  line("write_p99_us", wr, percentile(t.write_us, 99), "us");
  std::printf("split %-18s %14zu %-6s\n", "read_samples", t.read_us.size(),
              "count");
  std::printf("split %-18s %14zu %-6s\n", "write_samples", t.write_us.size(),
              "count");
}

/// Inputs to the per-layer metrics of a traced run.
struct Layers {
  Tally traced;              // client tallies of the traced window(s)
  Delta write_window;        // counters over the window the writes ran in
  Delta read_window;         // counters over the window the reads ran in
  std::vector<double> store_read_us;  // in-process session calls
  std::vector<double> block_read_us;  // TimedDevice
  double stored_written = 0, user_written = 0;
  double untraced_ops_s = 0, traced_ops_s = 0;
};

void add_per_layer(Report& r, const Layers& l, double commit_us) {
  const Tally& t = l.traced;
  double writes = static_cast<double>(t.writes);
  double client_p50 = percentile(t.client_read_us, 50);
  double store_p50 = percentile(l.store_read_us, 50);
  r.add("client.read_call_us.p50", client_p50, "us");
  r.add("client.read_call_us.p99", percentile(t.client_read_us, 99), "us");
  r.add("client.write_call_us.p50", percentile(t.client_write_us, 50), "us");
  r.add("client.write_call_us.p99", percentile(t.client_write_us, 99), "us");
  r.add("server.wire_overhead_us.p50",
        t.client_read_us.empty() || l.store_read_us.empty()
            ? 0
            : client_p50 - store_p50,
        "us");
  r.add("server.read_batch_fill",
        ratio(l.read_window.batch_sns, l.read_window.batch_frames),
        "SN/frame");
  r.add("server.busy_per_write", ratio(l.write_window.busy, writes), "ratio");
  r.add("store.read_call_us.p50", store_p50, "us");
  r.add("store.read_call_us.p99", percentile(l.store_read_us, 99), "us");
  r.add("store.read_cache_hit_ratio",
        ratio(l.read_window.at("read_cache.hits"),
              l.read_window.at("store.reads")),
        "ratio");
  r.add("store.reads_unavailable", l.read_window.at("store.reads_unavailable"),
        "count");
  r.add("pipeline.batch_fill_avg",
        ratio(l.write_window.at("write_pipeline.queued"),
              l.write_window.at("write_pipeline.batches")),
        "writes/group");
  r.add("pipeline.backpressure_stalls",
        l.write_window.at("write_pipeline.backpressure_stalls"), "count");
  r.add("pipeline.busy_rejected",
        l.write_window.at("write_pipeline.busy_rejected"), "count");
  r.add("journal.bytes_per_write", ratio(l.write_window.journal, writes),
        "B/write");
  r.add("mailbox.crossings_per_write",
        ratio(l.write_window.at("mailbox.crossings"), writes), "ratio");
  r.add("mailbox.bytes_crossed_per_write",
        ratio(l.write_window.at("mailbox.bytes_crossed"), writes), "B/write");
  r.add("mailbox.retries", l.write_window.at("mailbox.retries"), "count");
  r.add("scpu.commit_us_per_record", commit_us, "us");
  r.add("storage.read_block_us.p50", percentile(l.block_read_us, 50), "us");
  r.add("storage.bytes_read_per_user_byte",
        ratio(l.read_window.disk_read, t.read_bytes), "B/B");
  r.add("storage.bytes_written_per_user_byte",
        ratio(l.stored_written, l.user_written), "B/B");
  r.add("verifier.verify_us.p50", percentile(t.verify_us, 50), "us");
  r.add("verifier.verify_us.p99", percentile(t.verify_us, 99), "us");
  r.add("verifier.memo_hit_ratio",
        ratio(static_cast<double>(t.memo_hits),
              static_cast<double>(t.memo_hits + t.memo_misses)),
        "ratio");
  r.add("trace.overhead_frac",
        l.untraced_ops_s > 0 ? 1.0 - l.traced_ops_s / l.untraced_ops_s : 0,
        "ratio");
}

/// scpu.commit_us_per_record: WormStore::write_batch of 64 ingest-mix records
/// on a side deployment, median of several calls.
double commit_us_per_record(const fs::path& dir, std::uint64_t seed) {
  Deployment side(dir, 999, platters(kIngestBlocks));
  Rng rng = stream(seed, 77);
  std::vector<double> per_call;
  for (int rep = 0; rep < 9; ++rep) {
    std::vector<core::WriteRequest> reqs;
    for (std::size_t i = 0; i < kCommitBatch; ++i) {
      reqs.push_back(record(rng.bytes(ingest_size(rng))));
    }
    double t0 = now_us();
    (void)side.store.write_batch(reqs);
    if (rep > 0) per_call.push_back(now_us() - t0);  // rep 0 warms up
  }
  return percentile(per_call, 50) / kCommitBatch;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir = ".";
  double response_bitflip = 0;
};

// ---------------------------------------------------------------------------
// Workloads

/// audit and lookup: kSetups preloaded deployments (the last one serves),
/// then a warm-up and a time-bounded measurement.
template <class Client, class Make>
void run_preloaded(const Options& o, common::FaultInjector* fault, Make make,
                   Report& r) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    auto disk = platters(kPreloadBlocks);
    double t0 = now_us();
    d = std::make_unique<Deployment>(o.workdir, i, std::move(disk));
    preload(*d, o.seed);
    d->serve(fault);
    setups.push_back((now_us() - t0) / 1e6);
    std::printf("setup %d %.4f s\n", i, setups.back());
  }

  Control ctl;
  auto pool = std::make_unique<ClientPool<Client, Make>>(*d, ctl, kReaders,
                                                         make);
  (void)run_window(*d, ctl, kWarmup, false, kWarmupS);
  Window a = run_window(*d, ctl, kUntraced, false,
                        o.trace ? o.seconds / 2 : o.seconds);
  std::optional<Window> b;
  if (o.trace) b = run_window(*d, ctl, kTraced, true, o.seconds / 2);
  ctl.stop = true;
  pool->join();

  Tally measured = pool->phase(kUntraced);
  std::vector<core::Sn> acked;
  for (int p = 0; p < kPhases; ++p) {
    Tally t = pool->phase(p);
    r.count(t);
    d->user_bytes_written += t.write_bytes;
    acked.insert(acked.end(), t.acked.begin(), t.acked.end());
  }
  r.fail(duplicate_sns(acked), "an SN was acknowledged twice");

  // Latency windows of kLatencyWindowS, each with hundreds of calls.
  auto n_windows = static_cast<std::size_t>(
      std::max(1.0, std::round(a.elapsed_s / kLatencyWindowS)));
  std::vector<std::vector<double>> windows(n_windows);
  for (std::size_t i = 0; i < measured.call_us.size(); ++i) {
    double at = (measured.call_end_us[i] - a.start_us) / 1e6 / a.elapsed_s;
    auto k = static_cast<std::size_t>(std::clamp(at, 0.0, 1.0) *
                                      static_cast<double>(n_windows));
    windows[std::min(k, n_windows - 1)].push_back(measured.call_us[i]);
  }
  add_end_to_end(r, measured, windows, a.ops_s, a.cpu_s,
                 percentile(setups, 50), d->disk_image_bytes(),
                 d->stored_bytes(), d->user_bytes_written);
  print_split(measured, a.elapsed_s);

  if (o.trace) {
    Layers l;
    l.traced = pool->phase(kTraced);
    l.write_window.add(b->before, b->after);
    l.read_window.add(b->before, b->after);
    l.block_read_us = d->timed.take_read_us();
    l.stored_written = static_cast<double>(d->disk->stats().bytes_written);
    l.user_written = d->user_bytes_written;
    l.untraced_ops_s = a.ops_s;
    l.traced_ops_s = b->ops_s;
    // In-process session calls of the same shape from as many threads: what
    // a read costs without the wire.
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> us(kReaders);
    std::vector<std::thread> probes;
    for (std::size_t i = 0; i < kReaders; ++i) {
      probes.emplace_back([&, i] {
        core::WormSession session(d->store, "probe", d->clock);
        Client c = make(*d, i + kReaders);
        while (!stop.load()) us[i].push_back(c.probe_us(session));
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(o.seconds / 4, 0.5, 2.0)));
    stop = true;
    for (auto& th : probes) th.join();
    for (const auto& v : us) {
      l.store_read_us.insert(l.store_read_us.end(), v.begin(), v.end());
    }
    pool.reset();
    d.reset();
    add_per_layer(r, l, commit_us_per_record(o.workdir, o.seed));
  }
}

/// One ingest round: fresh deployment, kWriters connections writing
/// kRoundWrites seeded payloads, then a seeded read-back through a fresh
/// client and verifier whose payload bytes must match.
struct Round {
  double setup_s = 0, elapsed_s = 0, cpu_s = 0;
  double stored = 0, user_written = 0, disk_image = 0;
  Tally writes;    // the write phase
  Tally readback;  // the read-back (timed in traced rounds)
  Snapshot w0, w1, r0, r1;
  std::vector<double> store_read_us, block_read_us;
};

Round ingest_round(const Options& o, common::FaultInjector* fault, int id,
                   bool traced) {
  Round rd;
  // Inputs first: payload generation is not the system's work.
  std::vector<std::vector<common::Bytes>> payloads(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    Rng rng = stream(o.seed, 100 + static_cast<std::uint64_t>(id) * 16 + w);
    for (std::size_t i = 0; i < kRoundWrites / kWriters; ++i) {
      payloads[w].push_back(rng.bytes(ingest_size(rng)));
    }
  }

  auto disk = platters(kIngestBlocks);
  double s0 = now_us();
  Deployment d(o.workdir, id, std::move(disk));
  d.serve(fault);
  std::vector<std::unique_ptr<server::WormClient>> clients;
  for (std::size_t w = 0; w < kWriters; ++w) clients.push_back(d.connect());
  rd.setup_s = (now_us() - s0) / 1e6;

  std::vector<Tally> tallies(kWriters);
  // sns[w][i]: the SN acknowledged for payloads[w][i], or kInvalidSn.
  std::vector<std::vector<core::Sn>> sns(kWriters);
  std::latch start(static_cast<std::ptrdiff_t>(kWriters) + 1);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      for (auto& p : payloads[w]) {
        core::WriteRequest req = record(std::move(p));
        core::Sn sn = core::kInvalidSn;
        try {
          sn = acked_write(*clients[w], req, tallies[w], traced);
        } catch (const std::exception& e) {
          tallies[w].fail(std::string("write: ") + e.what());
          try {
            clients[w] = d.connect();
          } catch (const std::exception& e2) {
            tallies[w].fail(std::string("reconnect: ") + e2.what());
            break;
          }
        }
        sns[w].push_back(sn);
        p = std::move(req.payloads[0]);
      }
    });
  }
  rd.w0 = snapshot(d);
  double c0 = cpu_s();
  double t0 = now_us();
  start.arrive_and_wait();
  for (auto& th : threads) th.join();
  rd.elapsed_s = (now_us() - t0) / 1e6;
  rd.cpu_s = cpu_s() - c0;
  rd.w1 = snapshot(d);
  for (const auto& t : tallies) rd.writes.merge(t);
  rd.writes.failed += duplicate_sns(rd.writes.acked);

  // Seeded read-back: a fresh client and verifier, payload bytes compared.
  std::vector<std::pair<core::Sn, const common::Bytes*>> sent;
  for (std::size_t w = 0; w < kWriters; ++w) {
    for (std::size_t i = 0; i < sns[w].size(); ++i) {
      if (sns[w][i] != core::kInvalidSn) {
        sent.emplace_back(sns[w][i], &payloads[w][i]);
      }
    }
  }
  Rng pick = stream(o.seed, 200 + static_cast<std::uint64_t>(id));
  for (std::size_t i = 0; i < sent.size(); ++i) {
    std::swap(sent[i], sent[i + pick.below(sent.size() - i)]);
  }
  std::size_t n = std::min(kReadbackSample, sent.size() / 2);
  if (traced) {
    // The in-process probe takes a disjoint sample, so both see cold SNs.
    core::WormSession session(d.store, "probe", d.clock);
    for (std::size_t i = n; i < 2 * n; ++i) {
      double t = now_us();
      (void)session.read(sent[i].first);
      rd.store_read_us.push_back(now_us() - t);
    }
  }
  core::ClientVerifier verifier(d.anchors, d.clock);
  Tally& t = rd.readback;
  rd.r0 = snapshot(d);
  d.timed.timing = traced;
  try {
    auto client = d.connect();
    for (std::size_t i = 0; i < n; ++i) {
      auto [sn, payload] = sent[i];
      ++t.attempted;
      double t1 = now_us();
      core::ReadOutcome out = client->read(sn);
      if (traced) t.client_read_us.push_back(now_us() - t1);
      if (!verify(verifier, sn, out, t, traced)) continue;
      const auto& got = out.get<core::ReadOk>().payloads;
      if (got.size() != 1 || got[0] != *payload) {
        t.fail("read-back of SN " + std::to_string(sn) +
               " returned other bytes than were written");
      }
    }
  } catch (const std::exception& e) {
    t.fail(std::string("read-back: ") + e.what());
  }
  d.timed.timing = false;
  rd.r1 = snapshot(d);
  rd.block_read_us = d.timed.take_read_us();
  rd.user_written = rd.writes.write_bytes;
  rd.stored = d.stored_bytes();
  rd.disk_image = d.disk_image_bytes();
  return rd;
}

/// ingest: rounds until the measured write time reaches --seconds (round 0
/// warms up and is not measured). Traced runs alternate untraced and traced
/// rounds.
void run_ingest(const Options& o, common::FaultInjector* fault, Report& r) {
  std::vector<double> setups, untraced_rates, traced_rates, stored;
  std::vector<std::vector<double>> windows;  // one per measured round
  Tally measured;
  Layers l;
  double measured_s = 0, untraced_s = 0, cpu = 0, disk_image = 0;
  int untraced_rounds = 0, traced_rounds = 0;
  for (int id = 0;; ++id) {
    bool traced = o.trace && id % 2 == 0 && id > 0;
    Round rd = ingest_round(o, fault, id, traced);
    r.count(rd.writes);
    r.count(rd.readback);
    disk_image = std::max(disk_image, rd.disk_image);
    double rate = static_cast<double>(rd.writes.writes) / rd.elapsed_s;
    std::printf("round %d%s setup_s %.4f writes_s %.1f cpu_s %.3f\n", id,
                traced ? " traced" : "", rd.setup_s, rate, rd.cpu_s);
    if (id == 0) continue;
    setups.push_back(rd.setup_s);
    measured_s += rd.elapsed_s;
    stored.push_back(ratio(rd.stored, rd.user_written));
    if (traced) {
      ++traced_rounds;
      traced_rates.push_back(rate);
      l.traced.merge(rd.writes);
      l.traced.merge(rd.readback);
      l.write_window.add(rd.w0, rd.w1);
      l.read_window.add(rd.r0, rd.r1);
      l.store_read_us.insert(l.store_read_us.end(), rd.store_read_us.begin(),
                             rd.store_read_us.end());
      l.block_read_us.insert(l.block_read_us.end(), rd.block_read_us.begin(),
                             rd.block_read_us.end());
      l.stored_written += static_cast<double>(rd.w1.disk.bytes_written);
      l.user_written += rd.user_written;
    } else {
      ++untraced_rounds;
      untraced_rates.push_back(rate);
      windows.push_back(rd.writes.call_us);
      measured.merge(rd.writes);
      untraced_s += rd.elapsed_s;
      cpu += rd.cpu_s;
    }
    bool enough = untraced_rounds >= 2 && (!o.trace || traced_rounds >= 2);
    if (enough && measured_s >= o.seconds) break;
  }
  // A round's set-up is bimodal (client hellos land on one side or the other
  // of a 1 ms poll timeout), so its median would flip between the modes; the
  // mean over rounds does not.
  double setup_mean = 0;
  for (double v : setups) setup_mean += v / static_cast<double>(setups.size());
  add_end_to_end(r, measured, windows, percentile(untraced_rates, 50), cpu,
                 setup_mean, disk_image, percentile(stored, 50), 1.0);
  print_split(measured, untraced_s);
  if (o.trace) {
    l.untraced_ops_s = percentile(untraced_rates, 50);
    l.traced_ops_s = percentile(traced_rates, 50);
    add_per_layer(r, l, commit_us_per_record(o.workdir, o.seed));
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload ingest|audit|lookup --seed N "
               "--seconds S --trace 0|1 --workdir DIR "
               "[--response-bitflip P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      o.seconds = std::stod(v);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--workdir") {
      o.workdir = v;
    } else if (k == "--response-bitflip") {
      o.response_bitflip = std::stod(v);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || o.seconds <= 0 ||
      (o.workload != "ingest" && o.workload != "audit" &&
       o.workload != "lookup")) {
    return usage();
  }
  std::printf("workload: %s\nseed: %llu\nseconds: %g\ntrace: %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  std::optional<common::FaultInjector> fault;
  if (o.response_bitflip > 0) {
    fault.emplace(o.seed);
    common::FaultSpec spec;
    spec.kind = common::FaultKind::kBitFlip;
    spec.probability = o.response_bitflip;
    fault->arm("server.response", spec);
  }
  common::FaultInjector* f = fault ? &*fault : nullptr;

  Report r;
  try {
    if (o.workload == "ingest") {
      run_ingest(o, f, r);
    } else if (o.workload == "audit") {
      auto make = [&o](const Deployment& d, std::size_t i) {
        return AuditClient(d, stream(o.seed, 10 + i).next());
      };
      run_preloaded<AuditClient>(o, f, make, r);
    } else {
      // The hot set: 1,024 distinct preloaded SNs chosen by the seed.
      std::vector<core::Sn> all(kPreload);
      for (core::Sn sn = 1; sn <= kPreload; ++sn) all[sn - 1] = sn;
      Rng pick = stream(o.seed, 3);
      for (std::size_t i = 0; i < kHotSet; ++i) {
        std::swap(all[i], all[i + pick.below(all.size() - i)]);
      }
      std::vector<core::Sn> hot(all.begin(), all.begin() + kHotSet);
      auto make = [&o, &hot](const Deployment& d, std::size_t i) {
        return LookupClient(d, stream(o.seed, 10 + i).next(), hot);
      };
      run_preloaded<LookupClient>(o, f, make, r);
    }
  } catch (const std::exception& e) {
    r.fail(1, std::string("run aborted: ") + e.what());
  }

  bool correct = r.failed == 0 && r.attempted > 0;
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %16.6f %-12s clock: wall\n", m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("error_frac %.9g (%llu failed of %llu attempted)%s%s\n",
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              r.first_error.empty() ? "" : "; first: ",
              r.first_error.c_str());
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"error_frac\": %.9g, "
              "\"metrics\": {",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\", "
                "\"clock\": \"wall\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}, \"first_error\": \"%s\"}\n",
              json_escape(r.first_error).c_str());
  return correct ? 0 : 1;
}
