// Wall-clock microbenchmarks of the from-scratch crypto substrate on the
// build machine. These are NOT paper reproductions — the paper's numbers
// come from the calibrated cost model (bench_table2) — but they keep the
// scratch implementations honest and, unlike the old google-benchmark
// harness, they emit the same BENCH_*.json rows as the system benches AND
// enforce the fast-path speedup gates with their exit code:
//
//   * SHA-256 dispatched backend vs the portable reference — >= 2.0x on
//     hosts with the SHA extensions, else the unrolled scalar path >= 1.2x;
//   * RSA-512 and RSA-1024 signing with the windowed Montgomery kernel
//     (64-bit limbs) >= 2.0x over the binary square-and-multiply ladder
//     (32-bit limbs). RSA-512 is the SCPU's short-key witness size;
//   * CRC-32C dispatched (the SSE4.2 instruction) >= 4.0x the table-driven
//     portable loop at 4 KiB, one record block, on hosts with SSE4.2;
//   * a 512-bit mod_exp with a full-length exponent on the MULX/ADX
//     Montgomery product >= 1.5x the same ladder on the portable product,
//     on hosts with BMI2 and ADX.
//
// Every row is the median of kRounds windows, and the windows run
// round-robin across the rows: a slow minute on a shared host lands in one
// window of every row instead of in every window of a few rows, so neither
// a row's median nor a ratio between rows follows it.
//
// The rsa<bits>_verify_prepared rows verify through one PreparedRsaKey, as
// ClientVerifier does; the rsa<bits>_verify rows prepare the key per call.
// The modexp<bits>_{windowed,portable,binary} rows are ModExpStrategy's
// three kernels: windowed runs the dispatched product (MULX/ADX where the
// host has it), portable the same ladder on the portable product. The
// modexp512_e65537 rows take the public exponent, the verify shape.
//
// CI runs this as the bench-smoke speedup gate; a regression that drops a
// fast path below its floor fails the build instead of shipping silently.
// Pass --no-gate to measure without enforcing (e.g. on loaded machines).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/crc32c.hpp"
#include "crypto/biguint.hpp"
#include "crypto/chained_hash.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "scpu/key_cache.hpp"

namespace {

using namespace worm;
using common::Bytes;

constexpr int kRounds = 7;
constexpr double kWindowSeconds = 0.07;

// Defeats dead-code elimination without a benchmark framework.
volatile std::uint32_t g_sink = 0;

/// One BENCH row: `run` is one operation. Each window starts from the
/// dispatched SHA-256 backend and the windowed mod_exp strategy, then
/// applies `pin` (when set) to select the kernel the row measures.
struct Row {
  Row(std::string name, std::function<void()> fn,
      std::function<void()> pin_to = nullptr)
      : op(std::move(name)), run(std::move(fn)), pin(std::move(pin_to)) {}

  std::string op;
  std::function<void()> run;
  std::function<void()> pin;
  std::vector<double> windows;  // ops/s
};

/// Ops/sec over one window of at least kWindowSeconds and 4 calls.
double window_ops_per_sec(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::size_t iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < kWindowSeconds || iters < 4);
  return static_cast<double>(iters) / elapsed;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void unpin() {
  crypto::Sha256::force_backend(crypto::Sha256Backend::kAuto);
  crypto::set_mod_exp_strategy(crypto::ModExpStrategy::kWindowed);
}

/// One warm-up call per row (which also resolves first-use backend
/// dispatch), then kRounds passes of one window per row.
void measure(std::vector<Row>& rows) {
  for (Row& r : rows) {
    unpin();
    if (r.pin) r.pin();
    r.run();
  }
  for (int round = 0; round < kRounds; ++round) {
    for (Row& r : rows) {
      unpin();
      if (r.pin) r.pin();
      r.windows.push_back(window_ops_per_sec(r.run));
    }
  }
  unpin();
}

const char* backend_name(crypto::Sha256Backend b) {
  switch (b) {
    case crypto::Sha256Backend::kShaNi: return "shani";
    case crypto::Sha256Backend::kScalar: return "scalar";
    case crypto::Sha256Backend::kPortable: return "portable";
    case crypto::Sha256Backend::kAuto: break;
  }
  return "auto";
}

std::function<void()> strategy(crypto::ModExpStrategy s) {
  return [s] { crypto::set_mod_exp_strategy(s); };
}

struct RsaCase {
  const crypto::RsaPrivateKey* key;
  crypto::RsaPublicKey pub;
  Bytes sig;
  crypto::PreparedRsaKey prepared;
};

struct ModExpCase {
  crypto::MontgomeryCtx ctx;
  crypto::BigUInt base;
  crypto::BigUInt exp;
};

struct Gate {
  std::string name;
  double value;
  double floor;
};

}  // namespace

int main(int argc, char** argv) {
  bool enforce = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-gate") == 0) enforce = false;
  }

  bench::print_header(
      "crypto wall-clock: SHA-256 backends, 4-lane hashing, CRC-32C, "
      "windowed Montgomery RSA",
      "substrate for every signature/witness cost in the repo (not a paper "
      "figure)");

  const crypto::Sha256Backend active = crypto::Sha256::active_backend();
  const bool crc_hw = common::crc32c_hardware();
  const bool adx = crypto::mont_mul_adx_supported();
  std::printf("dispatched SHA-256 backend: %s\n", backend_name(active));
  std::printf("dispatched CRC-32C kernel: %s\n", crc_hw ? "sse4.2" : "portable");
  std::printf("dispatched Montgomery product: %s\n",
              adx ? "mulx/adx (4, 8, 16, 32 limbs)" : "portable");
  std::printf("each row: median of %d windows of >= %.0f ms, round-robin\n",
              kRounds, kWindowSeconds * 1e3);

  std::vector<Row> rows;

  // --- SHA-256: each backend through the same interface ---------------------
  const Bytes small(1024, 0xab);
  const Bytes big(65536, 0xab);
  for (crypto::Sha256Backend b :
       {crypto::Sha256Backend::kAuto, crypto::Sha256Backend::kScalar,
        crypto::Sha256Backend::kPortable}) {
    const std::string name =
        b == crypto::Sha256Backend::kAuto ? backend_name(active)
                                          : backend_name(b);
    auto pin = [b] { crypto::Sha256::force_backend(b); };
    for (const Bytes* data : {&small, &big}) {
      rows.push_back({"sha256_" + name +
                          (data == &small ? "_1k" : "_64k"),
                      [data] {
                        crypto::Sha256::Digest d = crypto::Sha256::hash(*data);
                        g_sink = g_sink + d[0];
                      },
                      pin});
    }
  }

  // --- 4-lane multi-buffer hashing vs four sequential hashes ----------------
  const Bytes lanes_data[4] = {Bytes(4096, 1), Bytes(4096, 2), Bytes(4096, 3),
                               Bytes(4096, 4)};
  rows.push_back({"sha256_hash4_4x4k", [&lanes_data] {
                    common::ByteView in[4] = {lanes_data[0], lanes_data[1],
                                              lanes_data[2], lanes_data[3]};
                    crypto::Sha256::Digest out[4];
                    crypto::Sha256::hash4(in, out);
                    g_sink = g_sink + out[0][0];
                  }});
  rows.push_back({"sha256_seq4_4x4k", [&lanes_data] {
                    for (const Bytes& b : lanes_data) {
                      crypto::Sha256::Digest d = crypto::Sha256::hash(b);
                      g_sink = g_sink + d[0];
                    }
                  }});

  // --- CRC-32C: dispatched kernel vs the portable reference ----------------
  const Bytes crc_4k(4 * 1024, 0xab);
  const Bytes crc_64k(64 * 1024, 0xab);
  for (const Bytes* data : {&crc_4k, &crc_64k}) {
    const std::string suffix = data == &crc_4k ? "_4k" : "_64k";
    rows.push_back({"crc32c_dispatched" + suffix,
                    [data] { g_sink = g_sink + common::crc32c(*data); }});
    rows.push_back({"crc32c_portable" + suffix, [data] {
                      g_sink = g_sink + common::crc32c_portable(*data);
                    }});
  }

  // --- RSA sign/verify, windowed vs binary mod_exp --------------------------
  const Bytes msg = common::to_bytes("bench message for signing");
  const std::size_t rsa_bits[] = {512, 1024, 2048};
  std::deque<RsaCase> rsa;  // rows point into it; a deque never moves them
  for (std::size_t bits : rsa_bits) {
    const crypto::RsaPrivateKey& key = scpu::cached_rsa_key(0xbe7c, bits);
    rsa.push_back({&key, key.public_key(), crypto::rsa_sign(key, msg),
                   crypto::PreparedRsaKey(key.public_key())});
    const RsaCase& c = rsa.back();
    const std::string p = "rsa" + std::to_string(bits);
    auto sign = [&c, &msg] {
      Bytes s = crypto::rsa_sign(*c.key, msg);
      g_sink = g_sink + s[0];
    };
    rows.push_back({p + "_sign_windowed", sign});
    rows.push_back(
        {p + "_sign_binary", sign, strategy(crypto::ModExpStrategy::kBinary)});
    rows.push_back({p + "_verify", [&c, &msg] {
                      g_sink = g_sink +
                               (crypto::rsa_verify(c.pub, msg, c.sig) ? 1u : 0u);
                    }});
    rows.push_back({p + "_verify_prepared", [&c, &msg] {
                      g_sink = g_sink + (c.prepared.verify(msg, c.sig) ? 1u : 0u);
                    }});
  }

  // --- raw mod_exp on each ModExpStrategy kernel ----------------------------
  std::deque<ModExpCase> modexp;
  auto add_modexp = [&](const std::string& p, std::size_t bits,
                        const crypto::BigUInt* public_exp) {
    crypto::Drbg rng(7);
    crypto::BigUInt m = rng.big_with_bits(bits);
    if (m.is_even()) m = m + crypto::BigUInt(1);
    crypto::BigUInt base = rng.big_below(m);
    crypto::BigUInt exp =
        public_exp != nullptr ? *public_exp : rng.big_with_bits(bits);
    modexp.push_back(
        {crypto::MontgomeryCtx(m), std::move(base), std::move(exp)});
    const ModExpCase& c = modexp.back();
    auto run = [&c] {
      g_sink = g_sink +
               static_cast<std::uint32_t>(c.ctx.mod_exp(c.base, c.exp).low_u64());
    };
    rows.push_back({p + "_windowed", run});
    rows.push_back(
        {p + "_portable", run, strategy(crypto::ModExpStrategy::kPortable)});
    rows.push_back(
        {p + "_binary", run, strategy(crypto::ModExpStrategy::kBinary)});
  };
  const crypto::BigUInt f4(65537);
  add_modexp("modexp512", 512, nullptr);
  add_modexp("modexp1024", 1024, nullptr);
  add_modexp("modexp512_e65537", 512, &f4);

  measure(rows);

  std::map<std::string, double> ops;
  std::vector<bench::BenchRow> out;
  for (const Row& r : rows) {
    const double m = median(r.windows);
    ops[r.op] = m;
    out.push_back({r.op, 1, m, 0, 0});
  }

  // --- report ----------------------------------------------------------------
  std::printf("\n");
  for (const char* name : {backend_name(active), "scalar", "portable"}) {
    const std::string p = std::string("sha256_") + name;
    std::printf("  sha256 %-8s  %8.1f MB/s @1KiB   %8.1f MB/s @64KiB\n", name,
                ops[p + "_1k"] * 1024 / 1e6, ops[p + "_64k"] * 65536 / 1e6);
  }
  std::printf("\n  hash4 (4x4KiB)   %8.1f sets/s   sequential %8.1f "
              "sets/s   (%.2fx)\n",
              ops["sha256_hash4_4x4k"], ops["sha256_seq4_4x4k"],
              ops["sha256_hash4_4x4k"] / ops["sha256_seq4_4x4k"]);
  std::printf("\n");
  for (int kib : {4, 64}) {
    const std::string s = "_" + std::to_string(kib) + "k";
    const double bytes = kib * 1024.0;
    std::printf("  crc32c @%2dKiB  dispatched %8.1f MB/s   portable %8.1f "
                "MB/s   (%.2fx)\n",
                kib, ops["crc32c_dispatched" + s] * bytes / 1e6,
                ops["crc32c_portable" + s] * bytes / 1e6,
                ops["crc32c_dispatched" + s] / ops["crc32c_portable" + s]);
  }
  std::printf("\n");
  for (std::size_t bits : rsa_bits) {
    const std::string p = "rsa" + std::to_string(bits);
    std::printf("  rsa-%-4zu sign %8.1f/s (binary %8.1f/s, %.2fx)   verify "
                "%8.1f/s (prepared %8.1f/s)\n",
                bits, ops[p + "_sign_windowed"], ops[p + "_sign_binary"],
                ops[p + "_sign_windowed"] / ops[p + "_sign_binary"],
                ops[p + "_verify"], ops[p + "_verify_prepared"]);
  }
  std::printf("\n");
  for (const char* p : {"modexp512", "modexp1024", "modexp512_e65537"}) {
    const std::string s = p;
    std::printf("  %-17s windowed %9.1f/s   portable %9.1f/s (%.2fx)   "
                "binary %9.1f/s (%.2fx)\n",
                p, ops[s + "_windowed"], ops[s + "_portable"],
                ops[s + "_windowed"] / ops[s + "_portable"],
                ops[s + "_binary"], ops[s + "_windowed"] / ops[s + "_binary"]);
  }

  bench::write_bench_json("crypto_wallclock", out);

  // --- speedup gates --------------------------------------------------------
  std::vector<Gate> gates;
  if (active == crypto::Sha256Backend::kShaNi) {
    gates.push_back({"sha256_shani_vs_portable_64k",
                     ops["sha256_shani_64k"] / ops["sha256_portable_64k"], 2.0});
  } else {
    gates.push_back({"sha256_scalar_vs_portable_64k",
                     ops["sha256_scalar_64k"] / ops["sha256_portable_64k"],
                     1.2});
  }
  if (crc_hw) {
    gates.push_back({"crc32c_sse42_vs_portable_4k",
                     ops["crc32c_dispatched_4k"] / ops["crc32c_portable_4k"],
                     4.0});
  }
  for (const char* p : {"rsa512", "rsa1024"}) {
    const std::string s = p;
    gates.push_back({s + "_sign_windowed_vs_binary",
                     ops[s + "_sign_windowed"] / ops[s + "_sign_binary"], 2.0});
  }
  if (adx) {
    gates.push_back({"modexp512_adx_vs_portable",
                     ops["modexp512_windowed"] / ops["modexp512_portable"],
                     1.5});
  }

  bool failed = false;
  std::printf("\nspeedup gates%s:\n", enforce ? "" : " (not enforced)");
  for (const Gate& g : gates) {
    bool ok = g.value >= g.floor;
    std::printf("  [%s] %-36s %.2fx (floor %.2fx)\n", ok ? "ok" : "FAIL",
                g.name.c_str(), g.value, g.floor);
    if (!ok) failed = true;
  }
  if (enforce && failed) {
    std::fprintf(stderr, "\nbench_crypto_wallclock: speedup gate failed\n");
    return 1;
  }
  return 0;
}
