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
//     portable loop at 4 KiB, one record block, on hosts with SSE4.2.
//
// The rsa<bits>_verify_prepared rows verify through one PreparedRsaKey, as
// ClientVerifier does; the rsa<bits>_verify rows prepare the key per call.
//
// CI runs this as the bench-smoke speedup gate; a regression that drops a
// fast path below its floor fails the build instead of shipping silently.
// Pass --no-gate to measure without enforcing (e.g. on loaded machines).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
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

// Defeats dead-code elimination without a benchmark framework.
volatile std::uint32_t g_sink = 0;

/// Ops/sec over a ~250ms wall-clock window (after one warm-up call, which
/// also resolves first-use backend dispatch).
template <typename F>
double time_ops_per_sec(F&& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  auto t0 = clock::now();
  std::size_t iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.25 || iters < 4);
  return static_cast<double>(iters) / elapsed;
}

double sha_ops(crypto::Sha256Backend b, const Bytes& data) {
  crypto::Sha256::force_backend(b);
  double ops = time_ops_per_sec([&] {
    crypto::Sha256::Digest d = crypto::Sha256::hash(data);
    g_sink = g_sink + d[0];
  });
  crypto::Sha256::force_backend(crypto::Sha256Backend::kAuto);
  return ops;
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

  std::vector<bench::BenchRow> rows;
  std::vector<Gate> gates;

  crypto::Sha256Backend active = crypto::Sha256::active_backend();
  std::printf("dispatched SHA-256 backend: %s\n\n", backend_name(active));

  // --- SHA-256: each backend through the same interface ---------------------
  const Bytes small(1024, 0xab);
  const Bytes big(65536, 0xab);
  double auto_1k = 0, auto_64k = 0, portable_64k = 0, scalar_64k = 0;
  for (crypto::Sha256Backend b :
       {crypto::Sha256Backend::kAuto, crypto::Sha256Backend::kScalar,
        crypto::Sha256Backend::kPortable}) {
    double ops1k = sha_ops(b, small);
    double ops64k = sha_ops(b, big);
    const char* name =
        b == crypto::Sha256Backend::kAuto ? backend_name(active)
                                          : backend_name(b);
    std::printf("  sha256 %-8s  %8.1f MB/s @1KiB   %8.1f MB/s @64KiB\n", name,
                ops1k * 1024 / 1e6, ops64k * 65536 / 1e6);
    rows.push_back({std::string("sha256_") + name + "_1k", 1, ops1k, 0, 0});
    rows.push_back({std::string("sha256_") + name + "_64k", 1, ops64k, 0, 0});
    if (b == crypto::Sha256Backend::kAuto) {
      auto_1k = ops1k;
      auto_64k = ops64k;
    } else if (b == crypto::Sha256Backend::kPortable) {
      portable_64k = ops64k;
    } else {
      scalar_64k = ops64k;
    }
  }
  (void)auto_1k;
  if (active == crypto::Sha256Backend::kShaNi) {
    gates.push_back({"sha256_shani_vs_portable_64k", auto_64k / portable_64k,
                     2.0});
  } else {
    gates.push_back({"sha256_scalar_vs_portable_64k",
                     scalar_64k / portable_64k, 1.2});
  }

  // --- 4-lane multi-buffer hashing vs four sequential hashes ----------------
  {
    Bytes lanes_data[4] = {Bytes(4096, 1), Bytes(4096, 2), Bytes(4096, 3),
                           Bytes(4096, 4)};
    common::ByteView in[4] = {lanes_data[0], lanes_data[1], lanes_data[2],
                              lanes_data[3]};
    double four_seq = time_ops_per_sec([&] {
      for (const Bytes& b : lanes_data) {
        crypto::Sha256::Digest d = crypto::Sha256::hash(b);
        g_sink = g_sink + d[0];
      }
    });
    double four_wide = time_ops_per_sec([&] {
      crypto::Sha256::Digest out[4];
      crypto::Sha256::hash4(in, out);
      g_sink = g_sink + out[0][0];
    });
    std::printf("\n  hash4 (4x4KiB)   %8.1f sets/s   sequential %8.1f "
                "sets/s   (%.2fx)\n",
                four_wide, four_seq, four_wide / four_seq);
    rows.push_back({"sha256_hash4_4x4k", 1, four_wide, 0, 0});
    rows.push_back({"sha256_seq4_4x4k", 1, four_seq, 0, 0});
  }

  // --- CRC-32C: dispatched kernel vs the portable reference ----------------
  {
    const bool hw = common::crc32c_hardware();
    std::printf("\ndispatched CRC-32C kernel: %s\n", hw ? "sse4.2" : "portable");
    double dispatched_4k = 0, portable_4k = 0;
    for (std::size_t kib : {std::size_t{4}, std::size_t{64}}) {
      const Bytes data(kib * 1024, 0xab);
      double dispatched = time_ops_per_sec(
          [&] { g_sink = g_sink + common::crc32c(data); });
      double portable = time_ops_per_sec(
          [&] { g_sink = g_sink + common::crc32c_portable(data); });
      std::printf("  crc32c @%2zuKiB  dispatched %8.1f MB/s   portable %8.1f "
                  "MB/s   (%.2fx)\n",
                  kib, dispatched * static_cast<double>(data.size()) / 1e6,
                  portable * static_cast<double>(data.size()) / 1e6,
                  dispatched / portable);
      const std::string suffix = "_" + std::to_string(kib) + "k";
      rows.push_back({"crc32c_dispatched" + suffix, 1, dispatched, 0, 0});
      rows.push_back({"crc32c_portable" + suffix, 1, portable, 0, 0});
      if (kib == 4) {
        dispatched_4k = dispatched;
        portable_4k = portable;
      }
    }
    if (hw) {
      gates.push_back(
          {"crc32c_sse42_vs_portable_4k", dispatched_4k / portable_4k, 4.0});
    }
  }

  // --- RSA sign/verify, windowed vs binary mod_exp --------------------------
  std::printf("\n");
  const Bytes msg = common::to_bytes("bench message for signing");
  for (std::size_t bits : {std::size_t{512}, std::size_t{1024},
                           std::size_t{2048}}) {
    const crypto::RsaPrivateKey& key = scpu::cached_rsa_key(0xbe7c, bits);
    crypto::RsaPublicKey pub = key.public_key();
    Bytes sig = crypto::rsa_sign(key, msg);

    crypto::set_mod_exp_strategy(crypto::ModExpStrategy::kWindowed);
    double sign_w = time_ops_per_sec([&] {
      Bytes s = crypto::rsa_sign(key, msg);
      g_sink = g_sink + s[0];
    });
    double verify_w = time_ops_per_sec([&] {
      g_sink = g_sink + (crypto::rsa_verify(pub, msg, sig) ? 1u : 0u);
    });
    const crypto::PreparedRsaKey prepared(pub);
    double verify_p = time_ops_per_sec([&] {
      g_sink = g_sink + (prepared.verify(msg, sig) ? 1u : 0u);
    });
    crypto::set_mod_exp_strategy(crypto::ModExpStrategy::kBinary);
    double sign_b = time_ops_per_sec([&] {
      Bytes s = crypto::rsa_sign(key, msg);
      g_sink = g_sink + s[0];
    });
    crypto::set_mod_exp_strategy(crypto::ModExpStrategy::kWindowed);

    std::printf("  rsa-%-4zu sign %8.1f/s (binary %8.1f/s, %.2fx)   verify "
                "%8.1f/s (prepared %8.1f/s)\n",
                bits, sign_w, sign_b, sign_w / sign_b, verify_w, verify_p);
    std::string p = "rsa" + std::to_string(bits);
    rows.push_back({p + "_sign_windowed", 1, sign_w, 0, 0});
    rows.push_back({p + "_sign_binary", 1, sign_b, 0, 0});
    rows.push_back({p + "_verify", 1, verify_w, 0, 0});
    rows.push_back({p + "_verify_prepared", 1, verify_p, 0, 0});
    if (bits <= 1024) {
      gates.push_back({p + "_sign_windowed_vs_binary", sign_w / sign_b, 2.0});
    }
  }

  // --- raw mod_exp, windowed vs binary (the kernel itself) ------------------
  std::printf("\n");
  for (std::size_t bits : {std::size_t{512}, std::size_t{1024}}) {
    crypto::Drbg rng(7);
    crypto::BigUInt m = rng.big_with_bits(bits);
    if (m.is_even()) m = m + crypto::BigUInt(1);
    crypto::BigUInt base = rng.big_below(m);
    crypto::BigUInt exp = rng.big_with_bits(bits);
    crypto::MontgomeryCtx ctx(m);
    double windowed = time_ops_per_sec([&] {
      g_sink = g_sink +
               static_cast<std::uint32_t>(ctx.mod_exp(base, exp).low_u64());
    });
    double binary = time_ops_per_sec([&] {
      g_sink = g_sink + static_cast<std::uint32_t>(
                            ctx.mod_exp_binary(base, exp).low_u64());
    });
    std::printf("  mod_exp-%-4zu windowed %8.1f/s   binary %8.1f/s   "
                "(%.2fx)\n",
                bits, windowed, binary, windowed / binary);
    std::string p = "modexp" + std::to_string(bits);
    rows.push_back({p + "_windowed", 1, windowed, 0, 0});
    rows.push_back({p + "_binary", 1, binary, 0, 0});
  }

  bench::write_bench_json("crypto_wallclock", rows);

  // --- speedup gates --------------------------------------------------------
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
