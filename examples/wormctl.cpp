// wormctl — a persistent command-line WORM store over the file-backed
// stack. Each invocation boots the whole deployment from disk (block device,
// VRDT, SCPU NVRAM, simulated clock), performs one operation, and persists
// everything back — a miniature of how an appliance built on this library
// would run. The block allocator is not persisted: adopting the VRDT derives
// it.
//
// Every number (SN, days, hours) must be a complete decimal; anything else
// prints the usage and exits 2.
//
//   wormctl <dir> init
//   wormctl <dir> put <retention-days> <text...>
//   wormctl <dir> get <sn>
//   wormctl <dir> status
//   wormctl <dir> audit
//   wormctl <dir> tick <hours>     advance simulated time (expiry, idle work)
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/file.hpp"
#include "common/sim_clock.hpp"
#include "scpu/key_cache.hpp"
#include "scpu/scpu_device.hpp"
#include "storage/block_device.hpp"
#include "storage/record_store.hpp"
#include "worm/auditor.hpp"
#include "worm/session.hpp"
#include "worm/firmware.hpp"
#include "worm/worm_store.hpp"

using namespace worm;

namespace {

struct Deployment {
  explicit Deployment(const std::string& dir, bool fresh)
      : state_dir(dir),
        device(clock, scpu::CostModel::ibm4764()),
        firmware(device, firmware_config(),
                 scpu::cached_rsa_key(0x1e6, 1024).public_key()),
        disk(dir + "/disk.bin", 4096, 4096),
        records(disk) {
    if (!fresh) {
      // Restore persisted state: clock first (alarms schedule against it).
      common::Bytes clk = common::read_file(state_dir + "/clock.bin");
      common::ByteReader r(clk);
      clock.advance_to(common::SimTime{r.i64()});
      firmware.restore_nvram(common::read_file(state_dir + "/nvram.bin"));
    }
    store = std::make_unique<core::WormStore>(clock, firmware, records,
                                              core::StoreConfig{});
    if (!fresh) {
      store->adopt_vrdt(core::Vrdt::load(state_dir + "/vrdt.bin"));
    }
  }

  static core::FirmwareConfig firmware_config() {
    core::FirmwareConfig cfg;
    cfg.heartbeat_interval = common::Duration::hours(1);
    cfg.sn_current_max_age = common::Duration::hours(3);
    return cfg;
  }

  void persist() {
    common::ByteWriter w;
    w.i64(clock.now().ns);
    common::write_file(state_dir + "/clock.bin", w.bytes());
    common::write_file(state_dir + "/nvram.bin", firmware.save_nvram());
    store->vrdt().save(state_dir + "/vrdt.bin");
    disk.flush();
  }

  std::string state_dir;
  common::SimClock clock;
  scpu::ScpuDevice device;
  core::Firmware firmware;
  storage::FileBlockDevice disk;
  storage::RecordStore records;
  std::unique_ptr<core::WormStore> store;
};

int usage() {
  std::fprintf(stderr,
               "usage: wormctl <dir> init\n"
               "       wormctl <dir> put <retention-days> <text...>\n"
               "       wormctl <dir> get <sn>\n"
               "       wormctl <dir> status\n"
               "       wormctl <dir> audit\n"
               "       wormctl <dir> tick <hours>\n");
  return 2;
}

/// A complete decimal number no larger than `max`: no sign, no spaces, no
/// trailing text. nullopt for anything else.
std::optional<std::uint64_t> parse_number(std::string_view text,
                                          std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || v > max) return std::nullopt;
  return v;
}

// Retentions and clock steps up to a century: SimTime (int64 nanoseconds,
// about 292 years) cannot overflow adding one to the current time.
constexpr std::uint64_t kMaxDays = 100 * 365;
constexpr std::uint64_t kMaxHours = kMaxDays * 24;

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string dir = argv[1];
  std::string cmd = argv[2];

  try {
    if (cmd == "init") {
      if (std::filesystem::exists(dir + "/nvram.bin")) {
        std::fprintf(stderr, "wormctl: %s already initialized\n", dir.c_str());
        return 1;
      }
      Deployment d(dir, /*fresh=*/true);
      d.persist();
      std::printf("initialized WORM store in %s\n", dir.c_str());
      return 0;
    }

    Deployment d(dir, /*fresh=*/false);
    core::WormSession session(*d.store, "wormctl@cli", d.clock);
    core::ClientVerifier& verifier = session.verifier();

    if (cmd == "put" && argc >= 5) {
      std::optional<std::uint64_t> days = parse_number(argv[3], kMaxDays);
      if (!days) return usage();
      core::Attr attr;
      attr.retention =
          common::Duration::days(static_cast<std::int64_t>(*days));
      std::string text;
      for (int i = 4; i < argc; ++i) {
        if (i > 4) text += ' ';
        text += argv[i];
      }
      core::Sn sn = d.store->write(
          {.payloads = {common::to_bytes(text)}, .attr = attr});
      std::printf("stored as SN %llu (retention %s days)\n",
                  static_cast<unsigned long long>(sn), argv[3]);
    } else if (cmd == "get" && argc == 4) {
      std::optional<std::uint64_t> parsed = parse_number(argv[3], UINT64_MAX);
      if (!parsed) return usage();
      core::Sn sn = *parsed;
      core::ReadOutcome res = d.store->read(sn);
      core::Outcome out = verifier.verify_read(sn, res);
      std::printf("SN %llu: %s %s\n", static_cast<unsigned long long>(sn),
                  core::to_string(out.verdict), out.detail.c_str());
      if (auto* ok = res.get_if<core::ReadOk>()) {
        std::printf("  %s\n", common::to_string(ok->payloads.at(0)).c_str());
      }
    } else if (cmd == "status") {
      std::printf("simulated time : %.1f h since epoch\n",
                  static_cast<double>(d.clock.now().ns) / 3.6e12);
      std::printf("SN window      : [%llu, %llu]\n",
                  static_cast<unsigned long long>(d.firmware.sn_base()),
                  static_cast<unsigned long long>(d.firmware.sn_current()));
      std::printf("VRDT           : %zu entries, %zu windows, %zu active\n",
                  d.store->vrdt().entry_count(), d.store->vrdt().window_count(),
                  d.store->vrdt().active_count());
      std::printf("pending        : %zu to strengthen, VEXP %zu\n",
                  d.firmware.deferred_count(), d.firmware.vexp_size());
    } else if (cmd == "audit") {
      core::AuditReport report = core::Auditor::audit_store(*d.store, verifier);
      std::printf("%s\n", core::Auditor::summarize(report).c_str());
    } else if (cmd == "tick" && argc == 4) {
      std::optional<std::uint64_t> hours = parse_number(argv[3], kMaxHours);
      if (!hours) return usage();
      d.clock.advance(
          common::Duration::hours(static_cast<std::int64_t>(*hours)));
      while (d.store->pump_idle()) {
      }
      std::printf("advanced %s h; deletions so far: %llu\n", argv[3],
                  static_cast<unsigned long long>(
                      d.firmware.counters().deletions));
    } else {
      return usage();
    }
    d.persist();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wormctl: %s\n", e.what());
    return 1;
  }
}
