// Shared rig for the fault-injection and crash-recovery suites: one full
// deployment whose host process (WormStore and RecordStore) can be torn down
// and rebooted over persistent firmware / device / disk / journal (the host
// process dying, not the machine room), with a FaultInjector threaded
// through every untrusted layer's fault points.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "common/serial.hpp"
#include "worm_fixture.hpp"

namespace worm::testing {

/// Store config for deterministic fault runs: a free host and zero retry
/// waits, so a faulted run and an uninjected reference advance their clocks
/// in lockstep (signatures embed SCPU timestamps, so proof-stream
/// equivalence needs time pinned on both sides). Pair it with a
/// CostModel::zero() device, as CrashRig does, so crossings are free too.
inline core::StoreConfig lockstep_store_config() {
  core::StoreConfig c;
  c.host_model = scpu::CostModel::zero();
  c.mailbox.retry.initial_backoff = common::Duration::nanos(0);
  c.mailbox.retry.response_timeout = common::Duration::nanos(0);
  return c;
}

/// One deployment whose store and record store live in std::optional so
/// tests can crash them (destroy — all host soft state, the block allocator
/// included, gone) and reboot them (reconstruct + recover()) while everything
/// below the host process persists.
///
/// `journal_name` empty disables journaling; otherwise the journal file
/// lives under the gtest temp dir and is removed up front so reruns start
/// clean. Pass `with_faults = false` for an uninjected reference rig.
struct CrashRig {
  explicit CrashRig(const std::string& journal_name,
                    bool with_faults = true,
                    std::uint64_t fault_seed = 0x5eed,
                    core::FirmwareConfig fw_config = slow_timers_config(),
                    core::StoreConfig store_config = lockstep_store_config())
      : fault(fault_seed, &clock),
        device(clock, scpu::CostModel::zero(), 32u << 20),
        firmware(device, fw_config, regulator_key().public_key()),
        disk(4096, 4096, &clock, storage::LatencyModel::none()),
        config(std::move(store_config)) {
    if (!journal_name.empty()) {
      config.journal_path = ::testing::TempDir() + journal_name;
      std::remove(config.journal_path.c_str());
    }
    if (with_faults) {
      config.fault = &fault;
      disk.set_fault_injector(&fault);
    }
    boot();
  }

  /// (Re)constructs the record store and the store over the persistent
  /// lower layers, after crashing a host that is still up. After a crash
  /// the caller decides whether to recover() (journaled rigs).
  void boot() {
    crash();
    records.emplace(disk);
    store.emplace(clock, firmware, *records, config);
  }

  /// The host process dies: every bit of soft state (VRDT, allocator,
  /// mirrors, caches, pending intents) is gone. The device, disk and journal
  /// survive.
  void crash() {
    store.reset();
    records.reset();
  }

  core::WormStore::RecoveryReport crash_and_recover() {
    crash();
    boot();
    return store->recover();
  }

  core::Attr attr(common::Duration retention) const {
    core::Attr a;
    a.retention = retention;
    a.shredding = storage::ShredPolicy::kZeroFill;
    a.regulation_policy = 17;
    return a;
  }

  core::Sn put(const std::string& text, common::Duration retention,
               std::optional<core::WitnessMode> mode = std::nullopt) {
    return store->write({.payloads = {common::to_bytes(text)},
                         .attr = attr(retention),
                         .mode = mode});
  }

  core::ClientVerifier verifier() {
    return core::ClientVerifier(store->anchors(), clock);
  }

  common::SimClock clock;
  common::FaultInjector fault;
  scpu::ScpuDevice device;
  core::Firmware firmware;
  storage::MemBlockDevice disk;
  core::StoreConfig config;
  std::optional<storage::RecordStore> records;
  std::optional<core::WormStore> store;
};

/// Canonical byte fingerprint of a read outcome for proof-stream
/// equivalence: the status plus every proof-bearing field, serialized.
/// The RDL is deliberately excluded — it is host-local block bookkeeping
/// outside every signature, and a faulted run that re-stores a payload
/// after a torn write legitimately lands on different blocks.
/// Unavailable/Failure fingerprints carry only the status — their reasons
/// are diagnostics, not proofs.
inline common::Bytes outcome_fingerprint(const core::ReadOutcome& r) {
  common::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(r.status()));
  if (const auto* ok = r.get_if<core::ReadOk>()) {
    w.u64(ok->vrd.sn);
    ok->vrd.attr.serialize(w);
    w.blob(ok->vrd.data_hash);
    ok->vrd.metasig.serialize(w);
    ok->vrd.datasig.serialize(w);
    w.u32(static_cast<std::uint32_t>(ok->payloads.size()));
    for (const auto& p : ok->payloads) w.blob(p);
  } else if (const auto* del = r.get_if<core::ReadDeleted>()) {
    del->proof.serialize(w);
  } else if (const auto* base = r.get_if<core::ReadBelowBase>()) {
    // Freshness certificates (base / sn_current attestations) are re-signed
    // whenever a rig happens to refresh them, so their timestamps and
    // signature bytes differ legitimately between a recovering run and the
    // reference. The fingerprint compares the signed CLAIM; the signatures
    // themselves are exercised by the ClientVerifier sweeps.
    w.u64(base->base.sn_base);
  } else if (r.get_if<core::ReadNotAllocated>() != nullptr) {
    // Carries only the status: the attestation's sn_current is whatever the
    // rig's last heartbeat happened to witness (a recovering rig re-stamps
    // it, the reference may still hold its boot-time one) — every value is
    // an equally honest "not yet allocated as of the stamp".
  } else if (const auto* win = r.get_if<core::ReadInDeletedWindow>()) {
    w.u64(win->window.lo);
    w.u64(win->window.hi);
  }
  return w.take();
}

}  // namespace worm::testing
