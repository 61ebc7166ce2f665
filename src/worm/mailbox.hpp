// Host-side command pipeline in front of the SCPU mailbox (§4.1): the layer
// that amortizes access to the slow trusted device. It owns the serialized
// transport (ScpuChannel), meters the kWriteBatch crossings the store's
// write committer forms, keeps a rotation of standing idle duties
// (strengthening, hash audits, compaction, base advance, VEXP rebuild), and
// lets deadline pressure force the urgent duties ahead of foreground traffic.
//
// Everything here runs on the untrusted main CPU. The mailbox never holds
// protocol authority — it only decides *when* commands cross the boundary,
// which is exactly the freedom §4.1 gives the host.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "worm/commands.hpp"

namespace worm::core {

struct MailboxConfig {
  /// Maximum writes witnessed per kWriteBatch crossing.
  std::size_t max_batch = 64;
  /// Per-command retry and backoff policy, handed to the transport as is
  /// (see ChannelRetryPolicy for the per-field defaults).
  ScpuChannel::RetryPolicy retry{};
};

/// The counts the mailbox makes itself. Transport counts (crossings, bytes,
/// retries, ...) stay in ScpuChannel::WireStats; WormStore::counters() names
/// both.
struct MailboxMetrics {
  std::uint64_t batches = 0;          // kWriteBatch crossings
  std::uint64_t batched_writes = 0;   // writes those crossings carried
  std::uint64_t queue_hwm = 0;        // high-water mark of queued commands
  std::uint64_t duty_runs = 0;        // idle duties that found work
  std::uint64_t urgent_services = 0;  // duty runs forced by deadline pressure
};

class ScpuMailbox {
 public:
  /// A standing idle duty. Returns true when it found work to do.
  using Duty = std::function<bool()>;

  /// `fault` (optional) arms the transport's fault points; the mailbox does
  /// not own the injector.
  ScpuMailbox(Firmware& firmware, MailboxConfig config,
              common::FaultInjector* fault = nullptr)
      : channel_(firmware, config.retry, fault),
        config_(config) {}

  ScpuMailbox(const ScpuMailbox&) = delete;
  ScpuMailbox& operator=(const ScpuMailbox&) = delete;

  [[nodiscard]] ScpuChannel& channel() { return channel_; }
  [[nodiscard]] const ScpuChannel& channel() const { return channel_; }
  [[nodiscard]] const MailboxConfig& config() const { return config_; }

  /// Registers a standing duty for the idle rotation. Urgent duties are the
  /// ones deadline pressure may force ahead of foreground traffic
  /// (strengthening, §4.3).
  void add_duty(std::string name, Duty duty, bool urgent = false);

  /// One full rotation: every standing duty runs at most once, in
  /// registration order. Returns true if any duty found work.
  bool pump();

  /// Runs only the urgent duties — called from the foreground path when
  /// deadline_pressure() trips mid-burst. Returns true if any found work.
  bool service_urgent();

  /// Records the depth of the host-side request queue at submission time
  /// (feeds the queue high-water mark metric).
  void note_queue_depth(std::size_t depth);

  /// Records one kWriteBatch crossing carrying `writes` writes (the store
  /// drives batching itself so crossings stay under its journal discipline).
  void note_batch(std::size_t writes) {
    ++m_.batches;
    m_.batched_writes += writes;
  }

  [[nodiscard]] const MailboxMetrics& metrics() const { return m_; }

 private:
  struct DutySlot {
    std::string name;
    Duty duty;
    bool urgent = false;
  };

  ScpuChannel channel_;
  MailboxConfig config_;
  std::vector<DutySlot> duties_;
  MailboxMetrics m_;
};

}  // namespace worm::core
