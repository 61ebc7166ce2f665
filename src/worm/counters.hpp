// Namespace-scope counters types, hoisted out of WormStore so aggregation
// layers (the cluster router, dashboards) can consume snapshots without
// naming the store type. src/cluster/ is under the worm-lint
// server-store-isolation rule — it reaches stores only through WormSession —
// so the snapshot struct must be nameable on its own.
#pragma once

#include <cstdint>
#include <map>
#include <string_view>

#include "worm/mailbox.hpp"
#include "worm/read_cache.hpp"

namespace worm::core {

/// Typed counters snapshot of one store; the map view below is derived from
/// it. Aggregated across shards by cluster::ShardRouter::counters_snapshot.
struct CountersSnapshot {
  // store.* — operation counts.
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_many_batches = 0;
  std::uint64_t reads_unavailable = 0;  // answered ReadUnavailable
  std::uint64_t expirations = 0;
  std::uint64_t compactions = 0;
  std::uint64_t base_advances = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t deferred_shreds = 0;
  std::uint64_t degraded = 0;  // 1 once the SCPU zeroized
  // read_cache.*
  ReadCacheStats read_cache{};
  // mailbox.* — crossings and transport reliability.
  MailboxMetrics mailbox{};
  // storage.* — record-store retry activity.
  std::uint64_t storage_read_retries = 0;
  // fault.* — total injected faults (all sites), 0 without an injector.
  std::uint64_t fault_injected = 0;
  // recovery.* — cumulative across recover() calls on this store.
  std::uint64_t recovery_replayed = 0;
  std::uint64_t recovery_resent = 0;
  std::uint64_t recovery_torn_bytes = 0;
  // write_pipeline.* — group-commit activity; all zero with the pipeline
  // off. batch_fill_avg is flushed writes per batch, rounded to nearest.
  std::uint64_t write_pipeline_queued = 0;
  std::uint64_t write_pipeline_batches = 0;
  std::uint64_t write_pipeline_batch_fill_avg = 0;
  std::uint64_t write_pipeline_backpressure_stalls = 0;
  std::uint64_t write_pipeline_busy_rejected = 0;  // try_write_async -> kBusy
  // server.read_batch.* — drain-level read coalescing on the network
  // front-end; zero for in-process deployments. Filled by
  // WormServer::fill_counters (the store cannot see the wire).
  std::uint64_t server_read_batch_frames = 0;    // kReadBatch frames served
  std::uint64_t server_read_batch_sns = 0;       // SNs inside those frames
  std::uint64_t server_read_batch_fill_avg = 0;  // sns/frames, rounded down
  // client.read_window.* — WormClient's pipelined batched-read window.
  // Filled by WormClient::fill_counters.
  std::uint64_t client_read_window_inflight_max = 0;
  std::uint64_t client_read_window_chunks = 0;

  /// The stable dashboard view: namespaced `<subsystem>.<counter>` keys
  /// (e.g. "mailbox.crossings", "read_cache.hits", "fault.injected").
  /// See DESIGN.md §9 for the full list.
  [[nodiscard]] std::map<std::string_view, std::uint64_t> as_map() const;
};

/// How a counters snapshot relates to in-flight pipeline work.
enum class CounterFlush : std::uint8_t {
  /// Snapshot whatever is there. With the pipeline on and writers active,
  /// the write_pipeline.* fields are a moving target — the committer may be
  /// mid-flush, so `queued` can exceed `flushed_writes` and `batches` can
  /// lag by one. Fine for dashboards; unstable for assertions.
  kRelaxed,
  /// drain_writes() first, then snapshot: every admitted write has been
  /// flushed and counted, so queued == flushed_writes and batch arithmetic
  /// is exact. What benches and tests should use before reporting.
  kSettled,
};

}  // namespace worm::core
