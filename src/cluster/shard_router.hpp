// ShardRouter: in-process scale-out. Fronts N independent stores — each a
// full WormStore with its own simulated SCPU, journal, and write pipeline —
// behind one SN space, fanning every operation to the shard the map says
// owns it. Writes round-robin across shards (each shard's pipeline group-
// commits independently, which is where the aggregate-throughput win comes
// from; see bench/bench_sharded.cpp); reads group a batch per owning shard
// and reassemble in request order.
//
// The router never names the store type: it holds one WormSession per shard,
// minted by the caller's factory, and the worm-lint rule
// server-store-isolation covers src/cluster/ exactly like src/server/. The
// session layer stays the single choke point where anything meets a store.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_map.hpp"
#include "worm/session.hpp"

namespace worm::cluster {

/// Mints the session for one shard (the caller owns the stores and decides
/// principal/time). Mirrors server::SessionFactory.
using ShardSessionFactory =
    std::function<std::unique_ptr<core::WormSession>(ShardId)>;

/// A routed async write: wraps the owning shard's ticket and translates the
/// acked local SN back to the global space on get().
class RoutedTicket {
 public:
  RoutedTicket(core::WriteTicket ticket, ShardId shard, const ShardMap& map)
      : ticket_(std::move(ticket)), shard_(shard), map_(&map) {}

  [[nodiscard]] ShardId shard() const { return shard_; }

  /// Blocks until the shard's committer resolves the ticket; returns the
  /// GLOBAL SN (or rethrows the flush error).
  [[nodiscard]] core::Sn get() {
    return map_->to_global(shard_, ticket_.get());
  }

 private:
  core::WriteTicket ticket_;
  ShardId shard_ = 0;
  const ShardMap* map_ = nullptr;
};

class ShardRouter {
 public:
  /// Mints one session per shard in the map, in range order. Throws
  /// common::PreconditionError on an empty map or a factory that returns
  /// null.
  ShardRouter(ShardMap map, const ShardSessionFactory& factory);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] const ShardMap& map() const { return map_; }

  /// Routed read: resolves the owning shard and asks its session with the
  /// translated local SN. Throws common::PreconditionError when no shard
  /// owns the SN (resolve() error — the caller is off the map, a programming
  /// error rather than a store answer).
  [[nodiscard]] core::ReadOutcome read(core::Sn global_sn);

  /// Routed batch read: groups SNs per owning shard, one read_many per
  /// shard touched, answers reassembled in request order.
  [[nodiscard]] std::vector<core::ReadOutcome> read_many(
      const std::vector<core::Sn>& global_sns);

  /// Round-robin async write: admits into the next shard's pipeline and
  /// returns a ticket that resolves to the global SN.
  [[nodiscard]] RoutedTicket write_async(core::WriteRequest request);

  /// Synchronous convenience: write_async + get.
  [[nodiscard]] core::Sn write(core::WriteRequest request);

  /// Forwarded pipeline drain, fanned to every shard.
  void drain_writes();

  /// Every shard's store counters, keyed "shard.<i>.<key>", plus their
  /// field-wise sums keyed "cluster.<key>". Ratio-like keys
  /// (write_pipeline.batch_fill_avg) are summed too, so divide by the shard
  /// count for a cluster average. Call drain_writes() first when the
  /// write_pipeline.* numbers must be settled.
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;

  /// Direct access to one shard's session (attestation watermarks,
  /// verifier). Throws common::PreconditionError on an unknown shard.
  [[nodiscard]] core::WormSession& session(ShardId shard);

 private:
  ShardMap map_;
  // Parallel to map_.ranges(): sessions_[i] serves ranges()[i].shard.
  std::vector<std::unique_ptr<core::WormSession>> sessions_;
  std::size_t next_shard_ = 0;  // round-robin write cursor (index into ranges)

  [[nodiscard]] std::size_t index_of(ShardId shard) const;
};

}  // namespace worm::cluster
