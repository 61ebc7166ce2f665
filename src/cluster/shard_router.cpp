#include "cluster/shard_router.hpp"

#include <utility>

#include "common/error.hpp"

namespace worm::cluster {

ShardRouter::ShardRouter(ShardMap map, const ShardSessionFactory& factory)
    : map_(std::move(map)) {
  if (map_.shard_count() == 0) {
    throw common::PreconditionError("ShardRouter needs a non-empty shard map");
  }
  sessions_.reserve(map_.shard_count());
  for (const ShardRange& r : map_.ranges()) {
    std::unique_ptr<core::WormSession> session = factory(r.shard);
    if (session == nullptr) {
      throw common::PreconditionError(
          "ShardRouter: session factory returned null for shard " +
          std::to_string(r.shard));
    }
    sessions_.push_back(std::move(session));
  }
}

std::size_t ShardRouter::index_of(ShardId shard) const {
  const std::vector<ShardRange>& ranges = map_.ranges();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].shard == shard) return i;
  }
  throw common::PreconditionError("ShardRouter: unknown shard " +
                                  std::to_string(shard));
}

core::ReadOutcome ShardRouter::read(core::Sn global_sn) {
  RouteResult route = map_.resolve(global_sn);
  if (!route.ok()) {
    throw common::PreconditionError("ShardRouter::read: " +
                                    route.error().reason);
  }
  const Resolved& r = route.value();
  return sessions_[index_of(r.shard_id)]->read(r.local_sn);
}

std::vector<core::ReadOutcome> ShardRouter::read_many(
    const std::vector<core::Sn>& global_sns) {
  // Group per owning shard, keeping each SN's position in the request so
  // the answers reassemble in order.
  std::map<std::size_t, std::pair<std::vector<core::Sn>, std::vector<std::size_t>>>
      by_shard;
  for (std::size_t pos = 0; pos < global_sns.size(); ++pos) {
    RouteResult route = map_.resolve(global_sns[pos]);
    if (!route.ok()) {
      throw common::PreconditionError("ShardRouter::read_many: " +
                                      route.error().reason);
    }
    const Resolved& r = route.value();
    auto& [sns, positions] = by_shard[index_of(r.shard_id)];
    sns.push_back(r.local_sn);
    positions.push_back(pos);
  }
  std::vector<core::ReadOutcome> out(global_sns.size());
  for (auto& [idx, group] : by_shard) {
    auto& [sns, positions] = group;
    std::vector<core::ReadOutcome> answers = sessions_[idx]->read_many(sns);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      out[positions[i]] = std::move(answers[i]);
    }
  }
  return out;
}

RoutedTicket ShardRouter::write_async(core::WriteRequest request) {
  // Round-robin over shards that own at least one SN; an empty range
  // ([x, x)) is a provisioned-but-unassigned shard and takes no writes.
  const std::vector<ShardRange>& ranges = map_.ranges();
  bool any_nonempty = false;
  for (std::size_t probed = 0; probed < ranges.size(); ++probed) {
    std::size_t idx = next_shard_;
    next_shard_ = (next_shard_ + 1) % sessions_.size();
    if (ranges[idx].hi == ranges[idx].lo) continue;
    any_nonempty = true;
    // Admission-side capacity check: a shard whose store would assign a
    // local SN past the mapped span is full — admitting anyway would commit
    // a record the global SN space cannot address (to_global throws only
    // after the durable write). Skipped here, the write lands on a sibling;
    // concurrent admissions racing the same last slot still fall back to
    // the to_global backstop in RoutedTicket::get.
    if (sessions_[idx]->next_sn() > ranges[idx].hi - ranges[idx].lo) continue;
    core::WriteTicket ticket = sessions_[idx]->write_async(std::move(request));
    return RoutedTicket(std::move(ticket), ranges[idx].shard, map_);
  }
  if (any_nonempty) {
    throw common::TransientStorageError(
        "ShardRouter::write_async: every shard is at capacity for its mapped "
        "span — regrow the shard map, then retry");
  }
  throw common::PreconditionError(
      "ShardRouter::write_async: every shard in the map is empty");
}

core::Sn ShardRouter::write(core::WriteRequest request) {
  RoutedTicket ticket = write_async(std::move(request));
  return ticket.get();
}

void ShardRouter::drain_writes() {
  for (auto& session : sessions_) session->drain_writes();
}

std::map<std::string, std::uint64_t> ShardRouter::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    std::string prefix =
        "shard." + std::to_string(map_.ranges()[i].shard) + ".";
    for (const auto& [key, value] : sessions_[i]->counters()) {
      out[prefix + std::string(key)] = value;
      out["cluster." + std::string(key)] += value;
    }
  }
  return out;
}

core::WormSession& ShardRouter::session(ShardId shard) {
  return *sessions_[index_of(shard)];
}

}  // namespace worm::cluster
