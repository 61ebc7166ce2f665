#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "worm/status.hpp"

namespace worm::cluster {

namespace {

/// expected_sn for a pure cursor probe: no store's next SN can ever equal
/// ~0, so every replica answers kSnMismatch with its actual next and writes
/// nothing. One fan-out establishes the shard cursor.
constexpr core::Sn kCursorProbe = ~static_cast<core::Sn>(0);

/// Bounded attempts per write(): probe + commit is the cold path, with room
/// for one verified map refresh, one cursor correction, and one transient.
constexpr int kMaxWriteAttempts = 5;

/// How far a cursor advance may scan skipped slots for completeness before
/// giving up. Real gaps are a handful of slots (this writer's own lost
/// acks); anything larger means the single-writer assumption was violated.
constexpr core::Sn kMaxAdvanceScan = 1024;

/// Cross-replica comparison key for a read answer. Signatures legitimately
/// differ between replicas (independent SCPUs), and so do the attr fields a
/// replica's own SCPU stamps at admission: creation_time (each device's
/// clock), plus the hold bookkeeping its own litigation ops maintain
/// (lit_hold_expiry, lit_credential). Keying on those would veto agreement
/// between honest replicas — a repaired laggard re-witnesses at repair
/// time. Agreement is therefore judged on what a client actually consumes
/// and the operator actually mandated: status, SN, the policy-stable attr
/// fields, and the payload bytes. Anything cryptographically wrong never
/// reaches voting — only verified answers vote.
std::string vote_key(const core::ReadOutcome& outcome) {
  common::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(outcome.status()));
  if (const auto* ok = outcome.get_if<core::ReadOk>()) {
    w.u64(ok->vrd.sn);
    w.i64(ok->vrd.attr.retention.ns);
    w.u32(ok->vrd.attr.regulation_policy);
    w.u8(static_cast<std::uint8_t>(ok->vrd.attr.shredding));
    w.boolean(ok->vrd.attr.litigation_hold);
    w.u8(ok->vrd.attr.f_flag);
    w.u16(ok->vrd.attr.mac_label);
    w.u16(ok->vrd.attr.dac_mode);
    w.u32(static_cast<std::uint32_t>(ok->payloads.size()));
    for (const common::Bytes& p : ok->payloads) w.blob(p);
  }
  common::Bytes bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

ClusterClient::ClusterClient(ClusterConfig config,
                             const common::TimeSource& trusted_time)
    : map_(std::move(config.map)),
      map_key_(std::move(config.map_key)),
      quorum_(config.quorum) {
  if (!quorum_.valid()) {
    throw common::PreconditionError(
        "ClusterClient: masking quorums need n >= 4f+1 (got n=" +
        std::to_string(quorum_.n) + ", f=" + std::to_string(quorum_.f) + ")");
  }
  if (map_key_.modulus_bits() == 0) {
    throw common::PreconditionError(
        "ClusterClient: no operator shard-map key configured — a refreshed "
        "map could not be authenticated against Byzantine replicas");
  }
  for (ShardReplicaSet& set : config.shards) {
    if (set.replicas.size() != quorum_.n) {
      throw common::PreconditionError(
          "ClusterClient: shard " + std::to_string(set.shard) + " has " +
          std::to_string(set.replicas.size()) + " replicas, quorum needs n=" +
          std::to_string(quorum_.n));
    }
    Shard shard;
    shard.id = set.shard;
    for (ReplicaEndpoint& ep : set.replicas) {
      Replica r;
      r.client = std::make_unique<server::WormClient>(std::move(ep.client));
      r.client->set_route(map_.version(), set.shard);
      r.verifier = std::make_unique<core::ClientVerifier>(
          std::move(ep.anchors), trusted_time);
      shard.replicas.push_back(std::move(r));
    }
    shards_.push_back(std::move(shard));
  }
}

ClusterClient::Shard& ClusterClient::shard_for(ShardId id) {
  for (Shard& s : shards_) {
    if (s.id == id) return s;
  }
  throw common::PreconditionError(
      "ClusterClient: no replica set configured for shard " +
      std::to_string(id));
}

ClusterClient::Shard* ClusterClient::pick_shard() {
  const std::vector<ShardRange>& ranges = map_.ranges();
  if (ranges.empty()) return nullptr;
  for (std::size_t probed = 0; probed < ranges.size(); ++probed) {
    std::size_t idx = next_shard_ % ranges.size();
    next_shard_ = (next_shard_ + 1) % ranges.size();
    const ShardRange& range = ranges[idx];
    if (range.hi == range.lo) continue;  // provisioned, owns no SNs
    Shard* shard = nullptr;
    for (Shard& s : shards_) {
      if (s.id == range.shard) {
        shard = &s;
        break;
      }
    }
    // A refreshed map may name shards this client has no replica set for;
    // they are unreachable, not an error — siblings take the write.
    if (shard == nullptr) continue;
    // Capacity: a cursor past the mapped span means the shard's local SN
    // space is exhausted under this map. Admitting anyway would commit a
    // record the global space cannot address (to_global would throw only
    // after the durable quorum write).
    if (shard->next_write != 0 &&
        shard->next_write > range.hi - range.lo) {
      continue;
    }
    return shard;
  }
  return nullptr;
}

void ClusterClient::restamp_routes() {
  for (Shard& s : shards_) {
    for (Replica& r : s.replicas) {
      r.client->set_route(map_.version(), s.id);
    }
  }
}

bool ClusterClient::refresh_map() {
  bool answered = false;
  std::string last_error = "no replicas configured";
  for (Shard& s : shards_) {
    for (Replica& r : s.replicas) {
      common::Bytes envelope;
      try {
        envelope = r.client->fetch_shard_map().shard_map;
        answered = true;
      } catch (const std::exception& e) {
        last_error = e.what();
        continue;
      }
      try {
        // Only an operator-signed, strictly newer map is adopted: a
        // Byzantine replica can force this refresh with kStaleRoute, but it
        // cannot mint a map the operator never signed, and it cannot roll
        // the client back to an older signed map it kept around.
        ShardMap next = verify_shard_map(common::ByteView(envelope), map_key_);
        if (next.version() <= map_.version()) continue;
        map_ = std::move(next);
        restamp_routes();
        return true;
      } catch (const std::exception&) {
        // Forged or malformed envelope: this replica is no map source; the
        // loop simply asks the next one.
      }
    }
  }
  if (answered) return false;
  throw common::PreconditionError(
      "ClusterClient::refresh_map: no replica answered a shard map: " +
      last_error);
}

void ClusterClient::adopt_watermark(Shard& shard, Replica& replica) {
  const std::optional<core::SignedSnCurrent>& att =
      replica.client->attestation();
  if (!att.has_value()) return;
  if (shard.watermark.has_value() &&
      att->stamped_at.ns <= shard.watermark->stamped_at.ns) {
    return;
  }
  // Adopt only a POSITIVELY verified attestation: requesting sn_current + 1
  // (the next unallocated SN) keeps the covers-requested check vacuous, so
  // a good signature with a fresh stamp verifies trustworthy(). Anything
  // less — kUnverifiableYet, kStaleProof, let alone kTampered — must not
  // displace later legitimate adoptions through the stamped_at monotonicity
  // gate above.
  if (replica.verifier->verify_current(*att, att->sn_current + 1)
          .trustworthy()) {
    shard.watermark = *att;
  }
}

ClusterClient::WriteAttempt ClusterClient::write_once(
    Shard& shard, const core::WriteRequest& request, core::Sn expected) {
  WriteAttempt a;
  for (std::uint32_t idx = 0; idx < shard.replicas.size(); ++idx) {
    Replica& replica = shard.replicas[idx];
    try {
      server::WriteResult r = replica.client->write(request, expected);
      if (r.stale_route()) {
        a.stale = true;
        a.message = r.message;
        continue;
      }
      if (r.busy()) {
        a.busy = true;
        a.message = r.message;
        continue;
      }
      if (r.sn_mismatch()) {
        a.mismatches.emplace_back(idx, r.sn);
      } else if (r.ok() && r.sn == expected) {
        a.acked.push_back(idx);
      }
      adopt_watermark(shard, replica);
    } catch (const std::exception& e) {
      // A dead or misbehaving replica costs an ack; the quorum absorbs it.
      a.message = e.what();
    }
  }
  return a;
}

core::Sn ClusterClient::cursor_from_mismatches(const WriteAttempt& attempt,
                                               core::Sn expected) const {
  // The (f+1)-th largest counter-offer: at most f replicas lie, so that
  // value is vouched for by at least one honest replica — f liars offering
  // huge nexts cannot drag the cursor forward, f liars offering tiny ones
  // cannot drag it back. Fewer than f+1 offers is no signal at all.
  if (attempt.mismatches.size() < quorum_.read_quorum()) return expected;
  std::vector<core::Sn> offers;
  offers.reserve(attempt.mismatches.size());
  for (const auto& [idx, next] : attempt.mismatches) offers.push_back(next);
  std::sort(offers.begin(), offers.end(), std::greater<>());
  core::Sn chosen = offers[quorum_.f];
  return chosen == 0 ? expected : chosen;
}

std::uint32_t ClusterClient::repair_laggards(
    Shard& shard, const WriteAttempt& attempt, core::Sn committed,
    const core::WriteRequest& request,
    std::vector<ReplicaConviction>& convictions) {
  std::uint32_t repaired = 0;
  for (const auto& [idx, next] : attempt.mismatches) {
    if (next == 0 || next > committed) continue;  // not a laggard
    bool aborted = false;
    for (core::Sn sn = next; sn < committed; ++sn) {
      // Reconstruct the missing record from the quorum itself: only a
      // trustworthy f+1-agreed served record is a safe source. A record the
      // quorum already deleted (or cannot agree on) cannot be backfilled —
      // stop this replica's repair and leave it to answer kSnMismatch until
      // an operator intervenes.
      bool stale = false;
      QuorumRead agreed =
          std::move(read_batch_once(shard, {sn}, stale).front());
      for (ReplicaConviction& c : agreed.convictions) {
        convictions.push_back(std::move(c));
      }
      const core::ReadOk* ok =
          agreed.trustworthy() ? agreed.outcome.get_if<core::ReadOk>()
                               : nullptr;
      if (ok == nullptr) {
        aborted = true;
        break;
      }
      core::WriteRequest fill;
      fill.payloads = ok->payloads;
      fill.attr = ok->vrd.attr;
      // The laggard's own SCPU stamps admission time; the agreed replica's
      // stamp is its private clock, not cluster state.
      fill.attr.creation_time = {};
      try {
        server::WriteResult r = shard.replicas[idx].client->write(fill, sn);
        if (!r.ok() || r.sn != sn) {
          aborted = true;
          break;
        }
        ++repaired;
      } catch (const std::exception&) {
        aborted = true;
        break;
      }
    }
    if (aborted) continue;
    // Finish with the record the quorum just committed at `committed`.
    try {
      server::WriteResult r =
          shard.replicas[idx].client->write(request, committed);
      if (r.ok() && r.sn == committed) ++repaired;
    } catch (const std::exception&) {
      // The laggard stays one behind; the next write's mismatch retries.
    }
  }
  return repaired;
}

QuorumWrite ClusterClient::write(const core::WriteRequest& request) {
  Shard* shard = pick_shard();
  if (shard == nullptr) {
    throw common::PreconditionError(
        "ClusterClient::write: no writable shard (every shard is empty, "
        "unconfigured, or at capacity for its mapped span)");
  }
  QuorumWrite out;
  // Replicas that committed at the current target slot, across attempts: a
  // replica whose ack we received never re-commits (its next moved past the
  // slot, so a retried frame answers kSnMismatch), so the union over
  // attempts — never a per-attempt count — is what faces the quorum test.
  std::set<std::uint32_t> acked;
  bool refreshed = false;
  for (int attempt = 0; attempt < kMaxWriteAttempts; ++attempt) {
    const core::Sn expected =
        shard->next_write == 0 ? kCursorProbe : shard->next_write;
    WriteAttempt a = write_once(*shard, request, expected);
    if (!a.message.empty()) out.message = a.message;
    out.busy = a.busy;
    for (std::uint32_t idx : a.acked) acked.insert(idx);
    out.acks = static_cast<std::uint32_t>(acked.size());
    if (expected != kCursorProbe && acked.size() >= quorum_.write_quorum()) {
      out.ok = true;
      out.sn = map_.to_global(shard->id, expected);
      shard->next_write = expected + 1;
      out.repaired =
          repair_laggards(*shard, a, expected, request, out.convictions);
      return out;
    }
    if (a.stale) {
      // At most one refresh per write, and only a verified strictly-newer
      // map warrants re-trying: an unmoved map would just re-earn the same
      // rejection. The same shard is kept when the new map still routes
      // writes to it (its cursor and acks stay meaningful); otherwise the
      // target is re-picked — the old shard may be absent, empty, or
      // re-spanned in the new map.
      if (refreshed || !refresh_map()) break;
      refreshed = true;
      bool keep = false;
      for (const ShardRange& range : map_.ranges()) {
        if (range.shard != shard->id) continue;
        keep = range.hi != range.lo &&
               (shard->next_write == 0 ||
                shard->next_write <= range.hi - range.lo);
        break;
      }
      if (!keep) {
        Shard* re = pick_shard();
        if (re == nullptr) break;
        if (re != shard) {
          shard = re;
          acked.clear();
        }
      }
      continue;
    }
    core::Sn learned = cursor_from_mismatches(a, expected);
    if (learned == expected) break;  // no corrective signal — give up
    if (expected != kCursorProbe && learned > expected) {
      // The quorum's frontier is past our cursor. Every skipped slot must
      // already hold a complete, f+1-agreed write (this writer's own
      // earlier lost-ack commits) before the cursor may move over it —
      // advancing past a partially-written slot and committing there later
      // would diverge honest replicas on a WORM slot, permanently.
      if (learned - expected > kMaxAdvanceScan) {
        out.message = "cursor advance of " +
                      std::to_string(learned - expected) +
                      " slots exceeds the single-writer plausibility bound";
        break;
      }
      bool complete = true;
      for (core::Sn sn = expected; sn < learned && complete; ++sn) {
        bool stale = false;
        QuorumRead slot =
            std::move(read_batch_once(*shard, {sn}, stale).front());
        complete = slot.trustworthy() &&
                   slot.outcome.status() != core::ReadStatus::kNotAllocated;
      }
      if (!complete) {
        out.message =
            "slot " + std::to_string(expected) +
            " is partially written (no f+1-agreed record); re-drive the "
            "same record to completion before writing anything new";
        break;
      }
    }
    if (shard->next_write != learned) acked.clear();
    shard->next_write = learned;
  }
  out.acks = static_cast<std::uint32_t>(acked.size());
  if (out.message.empty()) out.message = "write quorum not reached";
  return out;
}

std::vector<QuorumRead> ClusterClient::read_batch_once(
    Shard& shard, const std::vector<core::Sn>& local_sns, bool& stale) {
  struct Candidate {
    core::ReadOutcome outcome;
    core::Outcome verdict;
    std::uint32_t votes = 0;
  };
  std::vector<QuorumRead> out(local_sns.size());
  std::vector<std::map<std::string, Candidate>> votes(local_sns.size());
  std::vector<std::string> unavailable(
      local_sns.size(), "no replica produced a verifiable answer");

  for (std::uint32_t idx = 0; idx < shard.replicas.size(); ++idx) {
    Replica& replica = shard.replicas[idx];
    std::vector<server::BatchReadResult> answers;
    try {
      // One pipelined batched fan-out per replica — the RTT and the
      // attestation slot amortize across every SN in the batch.
      answers = replica.client->read_many(local_sns);
    } catch (const std::exception& e) {
      // Unreachable replica: no votes, no convictions (absence is never
      // evidence of tampering).
      for (std::string& u : unavailable) u = e.what();
      continue;
    }
    adopt_watermark(shard, replica);
    if (answers.size() != local_sns.size()) continue;  // defensive
    for (std::size_t i = 0; i < local_sns.size(); ++i) {
      server::BatchReadResult& slot = answers[i];
      if (slot.stale_route()) {
        stale = true;
        continue;
      }
      if (!slot.is_read()) {
        // Per-slot server-side error: honest but no answer to verify.
        unavailable[i] = slot.message;
        continue;
      }
      // Batching is transport, not trust: every slot is independently
      // verified against THIS replica's own anchors before it may vote.
      core::Outcome verdict =
          replica.verifier->verify_read(local_sns[i], slot.outcome);
      if (verdict.trustworthy()) {
        Candidate& c = votes[i][vote_key(slot.outcome)];
        if (c.votes == 0) {
          c.outcome = std::move(slot.outcome);
          c.verdict = verdict;
        }
        ++c.votes;
      } else if (verdict.verdict == core::Verdict::kTampered ||
                 verdict.verdict == core::Verdict::kStaleProof) {
        // Convicted per slot: this replica's other slots still count.
        out[i].convictions.push_back(
            ReplicaConviction{shard.id, idx, verdict.verdict, verdict.detail});
      } else {
        // kUnverifiableYet / kUnavailable: honest but not yet probative.
        unavailable[i] = verdict.detail;
      }
    }
  }

  for (std::size_t i = 0; i < local_sns.size(); ++i) {
    const Candidate* best = nullptr;
    for (const auto& [key, c] : votes[i]) {
      if (best == nullptr || c.votes > best->votes) best = &c;
    }
    if (best != nullptr && best->votes >= quorum_.read_quorum()) {
      out[i].outcome = best->outcome;
      out[i].verdict = best->verdict;
      out[i].agreeing = best->votes;
    } else {
      out[i].outcome = core::ReadOutcome(core::ReadUnavailable{
          "no f+1 verified agreement among replicas: " + unavailable[i],
          /*retryable=*/true});
      out[i].verdict = core::Outcome{core::Verdict::kUnavailable,
                                     "quorum not reached"};
      out[i].agreeing = best == nullptr ? 0 : best->votes;
    }
  }
  return out;
}

QuorumRead ClusterClient::read(core::Sn global_sn) {
  return std::move(read_many({global_sn}).front());
}

std::vector<QuorumRead> ClusterClient::read_many(
    const std::vector<core::Sn>& global_sns) {
  // Group per shard (preserving request order within each group), then one
  // batched quorum fan-out per shard: N verified reads cost one pipelined
  // window per replica instead of N round trips per replica.
  auto attempt = [&](bool& stale) {
    std::vector<QuorumRead> out(global_sns.size());
    std::map<ShardId, std::pair<std::vector<core::Sn>, std::vector<std::size_t>>>
        groups;
    for (std::size_t i = 0; i < global_sns.size(); ++i) {
      RouteResult route = map_.resolve(global_sns[i]);
      if (!route.ok()) {
        throw common::PreconditionError("ClusterClient::read_many: " +
                                        route.error().reason);
      }
      Resolved r = route.value();
      auto& g = groups[r.shard_id];
      g.first.push_back(r.local_sn);
      g.second.push_back(i);
    }
    for (auto& [shard_id, g] : groups) {
      std::vector<QuorumRead> res =
          read_batch_once(shard_for(shard_id), g.first, stale);
      for (std::size_t j = 0; j < res.size(); ++j) {
        out[g.second[j]] = std::move(res[j]);
      }
    }
    return out;
  };

  bool stale = false;
  std::vector<QuorumRead> out = attempt(stale);
  // Retry only when a verified newer map was actually adopted — an unmoved
  // map would re-earn the same rejections. The whole set re-resolves: a new
  // map may move SNs across shards.
  if (stale && refresh_map()) {
    stale = false;
    out = attempt(stale);
  }
  return out;
}

std::optional<core::SignedSnCurrent> ClusterClient::watermark(
    ShardId shard) const {
  for (const Shard& s : shards_) {
    if (s.id == shard) return s.watermark;
  }
  return std::nullopt;
}

}  // namespace worm::cluster
