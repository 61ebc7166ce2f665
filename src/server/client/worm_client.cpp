#include "server/client/worm_client.hpp"

#include <poll.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.hpp"

namespace worm::server {

using common::Bytes;
using common::IoResult;
using common::NetError;

namespace {

/// Wait between connect attempts.
constexpr common::Backoff kConnectBackoff{
    .initial = common::Duration::millis(1),
    .factor = 2,
    .cap = common::Duration::millis(250)};

common::Socket connect_with_backoff(const ClientConfig& config) {
  std::string last_error = "no attempts made";
  for (std::uint32_t attempt = 0; attempt < config.connect_attempts;
       ++attempt) {
    if (attempt > 0) common::sleep_real(kConnectBackoff.delay(attempt - 1));
    try {
      if (!config.unix_path.empty()) {
        return common::connect_unix(config.unix_path);
      }
      return common::connect_tcp_loopback(config.tcp_port);
    } catch (const NetError& e) {
      last_error = e.what();
    }
  }
  throw NetError("WormClient: connect failed after " +
                 std::to_string(config.connect_attempts) +
                 " attempts: " + last_error);
}

/// Time left before `deadline`; throws NetError naming `stage` past it.
common::Duration time_left(common::Duration deadline, const char* stage,
                           MsgOp op) {
  common::Duration left = deadline - common::now_real();
  if (left.ns <= 0) {
    throw NetError("WormClient: io_timeout exceeded while " +
                   std::string(stage) + " " + to_string(op));
  }
  return left;
}

}  // namespace

WormClient::WormClient(ClientConfig config) : config_(std::move(config)) {
  sock_ = connect_with_backoff(config_);
  handshake();
}

void WormClient::handshake() {
  Request hello;
  hello.op = MsgOp::kHello;
  hello.version = kProtocolVersion;
  hello.principal = config_.principal;
  hello.token = config_.token;
  Response resp = transact(std::move(hello));
  if (resp.status != core::WireStatus::kOk) {
    core::throw_wire_error(resp.status, resp.message);
  }
}

void WormClient::adopt_attestations(const Response& resp) {
  if (resp.attestation.has_value()) {
    attestation_ = resp.attestation;
  }
  if (resp.epoch_cert.has_value() &&
      (!epoch_cert_.has_value() ||
       resp.epoch_cert->epoch > epoch_cert_->epoch)) {
    epoch_cert_ = resp.epoch_cert;
  }
}

core::ReadOutcome WormClient::read(core::Sn sn) {
  Request req;
  req.op = MsgOp::kRead;
  req.route_version = route_version_;
  req.route_shard = route_shard_;
  req.sn = sn;
  Response resp = transact(std::move(req));
  if (!core::is_read_status(resp.status)) {
    core::throw_wire_error(resp.status, resp.message);
  }
  return std::move(resp.outcome);
}

std::vector<BatchReadResult> WormClient::read_many(
    const std::vector<core::Sn>& sns) {
  std::vector<BatchReadResult> results(sns.size());
  if (sns.empty()) return results;

  const std::size_t chunk_len = std::min<std::size_t>(
      std::max<std::uint16_t>(config_.read_chunk, 1), kMaxReadBatchSns);
  const std::size_t window = std::max<std::size_t>(config_.read_window, 1);

  enum class ChunkState : std::uint8_t { kUnsent, kInflight, kDone };
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t rid = 0;
    ChunkState state = ChunkState::kUnsent;
  };
  std::vector<Chunk> chunks;
  chunks.reserve((sns.size() + chunk_len - 1) / chunk_len);
  for (std::size_t b = 0; b < sns.size(); b += chunk_len) {
    chunks.push_back({b, std::min(b + chunk_len, sns.size()), 0,
                      ChunkState::kUnsent});
  }

  std::map<std::uint64_t, std::size_t> inflight;  // rid -> chunk index
  std::size_t done = 0;
  std::uint32_t reconnects = 0;

  // io_timeout bounds progress, not the whole burst: the deadline renews on
  // every completed chunk, so a burst is bounded by chunks x io_timeout
  // while a trickling server still cannot pin one chunk indefinitely.
  common::Duration deadline = common::now_real() + config_.io_timeout;

  while (done < chunks.size()) {
    try {
      // Refill the window: encode every sendable frame back-to-back into
      // the scratch buffer, then flush the whole burst — O(1) syscall
      // bursts for O(frames) of pipeline.
      out_.buffer().clear();
      for (Chunk& c : chunks) {
        if (inflight.size() >= window) break;
        if (c.state != ChunkState::kUnsent) continue;
        Request req;
        req.op = MsgOp::kReadBatch;
        req.rid = next_rid_++;
        req.route_version = route_version_;
        req.route_shard = route_shard_;
        req.sns.assign(sns.begin() + static_cast<std::ptrdiff_t>(c.begin),
                       sns.begin() + static_cast<std::ptrdiff_t>(c.end));
        append_request_frame(out_.buffer(), req);
        c.rid = req.rid;
        c.state = ChunkState::kInflight;
        inflight[req.rid] = static_cast<std::size_t>(&c - chunks.data());
        ++window_chunks_;
        window_inflight_max_ =
            std::max<std::uint64_t>(window_inflight_max_, inflight.size());
      }
      send_all(out_.buffer(), deadline, MsgOp::kReadBatch);

      // Complete one response frame (they may land in any order — match by
      // rid, never by position).
      Response resp = next_response(deadline, MsgOp::kReadBatch);
      auto it = inflight.find(resp.rid);
      if (it == inflight.end() || resp.op != MsgOp::kReadBatch) {
        throw common::ParseError("WormClient: read-batch echo mismatch (got " +
                                 std::string(to_string(resp.op)) + " rid " +
                                 std::to_string(resp.rid) + ")");
      }
      Chunk& c = chunks[it->second];
      inflight.erase(it);
      adopt_attestations(resp);
      if (resp.status != core::WireStatus::kOk) {
        // Frame-level rejection (auth/bad request): nothing per-SN to
        // salvage — surface it as the typed exception a solo call would
        // raise.
        core::throw_wire_error(resp.status, resp.message);
      }
      if (resp.slots.size() != c.end - c.begin) {
        throw common::ParseError("WormClient: read batch answered " +
                                 std::to_string(resp.slots.size()) +
                                 " slots for " +
                                 std::to_string(c.end - c.begin) + " SNs");
      }
      for (std::size_t i = 0; i < resp.slots.size(); ++i) {
        BatchReadResult& out = results[c.begin + i];
        out.status = resp.slots[i].status;
        out.outcome = std::move(resp.slots[i].outcome);
        out.message = std::move(resp.slots[i].message);
      }
      c.state = ChunkState::kDone;
      ++done;
      deadline = common::now_real() + config_.io_timeout;  // progress
    } catch (const NetError&) {
      // Per-chunk retry on reconnect: answered chunks keep their results;
      // everything in flight is resent on the fresh connection. Reads are
      // idempotent, so a lost-then-served frame cannot double-apply.
      if (reconnects >= config_.connect_attempts) throw;
      ++reconnects;
      sock_.reset();
      in_.clear();
      in_off_ = 0;
      for (auto& [rid, ci] : inflight) {
        chunks[ci].state = ChunkState::kUnsent;
      }
      inflight.clear();
      sock_ = connect_with_backoff(config_);
      handshake();
      deadline = common::now_real() + config_.io_timeout;
    }
  }
  return results;
}

WriteResult WormClient::write(core::WriteRequest request,
                              core::Sn expected_sn) {
  Request req;
  req.op = MsgOp::kWrite;
  req.route_version = route_version_;
  req.route_shard = route_shard_;
  req.expected_sn = expected_sn;
  req.write = std::move(request);
  Response resp = transact(std::move(req));
  if (resp.status != core::WireStatus::kOk &&
      resp.status != core::WireStatus::kBusy &&
      resp.status != core::WireStatus::kStaleRoute &&
      resp.status != core::WireStatus::kSnMismatch) {
    core::throw_wire_error(resp.status, resp.message);
  }
  WriteResult out;
  out.status = resp.status;
  out.sn = resp.sn;
  out.message = std::move(resp.message);
  return out;
}

void WormClient::set_route(std::uint32_t version, std::uint32_t shard) {
  route_version_ = version;
  route_shard_ = shard;
}

ShardMapResult WormClient::fetch_shard_map() {
  Request req;
  req.op = MsgOp::kShardMap;
  Response resp = transact(std::move(req));
  if (resp.status != core::WireStatus::kOk) {
    core::throw_wire_error(resp.status, resp.message);
  }
  return ShardMapResult{resp.shard_id, std::move(resp.shard_map)};
}

void WormClient::lit_hold(const core::LitigationRequest& request) {
  Request req;
  req.op = MsgOp::kLitHold;
  req.lit = request;
  Response resp = transact(std::move(req));
  if (resp.status != core::WireStatus::kOk) {
    core::throw_wire_error(resp.status, resp.message);
  }
}

void WormClient::lit_release(const core::LitigationRequest& request) {
  Request req;
  req.op = MsgOp::kLitRelease;
  req.lit = request;
  Response resp = transact(std::move(req));
  if (resp.status != core::WireStatus::kOk) {
    core::throw_wire_error(resp.status, resp.message);
  }
}

void WormClient::ping() {
  Request req;
  req.op = MsgOp::kPing;
  Response resp = transact(std::move(req));
  if (resp.status != core::WireStatus::kOk) {
    core::throw_wire_error(resp.status, resp.message);
  }
}

Response WormClient::transact(Request req) {
  req.rid = next_rid_++;
  // Encode into the reused scratch buffer: steady-state requests allocate
  // nothing once the arena is warm.
  out_.buffer().clear();
  append_request_frame(out_.buffer(), req);

  // io_timeout bounds the whole round trip against an absolute deadline — a
  // server that trickles one byte per poll wakeup cannot keep resetting the
  // window and pin the caller indefinitely.
  const common::Duration deadline = common::now_real() + config_.io_timeout;
  send_all(out_.buffer(), deadline, req.op);
  Response resp = next_response(deadline, req.op);
  if (resp.rid != req.rid || resp.op != req.op) {
    throw common::ParseError(
        "WormClient: response echo mismatch (sent " +
        std::string(to_string(req.op)) + " rid " + std::to_string(req.rid) +
        ", got " + std::string(to_string(resp.op)) + " rid " +
        std::to_string(resp.rid) + ")");
  }
  adopt_attestations(resp);
  return resp;
}

void WormClient::send_all(const Bytes& frames, common::Duration deadline,
                          MsgOp op) {
  std::size_t off = 0;
  while (off < frames.size()) {
    IoResult r = common::write_some(sock_, frames, off);
    if (r == IoResult::kOk) continue;
    if (r != IoResult::kWouldBlock) {
      throw NetError("WormClient: connection lost while sending " +
                     std::string(to_string(op)));
    }
    // The kernel buffer is full: wait for writability. time_left() throws
    // once the deadline passes, bounding a stalled send.
    std::vector<common::PollFd> pfds{{sock_.fd(), POLLOUT, 0}};
    (void)common::poll_fds(pfds, time_left(deadline, "sending", op));
  }
}

Response WormClient::next_response(common::Duration deadline, MsgOp op) {
  // The response may already be buffered from a previous partial read.
  for (;;) {
    if (auto body = take_frame(in_, in_off_)) {
      compact_frames(in_, in_off_);
      return decode_response(*body);
    }
    std::vector<common::PollFd> pfds{{sock_.fd(), POLLIN, 0}};
    if (common::poll_fds(pfds, time_left(deadline, "awaiting the answer to",
                                         op)) == 0) {
      continue;  // the next time_left() call settles whether time is left
    }
    IoResult r = common::read_some(sock_, in_, 64 * 1024);
    if (r == IoResult::kClosed || r == IoResult::kError) {
      throw NetError(
          "WormClient: connection closed while awaiting the answer to " +
          std::string(to_string(op)));
    }
  }
}

}  // namespace worm::server
