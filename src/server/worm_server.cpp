#include "server/worm_server.hpp"

#include <poll.h>

#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace worm::server {

using common::Bytes;
using common::IoResult;
using common::MutexLock;

namespace {
/// Poll timeout per loop iteration; also how often admitted write tickets
/// are re-checked.
constexpr common::Duration kPollInterval = common::Duration::millis(1);
}  // namespace

void AuthRegistry::add(std::string principal, common::Bytes secret) {
  secrets_[std::move(principal)] = std::move(secret);
}

bool AuthRegistry::check(std::string_view principal,
                         common::ByteView token) const {
  auto it = secrets_.find(principal);
  if (it == secrets_.end()) {
    // Burn the same HMAC work as the found path so an unknown principal is
    // not distinguishable by timing.
    static const Bytes kDecoy(32, 0x5a);
    (void)core::check_session_token(kDecoy, principal, token);
    return false;
  }
  return core::check_session_token(it->second, principal, token);
}

common::Bytes AuthRegistry::mint(std::string_view principal) const {
  auto it = secrets_.find(principal);
  WORM_REQUIRE(it != secrets_.end(),
               "AuthRegistry::mint: unknown principal " +
                   std::string(principal));
  return core::mint_session_token(it->second, principal);
}

WormServer::WormServer(ServerConfig config, AuthRegistry auth,
                       SessionFactory sessions)
    : config_(std::move(config)),
      auth_(std::move(auth)),
      sessions_(std::move(sessions)) {
  WORM_REQUIRE(config_.loops >= 1, "WormServer: loops must be >= 1");
  WORM_REQUIRE(sessions_ != nullptr, "WormServer: null session factory");
}

WormServer::~WormServer() { stop(); }

void WormServer::start() {
  WORM_REQUIRE(!started_, "WormServer::start: already started");
  if (!config_.unix_path.empty()) {
    listener_ = common::listen_unix(config_.unix_path);
  } else {
    listener_ = common::listen_tcp_loopback(config_.tcp_port, &bound_port_);
  }
  {
    MutexLock lk(intake_mu_);
    intake_.resize(config_.loops);
  }
  stop_.store(false, std::memory_order_release);
  loops_ = std::make_unique<common::ThreadPool>(config_.loops);
  for (std::size_t i = 0; i < config_.loops; ++i) {
    loops_->submit([this, i] { loop_main(i); });
  }
  started_ = true;
  WORM_INFO("server", "listening (",
            config_.unix_path.empty()
                ? "tcp port " + std::to_string(bound_port_)
                : config_.unix_path,
            "), ", config_.loops, " loop(s)");
}

void WormServer::stop() {
  if (!started_) return;
  {
    // Under the intake lock, so an idle loop cannot miss the wake-up
    // between checking stop_ and waiting.
    MutexLock lk(intake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  intake_cv_.notify_all();
  loops_.reset();  // joins every loop; their Conn lists unwind with them
  listener_.reset();
  started_ = false;
}

WormServer::StatsSnapshot WormServer::stats() const {
  StatsSnapshot s;
  s.accepted = stats_.accepted.load();
  s.rejected_full = stats_.rejected_full.load();
  s.requests = stats_.requests.load();
  s.responses = stats_.responses.load();
  s.busy = stats_.busy.load();
  s.auth_failures = stats_.auth_failures.load();
  s.parse_errors = stats_.parse_errors.load();
  s.errors = stats_.errors.load();
  s.accept_errors = stats_.accept_errors.load();
  s.loop_errors = stats_.loop_errors.load();
  s.read_batch_frames = stats_.read_batch_frames.load();
  s.read_batch_sns = stats_.read_batch_sns.load();
  return s;
}

void WormServer::accept_pending(std::deque<common::Socket>& local) {
  for (;;) {
    common::Socket s = common::accept_connection(listener_);
    if (!s.valid()) return;
    if (live_conns_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      stats_.rejected_full.fetch_add(1, std::memory_order_relaxed);
      continue;  // Socket destructor closes it
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    live_conns_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lk(intake_mu_);
    std::size_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % intake_.size();
    if (target == 0) {
      local.push_back(std::move(s));  // our own share, no second lock trip
    } else {
      intake_[target].push_back(std::move(s));
      intake_cv_.notify_all();
    }
  }
}

void WormServer::stamp_attestation(Conn& conn, Response& resp) {
  if (conn.session == nullptr) return;
  const core::SignedSnCurrent& wm = conn.session->watermark();
  if (!wm.sig.empty() && wm.stamped_at.ns > conn.attested_at.ns) {
    resp.attestation = wm;
    conn.attested_at = wm.stamped_at;
  }
  const std::optional<core::EpochCert>& cert = conn.session->epoch_cert();
  if (cert.has_value() && cert->epoch > conn.attested_epoch) {
    resp.epoch_cert = *cert;
    conn.attested_epoch = cert->epoch;
  }
}

void WormServer::send_response(Conn& conn, Response resp) {
  Bytes& out = conn.out;
  stamp_attestation(conn, resp);
  // Zero-copy: the frame is encoded straight into the connection's output
  // buffer (length prefix back-patched) — no per-response body allocation.
  std::size_t frame_start = out.size();
  append_response_frame(out, resp);
  // The untrusted-server adversary: corrupt a served payload between store
  // and socket. Clients must convict this with ClientVerifier — the server
  // test proves they do. Payload blobs sit at the tail of a read response
  // (for a batch, of its last served slot), so the flip lands in record
  // data, not framing.
  const core::ReadOk* ok = nullptr;
  if (resp.op == MsgOp::kRead && resp.outcome.served()) {
    ok = resp.outcome.ok();
  } else if (resp.op == MsgOp::kReadBatch && !resp.slots.empty() &&
             core::is_served_status(resp.slots.back().status)) {
    ok = resp.slots.back().outcome.ok();
  }
  if (config_.fault != nullptr && ok != nullptr &&
      WORM_FAULT_POINT(config_.fault, "server.response") ==
          common::FaultKind::kBitFlip) {
    std::size_t last = ok->payloads.back().size();
    std::size_t body_bytes = out.size() - frame_start - 4;
    if (last > 0 && body_bytes >= last) {
      std::size_t base = out.size() - last;
      std::uint64_t bit = config_.fault->shape(last * 8);
      out[base + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
}

void WormServer::handle_frame(Conn& conn, const Bytes& body) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  Request req;
  try {
    req = decode_request(body);
  } catch (const common::ParseError& e) {
    stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.op = MsgOp::kPing;  // the request op may itself be unparseable
    resp.rid = 0;
    resp.status = core::WireStatus::kParseError;
    resp.message = e.what();
    send_response(conn, resp);
    conn.closing = true;  // framing is fine but content wasn't; drop politely
    return;
  }

  Response resp;
  resp.op = req.op;
  resp.rid = req.rid;

  if (req.op == MsgOp::kHello) {
    if (conn.session != nullptr) {
      resp.status = core::WireStatus::kBadRequest;
      resp.message = "already authenticated";
    } else if (req.version != kProtocolVersion) {
      resp.status = core::WireStatus::kBadRequest;
      resp.message = "protocol version " + std::to_string(req.version) +
                     " unsupported (server speaks " +
                     std::to_string(kProtocolVersion) + ")";
    } else if (!auth_.check(req.principal, req.token)) {
      stats_.auth_failures.fetch_add(1, std::memory_order_relaxed);
      resp.status = core::WireStatus::kAuthFailed;
      resp.message = "unknown principal or bad token";
      conn.closing = true;
    } else {
      // The factory touches the store (e.g. it may be degraded); a throw
      // here must become a wire error, not escape past loop_main.
      try {
        conn.session = sessions_(req.principal);
        resp.status = core::WireStatus::kOk;
      } catch (const std::exception& e) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        resp.status = core::to_wire(core::classify(e));
        resp.message = e.what();
        conn.closing = true;
      }
    }
    send_response(conn, resp);
    return;
  }

  if (conn.session == nullptr) {
    resp.status = core::WireStatus::kAuthRequired;
    resp.message = "first frame must be a hello";
    send_response(conn, resp);
    return;
  }

  // Route check before any SN is touched: a client holding a skewed shard
  // map gets a retryable kStaleRoute, never a silently misrouted answer.
  // Standalone servers and plain clients both leave the header at 0/0.
  bool route_stale = (req.op == MsgOp::kRead || req.op == MsgOp::kWrite ||
                      req.op == MsgOp::kReadBatch) &&
                     (req.route_version != config_.route_version ||
                      req.route_shard != config_.shard_id);
  auto stale_message = [&] {
    return "routing header v" + std::to_string(req.route_version) +
           "/shard " + std::to_string(req.route_shard) +
           " does not match this replica (v" +
           std::to_string(config_.route_version) + "/shard " +
           std::to_string(config_.shard_id) + ")";
  };
  if (route_stale && req.op != MsgOp::kReadBatch) {
    resp.status = core::WireStatus::kStaleRoute;
    resp.message = stale_message();
    send_response(conn, resp);
    return;
  }

  try {
    switch (req.op) {
      case MsgOp::kRead:
        resp.outcome = conn.session->read(req.sn);
        resp.status = core::to_wire(resp.outcome.status());
        break;
      case MsgOp::kReadBatch: {
        // Count-preserving: status kOk and one slot per requested SN. A
        // frame-wide failure (stale route, a sweep that throws) repeats in
        // every slot, so the client's rid-matched reassembly never sees a
        // short batch. The frame's one attestation slot covers every answer.
        stats_.read_batch_frames.fetch_add(1, std::memory_order_relaxed);
        stats_.read_batch_sns.fetch_add(req.sns.size(),
                                        std::memory_order_relaxed);
        resp.status = core::WireStatus::kOk;
        if (route_stale) {
          resp.slots.assign(req.sns.size(),
                            BatchSlot{core::WireStatus::kStaleRoute, {},
                                      stale_message()});
          break;
        }
        resp.slots.reserve(req.sns.size());
        try {
          for (core::ReadOutcome& outcome : conn.session->read_many(req.sns)) {
            BatchSlot& slot = resp.slots.emplace_back();
            slot.status = core::to_wire(outcome.status());
            slot.outcome = std::move(outcome);
          }
        } catch (const std::exception& e) {
          stats_.errors.fetch_add(1, std::memory_order_relaxed);
          resp.slots.assign(req.sns.size(),
                            BatchSlot{core::to_wire(core::classify(e)), {},
                                      e.what()});
        }
        break;
      }
      case MsgOp::kWrite: {
        if (!config_.writer_principal.empty() &&
            conn.session->principal() != config_.writer_principal) {
          resp.status = core::WireStatus::kBadRequest;
          resp.message = "writes on this replica are restricted to principal '" +
                         config_.writer_principal + "'";
          break;
        }
        if (!conn.session->async_capable()) {
          resp.status = core::WireStatus::kBadRequest;
          resp.message = "store has no write pipeline (async writes off)";
          break;
        }
        if (req.expected_sn != 0) {
          // v4 sequencing condition: admit only if the store's next SN is
          // exactly the one the writer expects; otherwise answer the actual
          // next so the writer converges its cursor. expected_sn == ~0 can
          // never match — a pure cursor probe that writes nothing.
          core::Sn next = conn.session->next_sn();
          if (next != req.expected_sn) {
            resp.status = core::WireStatus::kSnMismatch;
            resp.sn = next;
            resp.message = "expected SN " + std::to_string(req.expected_sn) +
                           " but this replica assigns " + std::to_string(next) +
                           " next";
            break;
          }
        }
        std::optional<core::WriteTicket> ticket =
            conn.session->try_write_async(std::move(req.write));
        if (!ticket.has_value()) {
          stats_.busy.fetch_add(1, std::memory_order_relaxed);
          resp.status = core::WireStatus::kBusy;
          resp.message = "write pipeline at capacity; retry after a pause";
          break;
        }
        // Response deferred: the ticket is polled every loop iteration and
        // answered when the committer lands the group. The event loop never
        // blocks on it.
        conn.pending.push_back(
            PendingWrite{req.rid, req.expected_sn, std::move(*ticket)});
        return;
      }
      case MsgOp::kLitHold:
        conn.session->lit_hold(req.lit);
        resp.status = core::WireStatus::kOk;
        break;
      case MsgOp::kLitRelease:
        conn.session->lit_release(req.lit);
        resp.status = core::WireStatus::kOk;
        break;
      case MsgOp::kPing:
        // A ping is the remote freshness lever — but a mailbox crossing is
        // only paid when the session is actually stale. Steady state, the
        // cached epoch cert keeps the session fresh and the pong forwards
        // it with zero attestation crossings (the tentpole's O(1)
        // amortization); once it ages past the horizon, force a heartbeat
        // so the pong carries a just-stamped attestation.
        conn.session->sync();
        if (!conn.session->fresh(conn.session->freshness_horizon())) {
          (void)conn.session->refresh();
        }
        resp.status = core::WireStatus::kOk;
        break;
      case MsgOp::kShardMap:
        if (config_.shard_map_blob.empty()) {
          resp.status = core::WireStatus::kBadRequest;
          resp.message = "server is not part of a cluster";
          break;
        }
        resp.shard_id = config_.shard_id;
        resp.shard_map = config_.shard_map_blob;
        resp.status = core::WireStatus::kOk;
        break;
      case MsgOp::kHello:
        break;  // handled above
    }
  } catch (const std::exception& e) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    resp.status = core::to_wire(core::classify(e));
    resp.message = e.what();
  }
  send_response(conn, resp);
}

void WormServer::resolve_pending(Conn& conn) {
  for (auto it = conn.pending.begin(); it != conn.pending.end();) {
    if (!it->ticket.ready()) {
      ++it;
      continue;
    }
    Response resp;
    resp.op = MsgOp::kWrite;
    resp.rid = it->rid;
    try {
      resp.sn = it->ticket.get();  // resolved: returns without blocking
      resp.status = core::WireStatus::kOk;
      if (it->expected_sn != 0 && resp.sn != it->expected_sn) {
        // A concurrent write slipped between the admission check and the
        // commit (a deployment racing two writers past the writer_principal
        // gate). The record is durable at resp.sn, but the sequencer asked
        // for a different slot — answer the mismatch so it never counts
        // this ack at the SN it expected.
        resp.status = core::WireStatus::kSnMismatch;
        resp.message = "expected SN " + std::to_string(it->expected_sn) +
                       " but the commit assigned " + std::to_string(resp.sn) +
                       " (concurrent writer?)";
        resp.sn = conn.session->next_sn();
      }
      // The commit this ticket waited on adopted the batch ack's watermark
      // and epoch cert into the store; sync so the ack we are about to send
      // forwards them (the amortized-freshness carrier rides write acks).
      conn.session->sync();
    } catch (const std::exception& e) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      resp.status = core::to_wire(core::classify(e));
      resp.message = e.what();
    }
    send_response(conn, resp);
    it = conn.pending.erase(it);
  }
}

void WormServer::loop_main(std::size_t loop_idx) {
  std::vector<std::unique_ptr<Conn>> conns;
  std::deque<common::Socket> fresh;

  // An exception escaping a ThreadPool task terminates the process, so the
  // loop body must never let one out: per-iteration failures (fd exhaustion
  // in accept, a poll error) are logged and survived.
  while (!stop_.load(std::memory_order_acquire)) {
    try {
      loop_iteration(loop_idx, conns, fresh);
    } catch (const std::exception& e) {
      std::uint64_t n =
          stats_.loop_errors.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((n & (n - 1)) == 0) {  // log at 1, 2, 4, 8, ... to bound spam
        WORM_WARN("server", "loop ", loop_idx, " iteration failed (error #",
                  n, ", continuing): ", e.what());
      }
      common::sleep_real(kPollInterval);  // don't spin on a hot fault
    }
  }

  // Loop shutdown: connections close with their sockets.
  for (const auto& conn : conns) {
    live_conns_.fetch_sub(1, std::memory_order_relaxed);
    (void)conn;
  }
}

void WormServer::loop_iteration(std::size_t loop_idx,
                                std::vector<std::unique_ptr<Conn>>& conns,
                                std::deque<common::Socket>& fresh) {
  // Adopt connections dealt to this loop. A loop with no connection would
  // have an empty poll set, so it sleeps here instead of spinning (loop 0
  // always polls the listener).
  {
    MutexLock lk(intake_mu_);
    while (loop_idx != 0 && conns.empty() && intake_[loop_idx].empty() &&
           !stop_.load(std::memory_order_acquire)) {
      intake_cv_.wait(lk);
    }
    while (!intake_[loop_idx].empty()) {
      fresh.push_back(std::move(intake_[loop_idx].front()));
      intake_[loop_idx].pop_front();
    }
  }
  while (!fresh.empty()) {
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(fresh.front());
    fresh.pop_front();
    conns.push_back(std::move(conn));
  }

  // Poll: every connection for reads, writers for drain, loop 0 for
  // accepts.
  std::vector<common::PollFd> pfds;
  pfds.reserve(conns.size() + 1);
  if (loop_idx == 0) {
    pfds.push_back({listener_.fd(), POLLIN, 0});
  }
  for (const auto& conn : conns) {
    short events = POLLIN;
    if (conn->out_off < conn->out.size()) {
      events = static_cast<short>(events | POLLOUT);
    }
    pfds.push_back({conn->sock.fd(), events, 0});
  }
  if (!pfds.empty()) {
    (void)common::poll_fds(pfds, kPollInterval);
  }

  std::size_t base = 0;
  if (loop_idx == 0) {
    base = 1;
    if ((pfds[0].revents & POLLIN) != 0) {
      try {
        accept_pending(fresh);
      } catch (const common::NetError& e) {
        // EMFILE/ENFILE under a connection flood is transient: the backlog
        // stays pending and the next POLLIN retries once fds free up.
        std::uint64_t n =
            stats_.accept_errors.fetch_add(1, std::memory_order_relaxed) + 1;
        if ((n & (n - 1)) == 0) {
          WORM_WARN("server", "accept failed (error #", n, "): ", e.what());
        }
      }
    }
  }

  for (std::size_t i = 0; i < conns.size(); ++i) {
    Conn& conn = *conns[i];
    short rev = pfds[base + i].revents;

    if (!conn.closing && (rev & (POLLIN | POLLHUP | POLLERR)) != 0) {
      for (;;) {
        IoResult r = common::read_some(conn.sock, conn.in, 64 * 1024);
        if (r == IoResult::kOk) continue;
        if (r == IoResult::kWouldBlock) break;
        conn.closing = true;  // kClosed / kError: peer is gone
        conn.out.clear();
        conn.out_off = 0;
        break;
      }
      try {
        while (auto body = take_frame(conn.in, conn.in_off)) {
          handle_frame(conn, *body);
          if (conn.closing) break;
        }
      } catch (const common::ParseError&) {
        // Oversized/undecodable framing: the stream cannot be resynced.
        stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        conn.closing = true;
      }
      // One compaction per drain, so a pipelined burst is linear in the
      // bytes buffered instead of quadratic (per-frame front erase).
      compact_frames(conn.in, conn.in_off);
    }
  }

  // Every connection's frames of this iteration are handled, so a group
  // can form from all of their admissions: only now ask the tickets.
  // Asking an unresolved one makes its group due in its own store's
  // pipeline (sessions may sit on distinct stores).
  for (const auto& c : conns) {
    Conn& conn = *c;
    resolve_pending(conn);

    // Flush what the kernel will take.
    while (conn.out_off < conn.out.size()) {
      IoResult r = common::write_some(conn.sock, conn.out, conn.out_off);
      if (r == IoResult::kOk) continue;
      if (r != IoResult::kWouldBlock) {
        // Peer reset mid-response: nothing more can be delivered. Drop
        // the backlog too, or the reap below would wait forever for a
        // drain that can never happen (leaking the Conn and its fd).
        conn.closing = true;
        conn.pending.clear();
        conn.out.clear();
        conn.out_off = 0;
      }
      break;
    }
    if (conn.out_off >= conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  // Reap: closing connections with nothing left to flush (or dead pipes).
  for (auto it = conns.begin(); it != conns.end();) {
    Conn& conn = **it;
    bool drained = conn.out_off >= conn.out.size();
    if (conn.closing && conn.pending.empty() && drained) {
      live_conns_.fetch_sub(1, std::memory_order_relaxed);
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace worm::server
