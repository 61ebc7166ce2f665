// WormServer: the multi-tenant network front-end. One store, many mutually
// distrusting principals over keep-alive connections.
//
// Shape (DESIGN.md §11):
//  * a small pool of event-loop threads over non-blocking sockets; loop 0
//    also owns the listener and deals new connections round-robin to the
//    others through per-loop intake queues; a loop with no connection
//    sleeps until it is dealt one;
//  * length-prefixed frames (server/protocol.hpp); a frame whose declared
//    length exceeds kMaxFrameBytes drops the connection before any
//    allocation;
//  * authentication first: the opening frame must be a kHello carrying an
//    HMAC session token; success binds the connection to a WormSession
//    (the principal's handle on the store) minted by the session factory.
//    This header never names the store type — worm-lint rule
//    server-store-isolation keeps every store touch inside the session
//    layer;
//  * writes go through the session's non-blocking try_write_async: a full
//    pipeline answers kBusy on the wire instead of stalling the loop. Once
//    every connection's frames of an iteration are handled, the loop asks
//    each pending ticket: that makes its group due in its own store's
//    pipeline, and the resolved ones are answered, so admissions never
//    block;
//  * each frame is answered as it is decoded, so responses leave in arrival
//    order: a kRead is one WormSession::read, a kReadBatch one read_many;
//  * reads stream the record+proof envelope verbatim; the server is
//    untrusted for integrity and clients verify with ClientVerifier. The
//    optional fault injector's "server.response" site models exactly that
//    adversary (bit-flips a response body in flight);
//  * each response reads the store's latest S_s(SN_current) and epoch cert
//    and forwards whichever moved since the connection last saw it (from a
//    batch ack, a heartbeat alarm or another connection's ping), in the
//    response's attestation slots; steady-state pings ride the store's
//    epoch cert and cross the SCPU mailbox only once it actually goes stale
//    (O(1)-amortized freshness).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/net.hpp"
#include "common/thread_pool.hpp"
#include "server/protocol.hpp"

namespace worm::server {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path. Empty: loopback TCP.
  std::string unix_path;
  /// TCP port (0 = ephemeral; see WormServer::port()). Used when unix_path
  /// is empty.
  std::uint16_t tcp_port = 0;
  /// Event-loop threads. Loop 0 additionally accepts. Must be >= 1.
  std::size_t loops = 2;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Optional adversary: site "server.response" bit-flips an encoded
  /// response body between store and socket (kBitFlip). Not owned.
  common::FaultInjector* fault = nullptr;

  /// Cluster membership (v3). A clustered deployment sets the shard this
  /// server owns, the shard-map version it was configured under, and the
  /// encoded map (opaque here — produced by cluster::ShardMap::serialize,
  /// answered verbatim to kShardMap). Left at the defaults, the server is
  /// standalone: kShardMap is refused and the all-zero routing header on
  /// kWrite/kRead passes the route check untouched.
  std::uint32_t shard_id = 0;
  std::uint32_t route_version = 0;
  common::Bytes shard_map_blob;

  /// Non-empty: only this principal may issue kWrite frames (kBadRequest for
  /// everyone else). Replicated deployments set it to enforce the
  /// single-writer-per-shard assumption the cluster's deterministic SN
  /// assignment rests on — two sequencers racing the same replica set would
  /// interleave at the commit-time expected_sn guard instead of silently
  /// desynchronizing SN spaces. Empty (default): any authenticated
  /// principal may write (standalone deployments).
  std::string writer_principal;
};

/// Principal -> shared secret registry the server authenticates against.
/// Populated before start(); read-only afterwards.
class AuthRegistry {
 public:
  void add(std::string principal, common::Bytes secret);
  [[nodiscard]] bool check(std::string_view principal,
                           common::ByteView token) const;
  /// Token a legitimate holder of the secret would present (test/bench
  /// convenience; deployment mints out of band).
  [[nodiscard]] common::Bytes mint(std::string_view principal) const;

 private:
  std::map<std::string, common::Bytes, std::less<>> secrets_;
};

/// Mints the session for an authenticated principal. The factory owns the
/// choice of store and trusted time source; the server just routes requests
/// through whatever session it gets.
using SessionFactory =
    std::function<std::unique_ptr<core::WormSession>(std::string_view)>;

class WormServer {
 public:
  WormServer(ServerConfig config, AuthRegistry auth, SessionFactory sessions);
  ~WormServer();

  WormServer(const WormServer&) = delete;
  WormServer& operator=(const WormServer&) = delete;

  /// Binds the listener and starts the event loops. Throws NetError on bind
  /// failure.
  void start();
  /// Stops the loops and closes every connection. Idempotent; also run by
  /// the destructor.
  void stop();

  /// The bound TCP port (after start(); 0 for Unix-domain servers).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }
  [[nodiscard]] const std::string& unix_path() const {
    return config_.unix_path;
  }

  struct StatsSnapshot {
    std::uint64_t accepted = 0;        // connections accepted
    std::uint64_t rejected_full = 0;   // closed at max_connections
    std::uint64_t requests = 0;        // frames decoded
    std::uint64_t responses = 0;       // frames sent
    std::uint64_t busy = 0;            // writes answered kBusy
    std::uint64_t auth_failures = 0;
    std::uint64_t parse_errors = 0;    // malformed frames (connection dropped)
    std::uint64_t errors = 0;          // exceptions mapped to error statuses
    std::uint64_t accept_errors = 0;   // accept() failures (e.g. EMFILE)
    std::uint64_t loop_errors = 0;     // event-loop iterations that threw
    std::uint64_t read_batch_frames = 0;  // kReadBatch frames served
    std::uint64_t read_batch_sns = 0;     // SNs inside those frames
  };
  [[nodiscard]] StatsSnapshot stats() const;

 private:
  struct PendingWrite {
    std::uint64_t rid = 0;
    /// The request's sequencing condition (0 = unconditional), re-checked
    /// against the assigned SN when the ticket resolves.
    std::uint64_t expected_sn = 0;
    core::WriteTicket ticket;
  };

  struct Conn {
    common::Socket sock;
    common::Bytes in;
    std::size_t in_off = 0;  // consumed-frame offset; see compact_frames
    common::Bytes out;
    std::size_t out_off = 0;
    bool closing = false;  // flush out, then close
    /// Set by a successful kHello; null until then.
    std::unique_ptr<core::WormSession> session;
    std::vector<PendingWrite> pending;
    /// Stamp of the last attestation forwarded on this connection.
    common::SimTime attested_at{INT64_MIN};
    /// Highest epoch-cert epoch forwarded on this connection.
    std::uint64_t attested_epoch = 0;
  };

  void loop_main(std::size_t loop_idx);
  /// One poll/dispatch/flush/reap pass; any exception it raises is caught in
  /// loop_main (an escape would take down the whole process).
  void loop_iteration(std::size_t loop_idx,
                      std::vector<std::unique_ptr<Conn>>& conns,
                      std::deque<common::Socket>& fresh);
  void accept_pending(std::deque<common::Socket>& local);
  /// Handles one decoded frame and appends its response to conn.out, so
  /// answers leave in arrival order. A kWrite is the exception: its ack
  /// waits for the ticket (resolve_pending).
  void handle_frame(Conn& conn, const common::Bytes& body);
  /// Asks each of conn's pending tickets (an unresolved one's group becomes
  /// due) and answers the resolved ones.
  void resolve_pending(Conn& conn);
  /// Encodes `resp` onto the end of conn.out.
  void send_response(Conn& conn, Response resp);
  /// Reads the store's heartbeat and epoch cert once (through the session)
  /// and forwards each that is newer than what this connection was sent.
  void stamp_attestation(Conn& conn, Response& resp);

  ServerConfig config_;
  AuthRegistry auth_;
  SessionFactory sessions_;

  common::Socket listener_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Accepted sockets awaiting adoption by a loop, dealt round-robin. A loop
  // other than 0 with no connection has nothing to poll, so it waits on
  // intake_cv_ until a socket is dealt to it or stop() runs.
  common::AnnotatedMutex intake_mu_;
  std::condition_variable_any intake_cv_;
  std::vector<std::deque<common::Socket>> intake_ GUARDED_BY(intake_mu_);
  std::size_t next_loop_ GUARDED_BY(intake_mu_) = 0;
  std::atomic<std::size_t> live_conns_{0};

  struct Stats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_full{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> auth_failures{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> accept_errors{0};
    std::atomic<std::uint64_t> loop_errors{0};
    std::atomic<std::uint64_t> read_batch_frames{0};
    std::atomic<std::uint64_t> read_batch_sns{0};
  };
  Stats stats_;

  std::unique_ptr<common::ThreadPool> loops_;
};

}  // namespace worm::server
