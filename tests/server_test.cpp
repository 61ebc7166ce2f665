// WormServer integration: authentication, remote read/write/litigation with
// client-side verification (the server is untrusted), proof-stream
// equivalence against in-process reads, kBusy backpressure on the wire,
// attestation forwarding, and conviction of a server that tampers with a
// response in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "fault_fixture.hpp"
#include "server/client/worm_client.hpp"
#include "server/worm_server.hpp"
#include "worm_fixture.hpp"

namespace worm::server {
namespace {

using common::Bytes;
using common::Duration;
using worm::testing::outcome_fingerprint;
using worm::testing::regulator_key;
using worm::testing::Rig;

core::StoreConfig pipelined() {
  core::StoreConfig sc;
  sc.pipeline.enabled = true;
  return sc;
}

/// One simulated deployment plus a WormServer over loopback TCP.
struct ServerRig {
  explicit ServerRig(core::StoreConfig sc = pipelined(),
                     ServerConfig cfg = ServerConfig{}) : rig({}, sc) {
    auth.add("alice", common::to_bytes("alice-secret"));
    auth.add("bob", common::to_bytes("bob-secret"));
    server.emplace(cfg, auth,
                   [this](std::string_view principal) {
                     return std::make_unique<core::WormSession>(
                         rig.store, std::string(principal), rig.clock);
                   });
    server->start();
  }

  ClientConfig client_config(const std::string& principal) const {
    ClientConfig c;
    c.tcp_port = server->port();
    c.principal = principal;
    c.token = auth.mint(principal);
    return c;
  }

  WormClient connect(const std::string& principal = "alice") {
    return WormClient(client_config(principal));
  }

  core::WriteRequest record(const std::string& text) const {
    core::WriteRequest w;
    w.payloads = {common::to_bytes(text)};
    w.attr.retention = Duration::days(30);
    w.attr.regulation_policy = 17;
    return w;
  }

  Rig rig;
  AuthRegistry auth;
  std::optional<WormServer> server;
};

TEST(Net, ReadSomeAppendsAFrameThatArrivesInPieces) {
  // Each read appends exactly what the kernel delivered after the bytes
  // the buffer already holds; the frame is whole only with its last piece.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  common::Socket reader(fds[0]);
  common::Socket writer(fds[1]);
  common::set_nonblocking(reader);
  Bytes body(3000);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Bytes frame = encode_frame(body);
  Bytes in = {0xEE};  // a byte an earlier frame left consumed in place
  std::size_t in_off = 1;
  EXPECT_EQ(common::read_some(reader, in, 64 * 1024),
            common::IoResult::kWouldBlock);
  EXPECT_EQ(in, Bytes{0xEE});
  const std::vector<std::size_t> cuts = {0, 3, 4, 1500, frame.size()};
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    EXPECT_FALSE(take_frame(in, in_off).has_value()) << "piece " << k;
    const Bytes piece(frame.begin() + static_cast<std::ptrdiff_t>(cuts[k]),
                      frame.begin() + static_cast<std::ptrdiff_t>(cuts[k + 1]));
    std::size_t off = 0;
    while (off < piece.size()) {
      ASSERT_EQ(common::write_some(writer, piece, off), common::IoResult::kOk);
    }
    ASSERT_EQ(common::read_some(reader, in, 64 * 1024), common::IoResult::kOk);
    EXPECT_EQ(in.size(), 1 + cuts[k + 1]) << "piece " << k;
  }
  EXPECT_EQ(common::read_some(reader, in, 64 * 1024),
            common::IoResult::kWouldBlock);
  std::optional<Bytes> got = take_frame(in, in_off);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_EQ(in.front(), 0xEE);
  writer.reset();
  EXPECT_EQ(common::read_some(reader, in, 64 * 1024),
            common::IoResult::kClosed);
}

/// Blocking request/response over a raw socket, for tests that must speak
/// below the client library (unauthenticated frames, garbage).
Response raw_transact(const common::Socket& sock, const Request& req) {
  Bytes frame = encode_frame(encode_request(req));
  std::size_t off = 0;
  while (off < frame.size()) {
    if (common::write_some(sock, frame, off) == common::IoResult::kError) {
      throw common::NetError("raw_transact: send failed");
    }
  }
  Bytes in;
  std::size_t in_off = 0;
  for (;;) {
    if (auto body = take_frame(in, in_off)) {
      return decode_response(*body);
    }
    std::vector<common::PollFd> pfds{{sock.fd(), POLLIN, 0}};
    if (common::poll_fds(pfds, Duration::seconds(10)) == 0) {
      throw common::NetError("raw_transact: timed out");
    }
    auto r = common::read_some(sock, in, 4096);
    if (r == common::IoResult::kClosed || r == common::IoResult::kError) {
      throw common::NetError("raw_transact: connection closed");
    }
  }
}

TEST(WormServer, RejectsBadTokenAndUnknownPrincipal) {
  ServerRig srv;

  ClientConfig bad = srv.client_config("alice");
  bad.token = Bytes(32, 0x00);
  EXPECT_THROW((void)WormClient(std::move(bad)), common::Error);

  ClientConfig mallory = srv.client_config("alice");
  mallory.principal = "mallory";
  EXPECT_THROW((void)WormClient(std::move(mallory)), common::Error);

  EXPECT_GE(srv.server->stats().auth_failures, 2u);

  // A legitimate holder of the secret still gets in.
  WormClient ok = srv.connect("alice");
  ok.ping();
}

TEST(WormServer, RefusesRequestsBeforeHello) {
  ServerRig srv;
  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  Request read;
  read.op = MsgOp::kRead;
  read.rid = 9;
  read.sn = 1;
  Response resp = raw_transact(sock, read);
  EXPECT_EQ(resp.status, core::WireStatus::kAuthRequired);
  EXPECT_EQ(resp.rid, 9u);
}

TEST(WormServer, GarbageFrameAnswersParseErrorAndDrops) {
  ServerRig srv;
  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x99};
  Bytes frame = encode_frame(garbage);
  std::size_t off = 0;
  while (off < frame.size()) {
    ASSERT_NE(common::write_some(sock, frame, off), common::IoResult::kError);
  }
  Bytes in;
  std::size_t in_off = 0;
  std::optional<Response> resp;
  for (int i = 0; i < 10000 && !resp; ++i) {
    std::vector<common::PollFd> pfds{{sock.fd(), POLLIN, 0}};
    (void)common::poll_fds(pfds, Duration::millis(10));
    auto r = common::read_some(sock, in, 4096);
    if (auto body = take_frame(in, in_off)) resp = decode_response(*body);
    if (r == common::IoResult::kClosed) break;
  }
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, core::WireStatus::kParseError);
  EXPECT_GE(srv.server->stats().parse_errors, 1u);
}

TEST(WormServer, OversizedFrameHeaderDropsTheConnection) {
  // A length prefix one byte past kMaxFrameBytes is refused on sight: the
  // server counts a parse error and closes the socket without waiting for
  // (or allocating) the body. Other connections carry on.
  ServerRig srv;
  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  const auto len = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  Bytes header = {static_cast<std::uint8_t>(len),
                  static_cast<std::uint8_t>(len >> 8),
                  static_cast<std::uint8_t>(len >> 16),
                  static_cast<std::uint8_t>(len >> 24)};
  std::size_t off = 0;
  while (off < header.size()) {
    ASSERT_NE(common::write_some(sock, header, off), common::IoResult::kError);
  }
  Bytes in;
  common::IoResult r = common::IoResult::kWouldBlock;
  for (int i = 0; i < 1000 && r != common::IoResult::kClosed; ++i) {
    std::vector<common::PollFd> pfds{{sock.fd(), POLLIN, 0}};
    if (common::poll_fds(pfds, Duration::millis(10)) == 0) continue;
    r = common::read_some(sock, in, 4096);
    ASSERT_NE(r, common::IoResult::kError);
  }
  EXPECT_EQ(r, common::IoResult::kClosed) << "server kept the connection";
  EXPECT_TRUE(in.empty()) << "no response is owed to an unframeable stream";
  EXPECT_EQ(srv.server->stats().parse_errors, 1u);

  WormClient client = srv.connect();
  WriteResult w = client.write(srv.record("after the oversized header"));
  ASSERT_TRUE(w.ok()) << w.message;
  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  core::Outcome v = verifier.verify_read(w.sn, client.read(w.sn));
  EXPECT_EQ(v.verdict, core::Verdict::kAuthentic) << v.detail;
}

TEST(WormServer, OutOfRangeShredPolicyAnswersParseError) {
  // A shredding byte past ShredPolicy dies in the frame decoder: nothing
  // reaches the store, let alone the SCPU's signature.
  ServerRig srv;
  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  Request write;
  write.op = MsgOp::kWrite;
  write.rid = 5;
  write.write = srv.record("never shredded");
  write.write.attr.shredding = static_cast<storage::ShredPolicy>(200);
  Response resp = raw_transact(sock, write);
  EXPECT_EQ(resp.status, core::WireStatus::kParseError);
  EXPECT_EQ(srv.rig.firmware.sn_current(), 0u);
}

TEST(WormServer, ZeroRetentionWriteAnswersPreconditionError) {
  // The store refuses a zero retention at admission, so the kWrite is
  // answered kPreconditionError and never joins another principal's group
  // crossing, where the firmware would fail the whole batch.
  ServerRig srv;
  WormClient bob = srv.connect("bob");
  core::WriteRequest bad = srv.record("no retention");
  bad.attr.retention = Duration{};
  EXPECT_THROW((void)bob.write(std::move(bad)), common::PreconditionError);
  EXPECT_EQ(srv.rig.firmware.sn_current(), 0u);

  WormClient alice = srv.connect("alice");
  WriteResult w = alice.write(srv.record("fine"));
  ASSERT_TRUE(w.ok()) << w.message;
  EXPECT_EQ(w.sn, 1u);
}

TEST(WormServer, WriteReadVerifyAcrossTheWire) {
  ServerRig srv;
  WormClient client = srv.connect();

  for (int i = 0; i < 10; ++i) {
    WriteResult w = client.write(srv.record("record " + std::to_string(i)));
    ASSERT_TRUE(w.ok()) << w.message;
    EXPECT_EQ(w.sn, static_cast<core::Sn>(i + 1));
  }

  // The server is untrusted: verify what came over the wire against
  // out-of-band anchors.
  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  for (core::Sn sn = 1; sn <= 10; ++sn) {
    core::ReadOutcome out = client.read(sn);
    core::Outcome v = verifier.verify_read(sn, out);
    EXPECT_EQ(v.verdict, core::Verdict::kAuthentic) << sn << ": " << v.detail;
  }

  // Absence is proven too, not just asserted.
  core::ReadOutcome gone = client.read(1000);
  EXPECT_EQ(gone.status(), core::ReadStatus::kNotAllocated);
  EXPECT_EQ(verifier.verify_read(1000, gone).verdict,
            core::Verdict::kNeverExistedVerified);
}

TEST(WormServer, ProofStreamMatchesInProcessReads) {
  ServerRig srv;
  WormClient client = srv.connect();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.write(srv.record("r" + std::to_string(i))).ok());
  }
  for (core::Sn sn = 1; sn <= 6; ++sn) {  // 6 = one past the top
    core::ReadOutcome remote = client.read(sn);
    core::ReadOutcome local = srv.rig.store.read(sn);
    EXPECT_EQ(outcome_fingerprint(remote), outcome_fingerprint(local))
        << "wire and in-process proof streams diverge at sn " << sn;
  }
}

TEST(WormServer, AttestationForwardingCarriesFreshWatermark) {
  ServerRig srv;
  WormClient client = srv.connect();
  ASSERT_TRUE(client.write(srv.record("watermarked")).ok());

  // The epoch cert rode the write ack to the client — the amortized
  // freshness carrier covering every read inside its interval. The first
  // cert may predate the write (it lags by up to one interval by design);
  // once the interval elapses the next write's crossing re-signs it and
  // the ack forwards the newer one.
  ASSERT_TRUE(client.epoch_cert().has_value());
  const std::uint64_t first_epoch = client.epoch_cert()->epoch;
  srv.rig.clock.advance(core::kEpochInterval + Duration::seconds(1));
  ASSERT_TRUE(client.write(srv.record("second")).ok());
  ASSERT_TRUE(client.epoch_cert().has_value());
  EXPECT_GT(client.epoch_cert()->epoch, first_epoch);
  EXPECT_GE(client.epoch_cert()->sn_current, 1u);
  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  EXPECT_EQ(verifier.verify_epoch_cert(*client.epoch_cert()).verdict,
            core::Verdict::kAuthentic);

  // While the session is fresh, a ping must NOT cross the mailbox for a new
  // attestation (counter-verified) — steady state is O(1) amortized.
  const std::uint64_t hb0 = srv.rig.firmware.counters().heartbeats;
  client.ping();
  EXPECT_EQ(srv.rig.firmware.counters().heartbeats, hb0);

  // Past the freshness horizon the ping refreshes, and the pong forwards
  // the moved watermark.
  srv.rig.clock.advance(srv.rig.store.freshness_horizon() +
                        Duration::seconds(1));
  client.ping();
  ASSERT_TRUE(client.attestation().has_value());
  const core::SignedSnCurrent& att = *client.attestation();
  EXPECT_GE(att.sn_current, 1u);
  // Clients adopt it only after checking the SCPU signature.
  EXPECT_EQ(verifier.verify_current(att, att.sn_current + 1).verdict,
            core::Verdict::kNeverExistedVerified);
}

TEST(WormServer, LitigationOverTheWire) {
  ServerRig srv;
  WormClient client = srv.connect();
  ASSERT_TRUE(client.write(srv.record("held evidence")).ok());

  common::SimTime t = srv.rig.clock.now();
  core::LitigationRequest hold;
  hold.sn = 1;
  hold.lit_id = 5;
  hold.hold_until = t + Duration::days(365);
  hold.cred_issued_at = t;
  hold.credential = crypto::rsa_sign(
      regulator_key(), core::lit_credential_payload(1, t, 5, true));
  client.lit_hold(hold);

  // A forged credential is refused with the same exception type an
  // in-process caller gets (the SCPU rejects it at the mailbox).
  core::LitigationRequest forged = hold;
  forged.lit_id = 6;
  EXPECT_THROW(client.lit_hold(forged), core::ChannelError);

  common::SimTime t2 = srv.rig.clock.now();
  core::LitigationRequest release;
  release.sn = 1;
  release.lit_id = 5;
  release.cred_issued_at = t2;
  release.credential = crypto::rsa_sign(
      regulator_key(), core::lit_credential_payload(1, t2, 5, false));
  client.lit_release(release);

  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  EXPECT_TRUE(verifier.verify_read(1, client.read(1)).trustworthy());
}

TEST(WormServer, TamperedResponseConvictedByTheClient) {
  common::FaultInjector fault(0x7a3);
  ServerConfig cfg;
  cfg.fault = &fault;
  ServerRig srv(pipelined(), cfg);
  WormClient client = srv.connect();
  ASSERT_TRUE(client.write(srv.record("the inconvenient record")).ok());

  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  core::ReadOutcome clean = client.read(1);
  ASSERT_EQ(verifier.verify_read(1, clean).verdict, core::Verdict::kAuthentic);

  // The server now flips one bit of the next served read response between
  // store and socket — the §4.1 adversary. Framing survives (the flip lands
  // in payload bytes), so the client gets a well-formed envelope whose data
  // no longer matches the SCPU-signed hash.
  fault.schedule("server.response", common::FaultKind::kBitFlip, 1);
  core::ReadOutcome tampered = client.read(1);
  core::Outcome v = verifier.verify_read(1, tampered);
  EXPECT_EQ(v.verdict, core::Verdict::kTampered) << v.detail;
  EXPECT_FALSE(v.trustworthy());

  // One flip, one conviction; the next read is honest again.
  EXPECT_EQ(verifier.verify_read(1, client.read(1)).verdict,
            core::Verdict::kAuthentic);
}

TEST(WormServer, ConcurrentClientsRaceWritesReadsAndHolds) {
  ServerRig srv;
  constexpr int kClients = 8;
  constexpr int kWritesEach = 10;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<core::Sn>> claimed(kClients);
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        WormClient client = srv.connect(c % 2 == 0 ? "alice" : "bob");
        core::ClientVerifier verifier = srv.rig.fresh_verifier();
        common::Backoff backoff;
        for (int i = 0; i < kWritesEach; ++i) {
          WriteResult w;
          std::uint32_t attempt = 0;
          do {
            w = client.write(srv.record("c" + std::to_string(c) + " #" +
                                        std::to_string(i)));
            if (w.busy()) common::sleep_real(backoff.delay(attempt++));
          } while (w.busy());
          if (!w.ok()) throw common::InternalError(w.message);
          claimed[c].push_back(w.sn);
          // Read back a record this client already owns; under the race the
          // proof must still verify (or be a retryable unavailable while the
          // group is in flight — never a wrong answer).
          core::Sn probe = claimed[c][static_cast<std::size_t>(i) / 2];
          core::ReadOutcome out = client.read(probe);
          if (out.served()) {
            if (verifier.verify_read(probe, out).verdict !=
                core::Verdict::kAuthentic) {
              throw common::InternalError("unauthentic read under race");
            }
          } else if (out.status() != core::ReadStatus::kUnavailable) {
            throw common::InternalError("non-retryable miss under race");
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every admission claimed a distinct SN and all of them verify.
  std::vector<core::Sn> all;
  for (const auto& v : claimed) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kClients * kWritesEach));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  srv.rig.store.drain_writes();
  EXPECT_EQ(srv.rig.store.counters().at("store.writes"),
            static_cast<std::uint64_t>(kClients * kWritesEach));
}

TEST(WormServer, OverloadAnswersBusyInsteadOfStalling) {
  core::StoreConfig sc = pipelined();
  sc.pipeline.queue_capacity = 1;
  sc.mailbox.max_batch = 1;
  ServerRig srv(sc);

  constexpr int kClients = 6;
  constexpr int kWritesEach = 25;
  std::atomic<std::uint64_t> busy_seen{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        WormClient client = srv.connect();
        common::Backoff backoff;
        for (int i = 0; i < kWritesEach; ++i) {
          std::uint32_t attempt = 0;
          for (;;) {
            WriteResult w = client.write(
                srv.record("burst " + std::to_string(c * 1000 + i)));
            if (w.ok()) break;
            if (!w.busy()) throw common::InternalError(w.message);
            busy_seen.fetch_add(1);
            // Overload must not wedge the event loop: the same connection
            // still answers reads while the pipeline is full.
            (void)client.read(1);
            common::sleep_real(backoff.delay(attempt++));
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  srv.rig.store.drain_writes();
  auto counters = srv.rig.store.counters();
  EXPECT_EQ(counters.at("write_pipeline.queued"),
            static_cast<std::uint64_t>(kClients * kWritesEach));
  EXPECT_GT(busy_seen.load(), 0u)
      << "a 1-deep queue under 6 concurrent writers must reject some";
  EXPECT_EQ(srv.server->stats().busy, busy_seen.load());
  EXPECT_EQ(counters.at("write_pipeline.busy_rejected"), busy_seen.load());
}

TEST(WormServer, ThrowingSessionFactoryAnswersErrorAndSurvives) {
  Rig rig({}, pipelined());
  AuthRegistry auth;
  auth.add("alice", common::to_bytes("alice-secret"));
  auth.add("deadbeat", common::to_bytes("deadbeat-secret"));
  WormServer server(
      ServerConfig{}, auth,
      [&rig](std::string_view principal)
          -> std::unique_ptr<core::WormSession> {
        if (principal == "deadbeat") {
          throw common::InternalError("store degraded during session mint");
        }
        return std::make_unique<core::WormSession>(
            rig.store, std::string(principal), rig.clock);
      });
  server.start();

  // A factory throw must come back as a wire error on the offending
  // connection, not escape the event loop (which would kill the process).
  common::Socket sock = common::connect_tcp_loopback(server.port());
  Request hello;
  hello.op = MsgOp::kHello;
  hello.rid = 7;
  hello.version = kProtocolVersion;
  hello.principal = "deadbeat";
  hello.token = auth.mint("deadbeat");
  Response resp = raw_transact(sock, hello);
  EXPECT_EQ(resp.status, core::WireStatus::kInternalError);
  EXPECT_EQ(resp.rid, 7u);
  EXPECT_GE(server.stats().errors, 1u);

  // The server survived; a healthy principal still authenticates.
  ClientConfig ok;
  ok.tcp_port = server.port();
  ok.principal = "alice";
  ok.token = auth.mint("alice");
  WormClient client(std::move(ok));
  client.ping();
}

TEST(WormServer, AbruptPeerResetIsReapedNotLeaked) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  ServerRig srv(pipelined(), cfg);

  {
    // Seed one fat record so read responses dwarf the socket buffers.
    WormClient writer = srv.connect("alice");
    core::WriteRequest big = srv.record("x");
    big.payloads = {Bytes(256 * 1024, 0xab)};
    ASSERT_TRUE(writer.write(std::move(big)).ok());
  }  // orderly close frees the single connection slot

  {
    // Pipeline far more read responses than the kernel will buffer, never
    // read any, then reset the connection. The stranded response backlog
    // must not pin the Conn forever.
    Request hello;
    hello.op = MsgOp::kHello;
    hello.rid = 1;
    hello.version = kProtocolVersion;
    hello.principal = "alice";
    hello.token = srv.auth.mint("alice");
    common::Socket sock;
    std::optional<Response> resp;
    for (int i = 0; i < 5000 && !resp.has_value(); ++i) {
      try {
        sock = common::connect_tcp_loopback(srv.server->port());
        resp = raw_transact(sock, hello);
      } catch (const common::NetError&) {
        common::sleep_real(Duration::millis(1));  // writer slot not yet freed
      }
    }
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, core::WireStatus::kOk);

    Request read;
    read.op = MsgOp::kRead;
    read.sn = 1;
    Bytes burst;
    for (std::uint64_t rid = 2; rid < 202; ++rid) {
      read.rid = rid;
      Bytes frame = encode_frame(encode_request(read));
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    // A trailing garbage frame flips the connection to closing (reads stop)
    // while the response backlog is still queued — the exact state where a
    // failed flush used to strand the Conn forever.
    Bytes garbage = encode_frame({0xde, 0xad});
    burst.insert(burst.end(), garbage.begin(), garbage.end());
    std::size_t off = 0;
    while (off < burst.size()) {
      ASSERT_NE(common::write_some(sock, burst, off),
                common::IoResult::kError);
    }
    // Wait for the server to decode the burst (an RST would discard
    // anything still sitting unread in its receive buffer).
    for (int i = 0; i < 5000 && srv.server->stats().requests < 202; ++i) {
      common::sleep_real(Duration::millis(1));
    }
    ASSERT_GE(srv.server->stats().requests, 202u);
    // RST instead of FIN: the server's next write on this connection fails.
    struct linger hard {1, 0};
    ASSERT_EQ(::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &hard,
                           sizeof(hard)),
              0);
  }  // destructor closes -> RST

  // With max_connections = 1, a fresh client only gets in once the dead
  // connection is reaped (fd released, live count decremented). The TCP
  // connect itself lands in the backlog regardless, so retry the whole
  // handshake: until the reap, the server accepts and immediately closes.
  std::optional<WormClient> replacement;
  for (int i = 0; i < 5000 && !replacement.has_value(); ++i) {
    try {
      replacement.emplace(srv.client_config("bob"));
    } catch (const common::NetError&) {
      common::sleep_real(Duration::millis(1));
    }
  }
  ASSERT_TRUE(replacement.has_value())
      << "dead connection was never reaped; its slot is leaked";
  replacement->ping();
}

TEST(WormClient, IoTimeoutBoundsTheWholeRoundTrip) {
  // A server that trickles one byte per poll wakeup must not keep resetting
  // the client's timeout window: io_timeout is an absolute deadline on the
  // round trip.
  std::uint16_t port = 0;
  common::Socket listener = common::listen_tcp_loopback(0, &port);

  std::thread trickler([&listener] {
    common::Socket conn;
    for (int i = 0; i < 5000 && !conn.valid(); ++i) {
      conn = common::accept_connection(listener);
      if (!conn.valid()) common::sleep_real(Duration::millis(1));
    }
    if (!conn.valid()) return;

    // Swallow the hello.
    Bytes in;
    std::size_t in_off = 0;
    while (!take_frame(in, in_off)) {
      std::vector<common::PollFd> pfds{{conn.fd(), POLLIN, 0}};
      if (common::poll_fds(pfds, Duration::seconds(5)) == 0) return;
      auto r = common::read_some(conn, in, 4096);
      if (r == common::IoResult::kClosed || r == common::IoResult::kError) {
        return;
      }
    }

    // Answer it correctly — but one byte per 100 ms, slower than the
    // client's deadline yet faster than its per-poll window.
    Response pong;
    pong.op = MsgOp::kHello;
    pong.rid = 1;
    pong.status = core::WireStatus::kOk;
    Bytes frame = encode_frame(encode_response(pong));
    for (std::uint8_t byte : frame) {
      Bytes one{byte};
      std::size_t off = 0;
      while (off < one.size()) {
        auto r = common::write_some(conn, one, off);
        if (r == common::IoResult::kWouldBlock) continue;
        if (r != common::IoResult::kOk) return;  // client gave up: done
      }
      common::sleep_real(Duration::millis(100));
    }
  });

  ClientConfig cfg;
  cfg.tcp_port = port;
  cfg.principal = "alice";
  cfg.token = Bytes(32, 0x11);
  cfg.connect_attempts = 1;
  cfg.io_timeout = Duration::millis(400);
  common::Duration start = common::now_real();
  EXPECT_THROW((void)WormClient(std::move(cfg)), common::NetError);
  common::Duration elapsed = common::now_real() - start;
  // Well under the ~4 s the full trickle would take; generous upper bound
  // for loaded CI machines.
  EXPECT_LT(elapsed.ns, Duration::seconds(3).ns);
  trickler.join();
}

TEST(WormServer, BatchedReadRoundTripVerifiesPerSlotAndCounts) {
  ServerRig srv;
  ClientConfig cc = srv.client_config("alice");
  cc.read_chunk = 8;   // 41 SNs -> six kReadBatch frames
  cc.read_window = 2;  // at most two frames in flight
  WormClient client(std::move(cc));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        client.write(srv.record("batch record " + std::to_string(i))).ok());
  }

  // 40 live SNs plus one past the top, pipelined over the wire in chunks.
  std::vector<core::Sn> sns;
  for (core::Sn sn = 1; sn <= 41; ++sn) sns.push_back(sn);
  std::vector<BatchReadResult> got = client.read_many(sns);
  ASSERT_EQ(got.size(), sns.size());

  // Batching is transport, not trust: every slot carries the same envelope
  // a solo read() would, and each is verified independently.
  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  for (std::size_t i = 0; i < sns.size(); ++i) {
    ASSERT_TRUE(got[i].is_read()) << sns[i] << ": " << got[i].message;
    core::Outcome v = verifier.verify_read(sns[i], got[i].outcome);
    if (sns[i] <= 40) {
      EXPECT_EQ(v.verdict, core::Verdict::kAuthentic)
          << sns[i] << ": " << v.detail;
    } else {
      EXPECT_EQ(v.verdict, core::Verdict::kNeverExistedVerified) << v.detail;
    }
    EXPECT_EQ(outcome_fingerprint(got[i].outcome),
              outcome_fingerprint(srv.rig.store.read(sns[i])))
        << "batched wire and in-process proof streams diverge at sn "
        << sns[i];
  }

  // Both sides account for the pipelining: six frames of 41 SNs served,
  // window high-water at its configured bound.
  EXPECT_EQ(srv.server->stats().read_batch_frames, 6u);
  EXPECT_EQ(srv.server->stats().read_batch_sns, 41u);
  EXPECT_EQ(client.read_window_chunks(), 6u);
  EXPECT_EQ(client.read_window_inflight_max(), 2u);
}

TEST(WormServer, PipelinedBatchBurstConvictsTamperedSlotAmidHealthy) {
  common::FaultInjector fault(0x9b1);
  ServerConfig cfg;
  cfg.fault = &fault;
  ServerRig srv(pipelined(), cfg);
  {
    WormClient writer = srv.connect();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          writer.write(srv.record("burst record " + std::to_string(i))).ok());
    }
  }

  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  Request hello;
  hello.op = MsgOp::kHello;
  hello.rid = 1;
  hello.version = kProtocolVersion;
  hello.principal = "alice";
  hello.token = srv.auth.mint("alice");
  ASSERT_EQ(raw_transact(sock, hello).status, core::WireStatus::kOk);

  // One pipelined burst of three kReadBatch frames: a stale-routed batch
  // (this replica is standalone, route v0), a batch the server tampers in
  // flight, and a healthy batch.
  Request stale;
  stale.op = MsgOp::kReadBatch;
  stale.rid = 2;
  stale.route_version = 7;
  stale.route_shard = 9;
  stale.sns = {1, 2};
  Request tampered;
  tampered.op = MsgOp::kReadBatch;
  tampered.rid = 3;
  tampered.sns = {1, 2, 3};
  Request healthy;
  healthy.op = MsgOp::kReadBatch;
  healthy.rid = 4;
  healthy.sns = {4, 5};

  // The flip fires on the next response that carries a served payload: the
  // stale batch serves nothing, so it lands in rid 3's last slot.
  fault.schedule("server.response", common::FaultKind::kBitFlip, 1);

  Bytes burst;
  append_request_frame(burst, stale);
  append_request_frame(burst, tampered);
  append_request_frame(burst, healthy);
  // Deliver with a mid-frame split: the tail arrives while the server may
  // already be draining — a partial frame must survive the drain and its
  // batch must still come back whole.
  const std::size_t split = burst.size() / 2;
  Bytes first(burst.begin(), burst.begin() + static_cast<std::ptrdiff_t>(split));
  Bytes rest(burst.begin() + static_cast<std::ptrdiff_t>(split), burst.end());
  std::size_t off = 0;
  while (off < first.size()) {
    ASSERT_NE(common::write_some(sock, first, off), common::IoResult::kError);
  }
  common::sleep_real(Duration::millis(5));
  off = 0;
  while (off < rest.size()) {
    ASSERT_NE(common::write_some(sock, rest, off), common::IoResult::kError);
  }

  std::map<std::uint64_t, Response> got;
  Bytes in;
  std::size_t in_off = 0;
  while (got.size() < 3) {
    if (auto body = take_frame(in, in_off)) {
      Response r = decode_response(*body);
      got[r.rid] = std::move(r);
      continue;
    }
    std::vector<common::PollFd> pfds{{sock.fd(), POLLIN, 0}};
    ASSERT_GT(common::poll_fds(pfds, Duration::seconds(10)), 0)
        << "timed out waiting for the burst's responses";
    auto r = common::read_some(sock, in, 4096);
    ASSERT_NE(r, common::IoResult::kClosed);
    ASSERT_NE(r, common::IoResult::kError);
  }

  core::ClientVerifier verifier = srv.rig.fresh_verifier();

  // The stale-routed batch answers count-preserving: every slot
  // kStaleRoute, no short batch.
  const Response& stale_resp = got.at(2);
  ASSERT_EQ(stale_resp.status, core::WireStatus::kOk);
  ASSERT_EQ(stale_resp.slots.size(), 2u);
  for (const BatchSlot& slot : stale_resp.slots) {
    EXPECT_EQ(slot.status, core::WireStatus::kStaleRoute);
    EXPECT_FALSE(slot.message.empty());
  }

  // The tampered batch: the flipped slot is convicted while its siblings in
  // the SAME frame verify — conviction is per slot, not per frame.
  const Response& bad = got.at(3);
  ASSERT_EQ(bad.status, core::WireStatus::kOk);
  ASSERT_EQ(bad.slots.size(), 3u);
  for (core::Sn sn = 1; sn <= 2; ++sn) {
    const BatchSlot& slot = bad.slots[static_cast<std::size_t>(sn - 1)];
    ASSERT_TRUE(core::is_read_status(slot.status));
    EXPECT_EQ(verifier.verify_read(sn, slot.outcome).verdict,
              core::Verdict::kAuthentic)
        << sn;
  }
  core::Outcome v = verifier.verify_read(3, bad.slots[2].outcome);
  EXPECT_EQ(v.verdict, core::Verdict::kTampered) << v.detail;
  EXPECT_FALSE(v.trustworthy());

  // The healthy batch is untouched end to end.
  const Response& good = got.at(4);
  ASSERT_EQ(good.status, core::WireStatus::kOk);
  ASSERT_EQ(good.slots.size(), 2u);
  EXPECT_EQ(verifier.verify_read(4, good.slots[0].outcome).verdict,
            core::Verdict::kAuthentic);
  EXPECT_EQ(verifier.verify_read(5, good.slots[1].outcome).verdict,
            core::Verdict::kAuthentic);
}

TEST(WormServer, PipelinedFramesAnswerInArrivalOrder) {
  // Each frame is answered as it is decoded: a burst that mixes reads and
  // pings comes back in the order it was sent, and a stale-routed batch
  // still answers every slot.
  ServerRig srv;
  {
    WormClient writer = srv.connect();
    ASSERT_TRUE(writer.write(srv.record("ordered")).ok());
  }
  common::Socket sock = common::connect_tcp_loopback(srv.server->port());
  Request hello;
  hello.op = MsgOp::kHello;
  hello.rid = 1;
  hello.version = kProtocolVersion;
  hello.principal = "alice";
  hello.token = srv.auth.mint("alice");
  ASSERT_EQ(raw_transact(sock, hello).status, core::WireStatus::kOk);

  Request read;
  read.op = MsgOp::kRead;
  read.rid = 2;
  read.sn = 1;
  Request ping;
  ping.op = MsgOp::kPing;
  ping.rid = 3;
  Request stale;
  stale.op = MsgOp::kReadBatch;
  stale.rid = 4;
  stale.route_version = 7;  // this replica is standalone: route v0
  stale.sns = {1, 2, 3};
  Request ping2 = ping;
  ping2.rid = 5;
  Bytes burst;
  for (const Request* req : {&read, &ping, &stale, &ping2}) {
    append_request_frame(burst, *req);
  }
  std::size_t off = 0;
  while (off < burst.size()) {
    ASSERT_NE(common::write_some(sock, burst, off), common::IoResult::kError);
  }

  std::vector<Response> got;
  Bytes in;
  std::size_t in_off = 0;
  while (got.size() < 4) {
    if (auto body = take_frame(in, in_off)) {
      got.push_back(decode_response(*body));
      continue;
    }
    std::vector<common::PollFd> pfds{{sock.fd(), POLLIN, 0}};
    ASSERT_GT(common::poll_fds(pfds, Duration::seconds(10)), 0)
        << "timed out waiting for the burst's responses";
    auto r = common::read_some(sock, in, 4096);
    ASSERT_NE(r, common::IoResult::kClosed);
    ASSERT_NE(r, common::IoResult::kError);
  }

  const std::vector<std::pair<MsgOp, std::uint64_t>> sent = {
      {MsgOp::kRead, 2}, {MsgOp::kPing, 3}, {MsgOp::kReadBatch, 4},
      {MsgOp::kPing, 5}};
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].op, sent[i].first) << "response " << i;
    EXPECT_EQ(got[i].rid, sent[i].second) << "response " << i;
  }
  core::ClientVerifier verifier = srv.rig.fresh_verifier();
  EXPECT_EQ(verifier.verify_read(1, got[0].outcome).verdict,
            core::Verdict::kAuthentic);
  EXPECT_EQ(got[1].status, core::WireStatus::kOk);
  ASSERT_EQ(got[2].status, core::WireStatus::kOk);
  ASSERT_EQ(got[2].slots.size(), 3u);
  for (const BatchSlot& slot : got[2].slots) {
    EXPECT_EQ(slot.status, core::WireStatus::kStaleRoute);
  }
  EXPECT_EQ(got[3].status, core::WireStatus::kOk);
}

TEST(WormServer, DistinctStoreTenantsAllGetWritePokes) {
  // Two tenants, two INDEPENDENT stores behind one server, one event loop.
  // The group bound far exceeds the writes below, so a write commits ONLY
  // when the server asks its ticket, which makes the group due in that
  // tenant's own pipeline. A loop that asked only the first connection's
  // tickets would stall every other tenant's store.
  core::StoreConfig sc = pipelined();
  sc.mailbox.max_batch = 64;
  Rig rig_a({}, sc);
  Rig rig_b({}, sc);
  AuthRegistry auth;
  auth.add("alice", common::to_bytes("alice-secret"));
  auth.add("bob", common::to_bytes("bob-secret"));
  ServerConfig cfg;
  cfg.loops = 1;
  WormServer server(cfg, auth, [&](std::string_view principal) {
    Rig& rig = principal == "alice" ? rig_a : rig_b;
    return std::make_unique<core::WormSession>(rig.store,
                                               std::string(principal),
                                               rig.clock);
  });
  server.start();

  auto connect = [&](const std::string& principal) {
    ClientConfig c;
    c.tcp_port = server.port();
    c.principal = principal;
    c.token = auth.mint(principal);
    c.io_timeout = Duration::seconds(5);
    return WormClient(std::move(c));
  };
  auto record = [](const std::string& text) {
    core::WriteRequest w;
    w.payloads = {common::to_bytes(text)};
    w.attr.retention = Duration::days(30);
    w.attr.regulation_policy = 17;
    return w;
  };

  // Alice's connection holds the loop's first roster slot and stays idle;
  // bob's tickets on the second slot must still be asked.
  WormClient alice = connect("alice");
  WormClient bob = connect("bob");
  for (int i = 0; i < 3; ++i) {
    WriteResult w = bob.write(record("bob warmup " + std::to_string(i)));
    ASSERT_TRUE(w.ok()) << w.message;
  }

  // Now both tenants keep pending writes racing in the same iterations:
  // every write must land, which requires every connection's tickets to be
  // asked each pass.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      for (int i = 0; i < 10; ++i) {
        WriteResult w = alice.write(record("alice " + std::to_string(i)));
        if (!w.ok()) throw common::InternalError(w.message);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "alice: " << e.what();
      failures.fetch_add(1);
    }
  });
  threads.emplace_back([&] {
    try {
      for (int i = 0; i < 10; ++i) {
        WriteResult w = bob.write(record("bob " + std::to_string(i)));
        if (!w.ok()) throw common::InternalError(w.message);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "bob: " << e.what();
      failures.fetch_add(1);
    }
  });
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Each tenant's records landed in its OWN store.
  rig_a.store.drain_writes();
  rig_b.store.drain_writes();
  EXPECT_EQ(rig_a.store.counters().at("store.writes"), 10u);
  EXPECT_EQ(rig_b.store.counters().at("store.writes"), 13u);
}

/// User + system CPU this process has used so far, in seconds.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

TEST(WormServer, IdleLoopsDoNotSpin) {
  // Loops 1..3 have no connection and so nothing to poll; they must sleep
  // until they are dealt one. Loop 0 wakes once per 1 ms poll timeout on
  // the listener, which costs far less than the 25 ms budget.
  ServerConfig cfg;
  cfg.loops = 4;
  ServerRig srv(pipelined(), cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double used = process_cpu_seconds() - before;
  EXPECT_LT(used, 0.025) << "idle server used " << used * 1e3
                         << " ms of CPU in 500 ms";

  // A sleeping loop adopts its share at once: one client per loop is served.
  std::vector<std::unique_ptr<WormClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<WormClient>(
        srv.client_config(i % 2 == 0 ? "alice" : "bob")));
    clients.back()->ping();
  }
  EXPECT_EQ(srv.server->stats().accepted, 4u);
}

TEST(WormServer, ConnectionCapRefusesTheOverflow) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  ServerRig srv(pipelined(), cfg);
  WormClient a = srv.connect("alice");
  WormClient b = srv.connect("bob");
  ClientConfig third = srv.client_config("alice");
  third.connect_attempts = 1;
  EXPECT_THROW((void)WormClient(std::move(third)), common::NetError);
  EXPECT_GE(srv.server->stats().rejected_full, 1u);
  a.ping();  // the admitted connections are unaffected
  b.ping();
}

}  // namespace
}  // namespace worm::server
