// Wire-protocol robustness, mirroring commands_fuzz_test for the network
// frames: every opcode round-trips, every strict truncation raises
// ParseError, deterministic bit/byte mutations never escape as anything but
// ParseError, and the status/opcode code spaces are exactly the frozen sets.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/drbg.hpp"
#include "server/protocol.hpp"
#include "worm/status.hpp"

namespace worm::server {
namespace {

using common::ByteReader;
using common::Bytes;
using common::ParseError;

Request sample_request(MsgOp op) {
  Request req;
  req.op = op;
  req.rid = 0x1234'5678'9abc'def0ull;
  switch (op) {
    case MsgOp::kHello:
      req.version = kProtocolVersion;
      req.principal = "auditor@example";
      req.token = Bytes(32, 0xa7);
      break;
    case MsgOp::kWrite:
      req.route_version = 3;  // v3 routing header rides every routed frame
      req.route_shard = 1;
      req.write.payloads = {common::to_bytes("record one"),
                            common::to_bytes("record two")};
      req.write.attr.retention = common::Duration::days(30);
      req.write.attr.regulation_policy = 17;
      req.write.mode = core::WitnessMode::kDeferred;
      req.expected_sn = 44;  // v4 sequencing condition
      break;
    case MsgOp::kRead:
      req.route_version = 3;
      req.route_shard = 2;
      req.sn = 42;
      break;
    case MsgOp::kReadBatch:
      req.route_version = 3;
      req.route_shard = 2;
      req.sns = {42, 7, 0xdead'beef'0000'0001ull};
      break;
    case MsgOp::kLitHold:
    case MsgOp::kLitRelease:
      req.lit.sn = 7;
      req.lit.lit_id = 99;
      req.lit.hold_until = common::SimTime{123456789};
      req.lit.cred_issued_at = common::SimTime{1000};
      req.lit.credential = Bytes(64, 0x3c);
      break;
    case MsgOp::kPing:
    case MsgOp::kShardMap:
      break;
  }
  return req;
}

const std::vector<MsgOp> kAllOps = {MsgOp::kHello,      MsgOp::kWrite,
                                    MsgOp::kRead,       MsgOp::kLitHold,
                                    MsgOp::kLitRelease, MsgOp::kPing,
                                    MsgOp::kShardMap,   MsgOp::kReadBatch};

TEST(WireFuzz, RequestRoundTripEveryOpcode) {
  for (MsgOp op : kAllOps) {
    Request req = sample_request(op);
    Request back = decode_request(encode_request(req));
    EXPECT_EQ(back.op, req.op) << to_string(op);
    EXPECT_EQ(back.rid, req.rid);
    switch (op) {
      case MsgOp::kHello:
        EXPECT_EQ(back.version, req.version);
        EXPECT_EQ(back.principal, req.principal);
        EXPECT_EQ(back.token, req.token);
        break;
      case MsgOp::kWrite:
        EXPECT_EQ(back.route_version, req.route_version);
        EXPECT_EQ(back.route_shard, req.route_shard);
        EXPECT_EQ(back.write.payloads, req.write.payloads);
        EXPECT_EQ(back.write.attr, req.write.attr);
        EXPECT_EQ(back.write.mode, req.write.mode);
        EXPECT_EQ(back.expected_sn, req.expected_sn);
        break;
      case MsgOp::kRead:
        EXPECT_EQ(back.route_version, req.route_version);
        EXPECT_EQ(back.route_shard, req.route_shard);
        EXPECT_EQ(back.sn, req.sn);
        break;
      case MsgOp::kReadBatch:
        EXPECT_EQ(back.route_version, req.route_version);
        EXPECT_EQ(back.route_shard, req.route_shard);
        EXPECT_EQ(back.sns, req.sns);
        break;
      case MsgOp::kLitHold:
      case MsgOp::kLitRelease:
        EXPECT_EQ(back.lit.sn, req.lit.sn);
        EXPECT_EQ(back.lit.lit_id, req.lit.lit_id);
        EXPECT_EQ(back.lit.hold_until.ns, req.lit.hold_until.ns);
        EXPECT_EQ(back.lit.cred_issued_at.ns, req.lit.cred_issued_at.ns);
        EXPECT_EQ(back.lit.credential, req.lit.credential);
        break;
      case MsgOp::kPing:
      case MsgOp::kShardMap:
        break;
    }
  }
}

std::vector<Response> sample_responses() {
  std::vector<Response> out;

  Response read_ok;
  read_ok.op = MsgOp::kRead;
  read_ok.rid = 1;
  read_ok.status = core::WireStatus::kOk;
  core::ReadOk ok;
  ok.vrd.sn = 42;
  ok.vrd.data_hash = Bytes(32, 0x11);
  ok.payloads = {common::to_bytes("payload")};
  read_ok.outcome = core::ReadOutcome(std::move(ok));
  out.push_back(std::move(read_ok));

  Response read_gone;
  read_gone.op = MsgOp::kRead;
  read_gone.rid = 2;
  read_gone.status = core::WireStatus::kNotAllocated;
  core::SignedSnCurrent cur;
  cur.sn_current = 41;
  cur.stamped_at = common::SimTime{5555};
  cur.sig = Bytes(128, 0x2d);
  read_gone.attestation = cur;
  read_gone.outcome = core::ReadOutcome(core::ReadNotAllocated{cur});
  out.push_back(std::move(read_gone));

  Response write_ok;
  write_ok.op = MsgOp::kWrite;
  write_ok.rid = 3;
  write_ok.status = core::WireStatus::kOk;
  write_ok.sn = 43;
  out.push_back(std::move(write_ok));

  Response mismatch;  // v4: the failed condition's counter-offer rides back
  mismatch.op = MsgOp::kWrite;
  mismatch.rid = 9;
  mismatch.status = core::WireStatus::kSnMismatch;
  mismatch.sn = 44;
  mismatch.message = "expected SN 43 but this replica assigns 44 next";
  out.push_back(std::move(mismatch));

  Response busy;
  busy.op = MsgOp::kWrite;
  busy.rid = 4;
  busy.status = core::WireStatus::kBusy;
  busy.message = "write pipeline at capacity";
  out.push_back(std::move(busy));

  Response err;
  err.op = MsgOp::kLitHold;
  err.rid = 5;
  err.status = core::WireStatus::kPreconditionError;
  err.message = "bad credential";
  out.push_back(std::move(err));

  Response pong;
  pong.op = MsgOp::kPing;
  pong.rid = 6;
  pong.status = core::WireStatus::kOk;
  out.push_back(std::move(pong));

  Response epoch_pong;  // both attestation-slot bits set (protocol v2)
  epoch_pong.op = MsgOp::kPing;
  epoch_pong.rid = 7;
  epoch_pong.status = core::WireStatus::kOk;
  epoch_pong.attestation = cur;
  core::EpochCert cert;
  cert.epoch = 9;
  cert.sn_current = 41;
  cert.stamped_at = common::SimTime{5555};
  cert.sig = Bytes(128, 0x3e);
  epoch_pong.epoch_cert = cert;
  out.push_back(std::move(epoch_pong));

  Response batch;  // v5: count-preserving read batch, mixed per-slot fates
  batch.op = MsgOp::kReadBatch;
  batch.rid = 10;
  batch.status = core::WireStatus::kOk;
  batch.attestation = cur;  // one attestation slot amortizes the whole batch
  BatchSlot served;
  served.status = core::WireStatus::kOk;
  core::ReadOk batch_ok;
  batch_ok.vrd.sn = 44;
  batch_ok.vrd.data_hash = Bytes(32, 0x44);
  batch_ok.payloads = {common::to_bytes("slot payload")};
  served.outcome = core::ReadOutcome(std::move(batch_ok));
  batch.slots.push_back(std::move(served));
  BatchSlot gone;
  gone.status = core::WireStatus::kNotAllocated;
  gone.outcome = core::ReadOutcome(core::ReadNotAllocated{cur});
  batch.slots.push_back(std::move(gone));
  BatchSlot stale;  // a stale-routed batch answers kStaleRoute per slot
  stale.status = core::WireStatus::kStaleRoute;
  stale.message = "shard map v3 is stale";
  batch.slots.push_back(std::move(stale));
  BatchSlot slot_err;
  slot_err.status = core::WireStatus::kPreconditionError;
  slot_err.message = "slot rejected";
  batch.slots.push_back(std::move(slot_err));
  out.push_back(std::move(batch));

  Response shard_map;  // v3: cluster membership answer, opaque map blob
  shard_map.op = MsgOp::kShardMap;
  shard_map.rid = 8;
  shard_map.status = core::WireStatus::kOk;
  shard_map.shard_id = 2;
  shard_map.shard_map = Bytes(48, 0x5d);
  out.push_back(std::move(shard_map));

  return out;
}

TEST(WireFuzz, ResponseRoundTrip) {
  for (const Response& resp : sample_responses()) {
    Response back = decode_response(encode_response(resp));
    EXPECT_EQ(back.op, resp.op);
    EXPECT_EQ(back.rid, resp.rid);
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.attestation, resp.attestation);
    EXPECT_EQ(back.epoch_cert, resp.epoch_cert);
    EXPECT_EQ(back.sn, resp.sn);
    EXPECT_EQ(back.shard_id, resp.shard_id);
    EXPECT_EQ(back.shard_map, resp.shard_map);
    EXPECT_EQ(back.message, resp.message);
    EXPECT_EQ(back.outcome.status(), resp.outcome.status());
    ASSERT_EQ(back.slots.size(), resp.slots.size());
    for (std::size_t i = 0; i < resp.slots.size(); ++i) {
      EXPECT_EQ(back.slots[i].status, resp.slots[i].status) << i;
      EXPECT_EQ(back.slots[i].outcome.status(), resp.slots[i].outcome.status())
          << i;
      EXPECT_EQ(back.slots[i].message, resp.slots[i].message) << i;
    }
  }
}

TEST(WireFuzz, AppendFrameMatchesEncodeFrame) {
  // The zero-copy append_*_frame writers must emit byte-identical frames to
  // the allocate-then-wrap path, appended after whatever the sink held.
  for (const Response& resp : sample_responses()) {
    Bytes classic = encode_frame(encode_response(resp));
    Bytes streamed(3, 0xcc);  // non-empty sink: append must not disturb it
    append_response_frame(streamed, resp);
    ASSERT_GT(streamed.size(), 3u);
    EXPECT_EQ(Bytes(streamed.begin(), streamed.begin() + 3), Bytes(3, 0xcc));
    EXPECT_EQ(Bytes(streamed.begin() + 3, streamed.end()), classic);
  }
  for (MsgOp op : kAllOps) {
    Request req = sample_request(op);
    Bytes classic = encode_frame(encode_request(req));
    Bytes streamed;
    append_request_frame(streamed, req);
    EXPECT_EQ(streamed, classic);
  }
}

TEST(WireFuzz, UnknownAttestationMaskBitIsAParseError) {
  // The v2 attestation slot is a bitmask; bits this build does not know must
  // be refused, not skipped — silent tolerance would let a downgrade-attack
  // server smuggle bytes the client cannot attribute.
  Response pong;
  pong.op = MsgOp::kPing;
  pong.rid = 1;
  pong.status = core::WireStatus::kOk;
  Bytes body = encode_response(pong);
  // Body layout: op u8, rid u64, status u16, then the mask byte.
  const std::size_t mask_off = 1 + 8 + 2;
  ASSERT_EQ(body.at(mask_off), 0u);
  for (std::uint8_t bit = 2; bit < 8; ++bit) {
    Bytes poisoned = body;
    poisoned[mask_off] = static_cast<std::uint8_t>(1u << bit);
    EXPECT_THROW((void)decode_response(poisoned), ParseError) << int(bit);
  }
}

TEST(WireFuzz, EveryStrictRequestTruncationIsAParseError) {
  for (MsgOp op : kAllOps) {
    Bytes body = encode_request(sample_request(op));
    for (std::size_t len = 0; len < body.size(); ++len) {
      Bytes cut(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW((void)decode_request(cut), ParseError)
          << to_string(op) << " truncated to " << len << "/" << body.size();
    }
  }
}

TEST(WireFuzz, EveryStrictResponseTruncationIsAParseError) {
  for (const Response& resp : sample_responses()) {
    Bytes body = encode_response(resp);
    for (std::size_t len = 0; len < body.size(); ++len) {
      Bytes cut(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW((void)decode_response(cut), ParseError)
          << to_string(resp.op) << " truncated to " << len << "/"
          << body.size();
    }
  }
}

TEST(WireFuzz, MutatedBodiesNeverEscapeAsAnythingButParseError) {
  crypto::Drbg rng(0xf02);
  for (MsgOp op : kAllOps) {
    Bytes base = encode_request(sample_request(op));
    for (int round = 0; round < 400; ++round) {
      Bytes body = base;
      std::uint64_t edits = 1 + rng.uniform(4);
      for (std::uint64_t e = 0; e < edits; ++e) {
        std::size_t at = rng.uniform(body.size());
        body[at] = static_cast<std::uint8_t>(rng.uniform(256));
      }
      try {
        (void)decode_request(body);  // a benign mutation may still parse
      } catch (const ParseError&) {
      }
    }
  }
  for (const Response& resp : sample_responses()) {
    Bytes base = encode_response(resp);
    for (int round = 0; round < 400; ++round) {
      Bytes body = base;
      std::size_t at = rng.uniform(base.size());
      body[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      try {
        (void)decode_response(body);
      } catch (const ParseError&) {
      }
    }
  }
}

TEST(WireFuzz, OutOfRangeShredPolicyIsAParseError) {
  // The attr's shredding byte is range-checked at decode: a value past
  // kCryptoShred would be signed by the SCPU yet honored by no shredder.
  for (int v = 0; v < 256; ++v) {
    Request req = sample_request(MsgOp::kWrite);
    req.write.attr.shredding = static_cast<storage::ShredPolicy>(v);
    Bytes body = encode_request(req);
    if (v <= static_cast<int>(storage::ShredPolicy::kCryptoShred)) {
      EXPECT_EQ(decode_request(body).write.attr.shredding,
                req.write.attr.shredding);
    } else {
      EXPECT_THROW((void)decode_request(body), ParseError) << v;
    }
  }
}

TEST(WireFuzz, OpcodeSpaceIsExactlyTheFrozenSet) {
  int valid = 0;
  for (int v = 0; v < 256; ++v) {
    try {
      MsgOp op = msg_op_from_u8(static_cast<std::uint8_t>(v));
      EXPECT_EQ(static_cast<int>(op), v);
      ++valid;
    } catch (const ParseError&) {
    }
  }
  EXPECT_EQ(valid, 8);
}

TEST(WireFuzz, ReadBatchRequestCountFieldLiesAreParseErrors) {
  // The u16 SN count must account for the SN bytes that follow exactly:
  // decode_request re-counts via expect_end, so a lying count in either
  // direction (claiming fewer SNs than sent, or more) is a ParseError,
  // never a silently resized batch.
  Bytes body = encode_request(sample_request(MsgOp::kReadBatch));
  const std::size_t count_off = 1 + 8 + 4 + 4;  // op, rid, route header
  ASSERT_EQ(body.at(count_off), 3u);  // sample carries three SNs
  for (int lie : {0, 1, 2, 4, 200}) {
    Bytes lied = body;
    lied[count_off] = static_cast<std::uint8_t>(lie);
    EXPECT_THROW((void)decode_request(lied), ParseError) << lie;
  }
  // A count beyond kMaxReadBatchSns is refused up front, before the decoder
  // commits to reading (or allocating for) a single SN.
  Bytes huge = body;
  huge[count_off] = 0xff;
  huge[count_off + 1] = 0xff;
  EXPECT_THROW((void)decode_request(huge), ParseError);
}

TEST(WireFuzz, ReadBatchResponseSlotCountLiesAreParseErrors) {
  // Same property on the response side: the u16 slot count must match the
  // slots actually encoded.
  Response batch;
  batch.op = MsgOp::kReadBatch;
  batch.rid = 11;
  batch.status = core::WireStatus::kOk;
  for (int i = 0; i < 2; ++i) {
    BatchSlot slot;
    slot.status = core::WireStatus::kBusy;
    slot.message = "pipeline at capacity";
    batch.slots.push_back(std::move(slot));
  }
  Bytes body = encode_response(batch);
  const std::size_t count_off = 1 + 8 + 2 + 1;  // op, rid, status, att mask
  ASSERT_EQ(body.at(count_off), 2u);
  for (int lie : {0, 1, 3, 77}) {
    Bytes lied = body;
    lied[count_off] = static_cast<std::uint8_t>(lie);
    EXPECT_THROW((void)decode_response(lied), ParseError) << lie;
  }
  Bytes huge = body;
  huge[count_off] = 0xff;
  huge[count_off + 1] = 0xff;
  EXPECT_THROW((void)decode_response(huge), ParseError);
}

TEST(WireFuzz, StatusSpaceIsExactlyTheFrozenSet) {
  int valid = 0;
  for (std::uint32_t v = 0; v <= 0xffff; ++v) {
    try {
      core::WireStatus s =
          core::wire_status_from_u16(static_cast<std::uint16_t>(v));
      EXPECT_EQ(static_cast<std::uint32_t>(s), v);
      ++valid;
    } catch (const ParseError&) {
    }
  }
  // 8 read-family + 6 server rejections + 11 error taxonomy codes.
  EXPECT_EQ(valid, 25);
}

TEST(WireFuzz, FramingReassemblyAndOversizeCutoff) {
  Bytes body = encode_request(sample_request(MsgOp::kRead));
  Bytes frame = encode_frame(body);

  // Byte-at-a-time arrival: no frame until the last byte lands.
  Bytes buf;
  std::size_t off = 0;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buf.push_back(frame[i]);
    EXPECT_FALSE(take_frame(buf, off).has_value());
    EXPECT_EQ(off, 0u);
  }
  buf.push_back(frame.back());
  auto got = take_frame(buf, off);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_EQ(off, buf.size());

  // Two frames back to back come out in order.
  Bytes two = encode_frame(body);
  Bytes second_body = encode_request(sample_request(MsgOp::kPing));
  Bytes second = encode_frame(second_body);
  two.insert(two.end(), second.begin(), second.end());
  off = 0;
  EXPECT_EQ(*take_frame(two, off), body);
  EXPECT_EQ(*take_frame(two, off), second_body);
  EXPECT_EQ(off, two.size());

  // A declared length beyond the bound is rejected before the body arrives:
  // kMaxFrameBytes itself is legal, one byte more is not.
  auto header = [](std::uint32_t len) {
    return Bytes{static_cast<std::uint8_t>(len),
                 static_cast<std::uint8_t>(len >> 8),
                 static_cast<std::uint8_t>(len >> 16),
                 static_cast<std::uint8_t>(len >> 24)};
  };
  off = 0;
  EXPECT_FALSE(take_frame(header(kMaxFrameBytes), off).has_value());
  EXPECT_THROW((void)take_frame(header(kMaxFrameBytes + 1), off), ParseError);
  Bytes huge = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_THROW((void)take_frame(huge, off), ParseError);
}

TEST(WireFuzz, OffsetDrainConsumesAPipelinedBurstThenCompacts) {
  // The server's per-connection read path: many frames arrive in one burst,
  // each is taken by advancing an offset (no per-frame front erase), and the
  // buffer compacts once at the end of the drain.
  std::vector<Bytes> bodies;
  Bytes burst;
  for (int i = 0; i < 6; ++i) {
    Bytes body = encode_request(
        sample_request(i % 2 == 0 ? MsgOp::kRead : MsgOp::kPing));
    Bytes frame = encode_frame(body);
    burst.insert(burst.end(), frame.begin(), frame.end());
    bodies.push_back(std::move(body));
  }
  // A trailing partial frame must survive the drain and the compaction.
  Bytes tail_body = encode_request(sample_request(MsgOp::kLitHold));
  Bytes tail = encode_frame(tail_body);
  burst.insert(burst.end(), tail.begin(), tail.end() - 3);

  std::size_t off = 0;
  for (const Bytes& body : bodies) {
    auto got = take_frame(burst, off);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, body);
  }
  EXPECT_FALSE(take_frame(burst, off).has_value());

  compact_frames(burst, off);
  EXPECT_EQ(off, 0u);
  EXPECT_EQ(burst.size(), tail.size() - 3);

  // The partial frame completes after compaction and comes out intact.
  burst.insert(burst.end(), tail.end() - 3, tail.end());
  auto got = take_frame(burst, off);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, tail_body);
  compact_frames(burst, off);
  EXPECT_TRUE(burst.empty());
}

TEST(WireFuzz, ErrorTaxonomyRoundTripsThroughClassify) {
  // Every typed error classifies to a stable code, crosses the wire as a
  // status, and throw_wire_error reconstructs the matching type.
  EXPECT_THROW(core::throw_wire_error(core::WireStatus::kTransientStorageError,
                                      "disk hiccup"),
               common::TransientStorageError);
  EXPECT_THROW(
      core::throw_wire_error(core::WireStatus::kPreconditionError, "nope"),
      common::PreconditionError);
  EXPECT_THROW(core::throw_wire_error(core::WireStatus::kScpuDead, "gone"),
               core::ScpuDeadError);
  EXPECT_THROW(core::throw_wire_error(core::WireStatus::kNetError, "reset"),
               common::NetError);

  EXPECT_EQ(core::classify(common::TransientStorageError("x")),
            core::ErrorCode::kTransientStorage);
  EXPECT_EQ(core::classify(core::ScpuDeadError("x")), core::ErrorCode::kScpuDead);
  EXPECT_EQ(core::classify(std::runtime_error("x")), core::ErrorCode::kInternal);
  EXPECT_EQ(core::to_wire(core::ErrorCode::kTransientStorage),
            core::WireStatus::kTransientStorageError);
}

}  // namespace
}  // namespace worm::server
