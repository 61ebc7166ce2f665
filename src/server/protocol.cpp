#include "server/protocol.hpp"

#include <utility>

#include "common/error.hpp"

namespace worm::server {

using common::ByteReader;
using common::ByteWriter;
using common::Bytes;
using common::ParseError;

const char* to_string(MsgOp op) {
  switch (op) {
    case MsgOp::kHello: return "hello";
    case MsgOp::kWrite: return "write";
    case MsgOp::kRead: return "read";
    case MsgOp::kLitHold: return "lit-hold";
    case MsgOp::kLitRelease: return "lit-release";
    case MsgOp::kPing: return "ping";
    case MsgOp::kShardMap: return "shard-map";
    case MsgOp::kReadBatch: return "read-batch";
  }
  return "unknown";
}

MsgOp msg_op_from_u8(std::uint8_t v) {
  MsgOp op = static_cast<MsgOp>(v);
  switch (op) {
    case MsgOp::kHello:
    case MsgOp::kWrite:
    case MsgOp::kRead:
    case MsgOp::kLitHold:
    case MsgOp::kLitRelease:
    case MsgOp::kPing:
    case MsgOp::kShardMap:
    case MsgOp::kReadBatch:
      return op;
  }
  throw ParseError("unknown message opcode " + std::to_string(v));
}

Bytes encode_frame(const Bytes& body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  return w.take();
}

std::optional<Bytes> take_frame(const Bytes& buf, std::size_t& off) {
  if (buf.size() - off < 4) return std::nullopt;
  std::uint32_t len = static_cast<std::uint32_t>(buf[off]) |
                      (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
                      (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
                      (static_cast<std::uint32_t>(buf[off + 3]) << 24);
  if (len > kMaxFrameBytes) {
    throw ParseError("frame of " + std::to_string(len) +
                     " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                     "-byte bound");
  }
  if (buf.size() - off < 4 + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  auto begin = buf.begin() + static_cast<std::ptrdiff_t>(off) + 4;
  Bytes body(begin, begin + static_cast<std::ptrdiff_t>(len));
  off += 4 + static_cast<std::size_t>(len);
  return body;
}

void compact_frames(Bytes& buf, std::size_t& off) {
  if (off == 0) return;
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  off = 0;
}

namespace {

void encode_write_request(ByteWriter& w, const core::WriteRequest& req) {
  req.attr.serialize(w);
  w.boolean(req.mode.has_value());
  if (req.mode.has_value()) {
    w.u8(static_cast<std::uint8_t>(*req.mode));
  }
  w.u32(static_cast<std::uint32_t>(req.payloads.size()));
  for (const Bytes& b : req.payloads) w.blob(b);
}

core::WriteRequest decode_write_request(ByteReader& r) {
  core::WriteRequest req;
  req.attr = core::Attr::deserialize(r);
  if (r.boolean()) {
    std::uint8_t m = r.u8();
    if (m > static_cast<std::uint8_t>(core::WitnessMode::kHmac)) {
      throw ParseError("unknown witness mode " + std::to_string(m));
    }
    req.mode = static_cast<core::WitnessMode>(m);
  }
  std::uint32_t n = r.count(/*min_elem_bytes=*/4);  // each blob has a u32 prefix
  if (n == 0) throw ParseError("write request with zero payloads");
  req.payloads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) req.payloads.push_back(r.blob());
  return req;
}

void encode_lit_request(ByteWriter& w, const core::LitigationRequest& req) {
  w.u64(req.sn);
  w.u64(req.lit_id);
  w.i64(req.hold_until.ns);
  w.i64(req.cred_issued_at.ns);
  w.blob(req.credential);
}

core::LitigationRequest decode_lit_request(ByteReader& r) {
  core::LitigationRequest req;
  req.sn = r.u64();
  req.lit_id = r.u64();
  req.hold_until = common::SimTime{r.i64()};
  req.cred_issued_at = common::SimTime{r.i64()};
  req.credential = r.blob();
  return req;
}

}  // namespace

void encode_read_outcome(ByteWriter& w, const core::ReadOutcome& r) {
  switch (r.status()) {
    case core::ReadStatus::kData:
    case core::ReadStatus::kHold: {
      const core::ReadOk& ok = r.get<core::ReadOk>();
      ok.vrd.serialize(w);
      w.u32(static_cast<std::uint32_t>(ok.payloads.size()));
      for (const Bytes& b : ok.payloads) w.blob(b);
      return;
    }
    case core::ReadStatus::kDeleted:
      r.get<core::ReadDeleted>().proof.serialize(w);
      return;
    case core::ReadStatus::kBelowBase:
      r.get<core::ReadBelowBase>().base.serialize(w);
      return;
    case core::ReadStatus::kNotAllocated:
      r.get<core::ReadNotAllocated>().current.serialize(w);
      return;
    case core::ReadStatus::kDeletedWindow:
      r.get<core::ReadInDeletedWindow>().window.serialize(w);
      return;
    case core::ReadStatus::kUnavailable: {
      const core::ReadUnavailable& u = r.get<core::ReadUnavailable>();
      w.str(u.reason);
      w.boolean(u.retryable);
      return;
    }
    case core::ReadStatus::kFailure:
      w.str(r.get<core::ReadFailure>().reason);
      return;
  }
  throw common::InternalError("encode_read_outcome: corrupt ReadStatus");
}

core::ReadOutcome decode_read_outcome(core::WireStatus status,
                                      ByteReader& r) {
  switch (core::read_status_from_wire(status)) {
    case core::ReadStatus::kData:
    case core::ReadStatus::kHold: {
      core::ReadOk ok;
      ok.vrd = core::Vrd::deserialize(r);
      std::uint32_t n = r.count(/*min_elem_bytes=*/4);
      ok.payloads.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ok.payloads.push_back(r.blob());
      return core::ReadOutcome(std::move(ok));
    }
    case core::ReadStatus::kDeleted:
      return core::ReadOutcome(
          core::ReadDeleted{core::DeletionProof::deserialize(r)});
    case core::ReadStatus::kBelowBase:
      return core::ReadOutcome(
          core::ReadBelowBase{core::SignedSnBase::deserialize(r)});
    case core::ReadStatus::kNotAllocated:
      return core::ReadOutcome(
          core::ReadNotAllocated{core::SignedSnCurrent::deserialize(r)});
    case core::ReadStatus::kDeletedWindow:
      return core::ReadOutcome(
          core::ReadInDeletedWindow{core::DeletedWindow::deserialize(r)});
    case core::ReadStatus::kUnavailable: {
      core::ReadUnavailable u;
      u.reason = r.str();
      u.retryable = r.boolean();
      return core::ReadOutcome(std::move(u));
    }
    case core::ReadStatus::kFailure:
      return core::ReadOutcome(core::ReadFailure{r.str()});
  }
  throw common::InternalError("decode_read_outcome: corrupt ReadStatus");
}

namespace {

void encode_request_body(ByteWriter& w, const Request& req) {
  w.u8(static_cast<std::uint8_t>(req.op));
  w.u64(req.rid);
  switch (req.op) {
    case MsgOp::kHello:
      w.u16(req.version);
      w.str(req.principal);
      w.blob(req.token);
      break;
    case MsgOp::kWrite:
      w.u32(req.route_version);
      w.u32(req.route_shard);
      w.u64(req.expected_sn);
      encode_write_request(w, req.write);
      break;
    case MsgOp::kRead:
      w.u32(req.route_version);
      w.u32(req.route_shard);
      w.u64(req.sn);
      break;
    case MsgOp::kReadBatch:
      if (req.sns.empty() || req.sns.size() > kMaxReadBatchSns) {
        throw common::InternalError(
            "encode_request: read batch of " + std::to_string(req.sns.size()) +
            " SNs outside [1, " + std::to_string(kMaxReadBatchSns) + "]");
      }
      w.u32(req.route_version);
      w.u32(req.route_shard);
      w.u16(static_cast<std::uint16_t>(req.sns.size()));
      for (core::Sn sn : req.sns) w.u64(sn);
      break;
    case MsgOp::kLitHold:
    case MsgOp::kLitRelease:
      encode_lit_request(w, req.lit);
      break;
    case MsgOp::kPing:
    case MsgOp::kShardMap:
      break;
  }
}

void encode_response_body(ByteWriter& w, const Response& resp) {
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.u64(resp.rid);
  w.u16(static_cast<std::uint16_t>(resp.status));
  std::uint8_t mask = 0;
  if (resp.attestation.has_value()) mask |= kAttSnCurrent;
  if (resp.epoch_cert.has_value()) mask |= kAttEpochCert;
  w.u8(mask);
  if (resp.attestation.has_value()) resp.attestation->serialize(w);
  if (resp.epoch_cert.has_value()) resp.epoch_cert->serialize(w);

  if (resp.op == MsgOp::kRead && core::is_read_status(resp.status)) {
    encode_read_outcome(w, resp.outcome);
  } else if (resp.op == MsgOp::kReadBatch &&
             resp.status == core::WireStatus::kOk) {
    if (resp.slots.empty() || resp.slots.size() > kMaxReadBatchSns) {
      throw common::InternalError(
          "encode_response: read batch of " + std::to_string(resp.slots.size()) +
          " slots outside [1, " + std::to_string(kMaxReadBatchSns) + "]");
    }
    w.u16(static_cast<std::uint16_t>(resp.slots.size()));
    for (const BatchSlot& slot : resp.slots) {
      w.u16(static_cast<std::uint16_t>(slot.status));
      if (core::is_read_status(slot.status)) {
        encode_read_outcome(w, slot.outcome);
      } else {
        w.str(slot.message);
      }
    }
  } else if (resp.status == core::WireStatus::kOk) {
    if (resp.op == MsgOp::kWrite) w.u64(resp.sn);
    if (resp.op == MsgOp::kShardMap) {
      w.u32(resp.shard_id);
      w.blob(resp.shard_map);
    }
    // kHello / kLitHold / kLitRelease / kPing: status alone is the answer.
  } else if (resp.status == core::WireStatus::kSnMismatch) {
    // The failed sequencing condition: the replica's actual next SN lets
    // the writer converge its cursor without a second round trip.
    w.u64(resp.sn);
    w.str(resp.message);
  } else {
    w.str(resp.message);
  }
}

}  // namespace

Bytes encode_request(const Request& req) {
  ByteWriter w;
  encode_request_body(w, req);
  return w.take();
}

void append_request_frame(Bytes& out, const Request& req) {
  ByteWriter w(out);
  w.u32(0);  // frame length placeholder
  encode_request_body(w, req);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
}

void append_response_frame(Bytes& out, const Response& resp) {
  ByteWriter w(out);
  w.u32(0);  // frame length placeholder
  encode_response_body(w, resp);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
}

Request decode_request(common::ByteView body) {
  ByteReader r(body);
  Request req;
  req.op = msg_op_from_u8(r.u8());
  req.rid = r.u64();
  switch (req.op) {
    case MsgOp::kHello:
      req.version = r.u16();
      req.principal = r.str();
      req.token = r.blob();
      break;
    case MsgOp::kWrite:
      req.route_version = r.u32();
      req.route_shard = r.u32();
      req.expected_sn = r.u64();
      req.write = decode_write_request(r);
      break;
    case MsgOp::kRead:
      req.route_version = r.u32();
      req.route_shard = r.u32();
      req.sn = r.u64();
      break;
    case MsgOp::kReadBatch: {
      req.route_version = r.u32();
      req.route_shard = r.u32();
      std::uint16_t n = r.u16();
      if (n == 0) throw ParseError("read batch with zero SNs");
      if (n > kMaxReadBatchSns) {
        throw ParseError("read batch of " + std::to_string(n) +
                         " SNs exceeds the " +
                         std::to_string(kMaxReadBatchSns) + "-SN bound");
      }
      req.sns.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) req.sns.push_back(r.u64());
      break;
    }
    case MsgOp::kLitHold:
    case MsgOp::kLitRelease:
      req.lit = decode_lit_request(r);
      break;
    case MsgOp::kPing:
    case MsgOp::kShardMap:
      break;
  }
  r.expect_end();
  return req;
}

Bytes encode_response(const Response& resp) {
  ByteWriter w;
  encode_response_body(w, resp);
  return w.take();
}

Response decode_response(common::ByteView body) {
  ByteReader r(body);
  Response resp;
  resp.op = msg_op_from_u8(r.u8());
  resp.rid = r.u64();
  resp.status = core::wire_status_from_u16(r.u16());
  std::uint8_t mask = r.u8();
  if ((mask & ~(kAttSnCurrent | kAttEpochCert)) != 0) {
    throw ParseError("unknown attestation-slot bits " + std::to_string(mask));
  }
  if ((mask & kAttSnCurrent) != 0) {
    resp.attestation = core::SignedSnCurrent::deserialize(r);
  }
  if ((mask & kAttEpochCert) != 0) {
    resp.epoch_cert = core::EpochCert::deserialize(r);
  }

  if (resp.op == MsgOp::kRead && core::is_read_status(resp.status)) {
    resp.outcome = decode_read_outcome(resp.status, r);
  } else if (resp.op == MsgOp::kReadBatch &&
             resp.status == core::WireStatus::kOk) {
    std::uint16_t n = r.u16();
    if (n == 0) throw ParseError("read-batch response with zero slots");
    if (n > kMaxReadBatchSns) {
      throw ParseError("read-batch response of " + std::to_string(n) +
                       " slots exceeds the " +
                       std::to_string(kMaxReadBatchSns) + "-SN bound");
    }
    resp.slots.reserve(n);
    for (std::uint16_t i = 0; i < n; ++i) {
      BatchSlot slot;
      slot.status = core::wire_status_from_u16(r.u16());
      if (core::is_read_status(slot.status)) {
        slot.outcome = decode_read_outcome(slot.status, r);
      } else {
        slot.message = r.str();
      }
      resp.slots.push_back(std::move(slot));
    }
  } else if (resp.status == core::WireStatus::kOk) {
    if (resp.op == MsgOp::kWrite) resp.sn = r.u64();
    if (resp.op == MsgOp::kShardMap) {
      resp.shard_id = r.u32();
      resp.shard_map = r.blob();
    }
  } else if (resp.status == core::WireStatus::kSnMismatch) {
    resp.sn = r.u64();
    resp.message = r.str();
  } else {
    resp.message = r.str();
  }
  r.expect_end();
  return resp;
}

}  // namespace worm::server
