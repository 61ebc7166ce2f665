#include "worm/commands.hpp"

#include <atomic>
#include <optional>

#include "common/crc32c.hpp"
#include "common/serial.hpp"

namespace worm::core {

using common::ByteReader;
using common::Bytes;
using common::ByteView;
using common::ByteWriter;
using common::FaultKind;

namespace {

// Response statuses. Protocol-level rejections (kStatusError) are final;
// transport-level trouble (kStatusTransport) is retryable; kStatusDead means
// the device zeroized and nothing will ever answer again.
constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusError = 1;
constexpr std::uint8_t kStatusTransport = 2;
constexpr std::uint8_t kStatusDead = 3;

Bytes ok_response(const ByteWriter& payload) {
  ByteWriter w;
  w.u8(kStatusOk);
  w.raw(payload.bytes());
  return w.take();
}

Bytes error_response(const std::string& message) {
  ByteWriter w;
  w.u8(kStatusError);
  w.str(message);
  return w.take();
}

Bytes transport_response(const std::string& message) {
  ByteWriter w;
  w.u8(kStatusTransport);
  w.str(message);
  return w.take();
}

Bytes dead_response(const std::string& message) {
  ByteWriter w;
  w.u8(kStatusDead);
  w.str(message);
  return w.take();
}

void flip_wire_bit(common::FaultInjector& fault, Bytes& frame) {
  if (frame.empty()) return;
  std::uint64_t bit = fault.shape(frame.size() * 8);
  frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

// --- field codecs ---------------------------------------------------------

void put_witness(ByteWriter& w, const WriteWitness& ww) {
  w.u64(ww.sn);
  ww.attr.serialize(w);
  w.blob(ww.data_hash);
  ww.metasig.serialize(w);
  ww.datasig.serialize(w);
}

WriteWitness get_witness(ByteReader& r) {
  WriteWitness ww;
  ww.sn = r.u64();
  ww.attr = Attr::deserialize(r);
  ww.data_hash = r.blob();
  ww.metasig = SigBox::deserialize(r);
  ww.datasig = SigBox::deserialize(r);
  return ww;
}

void put_payloads(ByteWriter& w, const std::vector<Bytes>& payloads) {
  w.u32(static_cast<std::uint32_t>(payloads.size()));
  for (const auto& p : payloads) w.blob(p);
}

std::vector<Bytes> get_payloads(ByteReader& r) {
  std::uint32_t n = r.count(4);
  std::vector<Bytes> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.blob());
  return out;
}

void put_proofs(ByteWriter& w, const std::vector<DeletionProof>& proofs) {
  w.u32(static_cast<std::uint32_t>(proofs.size()));
  for (const auto& p : proofs) p.serialize(w);
}

std::vector<DeletionProof> get_proofs(ByteReader& r) {
  std::uint32_t n = r.count(20);
  std::vector<DeletionProof> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(DeletionProof::deserialize(r));
  }
  return out;
}

void put_windows(ByteWriter& w, const std::vector<DeletedWindow>& windows) {
  w.u32(static_cast<std::uint32_t>(windows.size()));
  for (const auto& win : windows) win.serialize(w);
}

std::vector<DeletedWindow> get_windows(ByteReader& r) {
  std::uint32_t n = r.count(40);
  std::vector<DeletedWindow> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(DeletedWindow::deserialize(r));
  }
  return out;
}

void put_lit_update(ByteWriter& w, const Firmware::LitUpdate& up) {
  up.attr.serialize(w);
  up.metasig.serialize(w);
}

Firmware::LitUpdate get_lit_update(ByteReader& r) {
  Firmware::LitUpdate up;
  up.attr = Attr::deserialize(r);
  up.metasig = SigBox::deserialize(r);
  return up;
}

void put_sns(ByteWriter& w, const std::vector<Sn>& sns) {
  w.u32(static_cast<std::uint32_t>(sns.size()));
  for (Sn sn : sns) w.u64(sn);
}

std::vector<Sn> get_sns(ByteReader& r) {
  std::uint32_t n = r.count(8);
  std::vector<Sn> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u64());
  return out;
}

Firmware::BatchItem get_batch_item(ByteReader& r) {
  Firmware::BatchItem item;
  item.attr = Attr::deserialize(r);
  std::uint32_t nrd = r.count(20);
  item.rdl.reserve(nrd);
  for (std::uint32_t k = 0; k < nrd; ++k) {
    item.rdl.push_back(storage::RecordDescriptor::deserialize(r));
  }
  item.payloads = get_payloads(r);
  item.claimed_hash = r.blob();
  return item;
}

WitnessMode get_witness_mode(ByteReader& r) {
  std::uint8_t raw = r.u8();
  if (raw > 2) throw common::ParseError("bad witness mode");
  return static_cast<WitnessMode>(raw);
}

HashMode get_hash_mode(ByteReader& r) {
  std::uint8_t raw = r.u8();
  if (raw > 1) throw common::ParseError("bad hash mode");
  return static_cast<HashMode>(raw);
}

void bump(std::atomic<std::uint64_t>& count, std::uint64_t by = 1) {
  count.fetch_add(by, std::memory_order_relaxed);
}

}  // namespace

ScpuChannel::WireStats ScpuChannel::wire_stats() const {
  auto get = [](const std::atomic<std::uint64_t>& count) {
    return count.load(std::memory_order_relaxed);
  };
  return {get(wire_.commands),   get(wire_.bytes_crossed),
          get(wire_.errors),     get(wire_.retries),
          get(wire_.dedup_hits), get(wire_.transport_faults),
          get(wire_.timeouts)};
}

// ---------------------------------------------------------------------------
// Device-side dispatch
// ---------------------------------------------------------------------------

Bytes ScpuChannel::dispatch(ByteView request) {
  ByteReader r(request);
  OpCode op = static_cast<OpCode>(r.u8());
  ByteWriter out;
  switch (op) {
    case OpCode::kWriteBatch: {
      // Parsing is complete before the firmware sees the batch: a truncated
      // or malformed request therefore cannot issue any serial number.
      ParsedWriteBatch batch = decode_write_batch_request(request);
      auto witnesses =
          fw_.write_batch(batch.items, batch.mode, batch.hash_mode);
      out.u32(static_cast<std::uint32_t>(witnesses.size()));
      for (const auto& ww : witnesses) put_witness(out, ww);
      // Batch ack shape: the group's net effect on the device's SN counter
      // rides the same crossing, so the host mirror never lags its own ack.
      out.u64(fw_.sn_current());
      // Epoch attestation rides the ack too: with certs refreshed by write
      // traffic itself, a steady read workload needs no dedicated
      // attestation crossing at all.
      if (std::optional<EpochCert> cert = fw_.epoch_cert_opt()) {
        out.boolean(true);
        cert->serialize(out);
      } else {
        out.boolean(false);
      }
      break;
    }
    case OpCode::kEpochCert: {
      r.expect_end();
      fw_.epoch_cert().serialize(out);
      break;
    }
    case OpCode::kStatus: {
      r.expect_end();
      fw_.device().ensure_alive();
      out.u64(fw_.sn_current());
      out.u64(fw_.sn_base());
      out.boolean(fw_.vexp_incomplete());
      out.u32(static_cast<std::uint32_t>(fw_.deferred_count()));
      out.i64(fw_.earliest_deadline().ns);
      out.u64(fw_.transport_last_seq());
      break;
    }
    case OpCode::kHeartbeat: {
      r.expect_end();
      fw_.heartbeat().serialize(out);
      break;
    }
    case OpCode::kSignBase: {
      r.expect_end();
      fw_.sign_base().serialize(out);
      break;
    }
    case OpCode::kAdvanceBase: {
      Sn new_base = r.u64();
      auto proofs = get_proofs(r);
      auto windows = get_windows(r);
      r.expect_end();
      fw_.advance_base(new_base, proofs, windows).serialize(out);
      break;
    }
    case OpCode::kCertifyWindow: {
      Sn lo = r.u64();
      Sn hi = r.u64();
      auto proofs = get_proofs(r);
      auto windows = get_windows(r);
      r.expect_end();
      fw_.certify_window(lo, hi, proofs, windows).serialize(out);
      break;
    }
    case OpCode::kStrengthen: {
      std::uint32_t n = r.count(32);
      std::vector<Vrd> vrds;
      vrds.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) vrds.push_back(Vrd::deserialize(r));
      std::uint32_t np = r.count(4);
      std::vector<std::vector<Bytes>> payloads;
      payloads.reserve(np);
      for (std::uint32_t i = 0; i < np; ++i) payloads.push_back(get_payloads(r));
      r.expect_end();
      auto results = fw_.strengthen(vrds, payloads);
      out.u32(static_cast<std::uint32_t>(results.size()));
      for (const auto& res : results) {
        out.u64(res.sn);
        res.metasig.serialize(out);
        res.datasig.serialize(out);
      }
      break;
    }
    case OpCode::kAuditHash: {
      Sn sn = r.u64();
      auto payloads = get_payloads(r);
      r.expect_end();
      fw_.audit_hash(sn, payloads);
      break;
    }
    case OpCode::kLitHold: {
      Vrd vrd = Vrd::deserialize(r);
      common::SimTime hold_until{r.i64()};
      std::uint64_t lit_id = r.u64();
      common::SimTime issued{r.i64()};
      Bytes cred = r.blob();
      r.expect_end();
      put_lit_update(out, fw_.lit_hold(vrd, hold_until, lit_id, issued, cred));
      break;
    }
    case OpCode::kLitRelease: {
      Vrd vrd = Vrd::deserialize(r);
      std::uint64_t lit_id = r.u64();
      common::SimTime issued{r.i64()};
      Bytes cred = r.blob();
      r.expect_end();
      put_lit_update(out, fw_.lit_release(vrd, lit_id, issued, cred));
      break;
    }
    case OpCode::kGetCertificates: {
      r.expect_end();
      out.blob(fw_.meta_public_key().serialize());
      out.blob(fw_.deletion_public_key().serialize());
      auto certs = fw_.short_key_certs();
      out.u32(static_cast<std::uint32_t>(certs.size()));
      for (const auto& c : certs) c.serialize(out);
      break;
    }
    case OpCode::kVexpRebuildBegin: {
      r.expect_end();
      fw_.vexp_rebuild_begin();
      break;
    }
    case OpCode::kVexpRebuildAdd: {
      Vrd vrd = Vrd::deserialize(r);
      r.expect_end();
      fw_.vexp_rebuild_add(vrd);
      break;
    }
    case OpCode::kVexpRebuildEnd: {
      r.expect_end();
      fw_.vexp_rebuild_end();
      break;
    }
    case OpCode::kProcessIdle: {
      r.expect_end();
      fw_.process_idle();
      break;
    }
    case OpCode::kSignMigration: {
      Bytes manifest = r.blob();
      std::uint64_t src = r.u64();
      std::uint64_t dst = r.u64();
      r.expect_end();
      fw_.sign_migration(manifest, src, dst).serialize(out);
      break;
    }
    case OpCode::kDeferredPending: {
      std::uint32_t limit = r.u32();
      r.expect_end();
      put_sns(out, fw_.deferred_pending(limit));
      break;
    }
    case OpCode::kHashAuditsPending: {
      std::uint32_t limit = r.u32();
      r.expect_end();
      put_sns(out, fw_.hash_audits_pending(limit));
      break;
    }
    default:
      throw common::ParseError("unknown opcode");
  }
  return ok_response(out);
}

Bytes ScpuChannel::receive(std::uint64_t seq, std::uint32_t request_crc,
                           ByteView request) {
  // The device boundary: hostile or malformed bytes become error responses.
  // InternalError is NOT caught — that is a bug in this codebase, not input.
  Bytes response;
  bool from_cache = false;
  if (common::crc32c(request) != request_crc) {
    // Frame damaged in transit: refuse before any certified logic runs.
    response = transport_response("frame checksum mismatch");
  } else {
    // The tamper sensor may trip while the command sits in the mailbox.
    if (WORM_FAULT_POINT(fault_, "scpu.tamper") == FaultKind::kZeroize) {
      fw_.device().trigger_tamper_response();
    }
    if (seq != 0) {
      if (const Bytes* hit = fw_.transport_cached(seq, request_crc)) {
        // Duplicate delivery of an already-executed sequenced command:
        // answer from the cache, execute nothing.
        bump(wire_.dedup_hits);
        response = *hit;
        from_cache = true;
      }
    }
    if (!from_cache) {
      try {
        response = dispatch(request);
      } catch (const common::ParseError& e) {
        response = error_response(std::string("malformed command: ") + e.what());
      } catch (const common::ScpuError& e) {
        response = fw_.device().tampered()
                       ? dead_response(e.what())
                       : error_response(std::string("rejected: ") + e.what());
      } catch (const common::PreconditionError& e) {
        response = error_response(std::string("rejected: ") + e.what());
      }
      // Remember every executed sequenced response (ok or rejected) so a
      // resend of the same frame can never execute twice; a dead device has
      // nothing left worth remembering.
      if (seq != 0 && !response.empty() && response[0] != kStatusDead) {
        fw_.transport_remember(seq, request_crc, response);
      }
    }
  }
  // The crossing itself costs one PCI-X command round-trip plus DMA for the
  // bytes actually moved — charged here because only the transport knows the
  // real wire sizes. Rejected commands still crossed the boundary and still
  // pay; a zeroized device no longer accounts time (it is gone).
  if (!fw_.device().tampered()) {
    fw_.device().charge(
        fw_.device().cost().transfer_cost(request.size(), response.size()));
  }
  bump(wire_.commands);
  bump(wire_.bytes_crossed, request.size() + response.size());
  if (!response.empty() && response[0] == kStatusError) bump(wire_.errors);
  return response;
}

Bytes ScpuChannel::call(ByteView request) {
  // Raw surface: one unsequenced crossing, no retry (the fuzz tests drive
  // hostile bytes through here).
  return receive(0, common::crc32c(request), request);
}

ScpuChannel::Prepared ScpuChannel::prepare(Bytes request) {
  return Prepared{next_seq_++, std::move(request)};
}

Bytes ScpuChannel::send(const Prepared& cmd) {
  const std::uint32_t req_crc = common::crc32c(cmd.request);
  common::Duration waited{};
  common::Duration backoff = retry_.initial_backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    FaultKind req_fault = WORM_FAULT_POINT(fault_, "channel.request");
    bool response_lost = false;
    std::optional<Bytes> response;
    if (req_fault == FaultKind::kDrop) {
      // Request vanished before reaching the device: nothing executed.
      response_lost = true;
    } else {
      Bytes wire_request = cmd.request;
      if (req_fault == FaultKind::kBitFlip) {
        flip_wire_bit(*fault_, wire_request);
      }
      Bytes raw = receive(cmd.seq, req_crc, wire_request);
      if (req_fault == FaultKind::kDuplicate) {
        // Delayed duplicate delivery: the host acts on the later copy; the
        // dedup cache must make the repeat execution-free.
        raw = receive(cmd.seq, req_crc, wire_request);
      }
      // The response frame carries its own checksum across the wire.
      const std::uint32_t resp_crc = common::crc32c(raw);
      FaultKind resp_fault = WORM_FAULT_POINT(fault_, "channel.response");
      if (req_fault == FaultKind::kTimeout ||
          resp_fault == FaultKind::kDrop ||
          resp_fault == FaultKind::kTimeout) {
        // Executed, but the answer never made it back in time.
        response_lost = true;
      } else {
        if (resp_fault == FaultKind::kBitFlip) flip_wire_bit(*fault_, raw);
        if (common::crc32c(raw) == resp_crc) {
          response = std::move(raw);
        } else {
          response_lost = true;  // damaged beyond the frame check
        }
      }
    }
    if (!response_lost && response.has_value()) {
      const Bytes& resp = *response;
      if (!resp.empty() && resp[0] == kStatusDead) {
        ByteReader r(resp);
        r.u8();
        throw ScpuDeadError("SCPU zeroized: " + r.str());
      }
      if (resp.empty() || resp[0] != kStatusTransport) {
        return resp;  // ok or protocol error: final either way
      }
      // kStatusTransport: the device refused a damaged frame — retryable.
    }
    bump(wire_.transport_faults);
    common::Duration wait{retry_.response_timeout.ns + backoff.ns};
    if (attempt >= retry_.max_attempts ||
        common::Duration{waited.ns + wait.ns} > retry_.deadline) {
      bump(wire_.timeouts);
      throw ChannelTimeoutError(
          "mailbox command timed out after " + std::to_string(attempt) +
          " attempt(s) (seq " + std::to_string(cmd.seq) + ")");
    }
    // All waiting is simulated: charge the backoff to the clock and resend.
    fw_.device().clock().charge(wait);
    waited = common::Duration{waited.ns + wait.ns};
    backoff =
        common::Duration{backoff.ns * static_cast<std::int64_t>(
                                          retry_.backoff_factor)};
    bump(wire_.retries);
  }
}

Bytes ScpuChannel::send_ok(const Prepared& cmd) {
  Bytes response = send(cmd);
  ByteReader r(response);
  std::uint8_t status = r.u8();
  if (status != kStatusOk) {
    throw ChannelError("SCPU error: " + r.str());
  }
  return Bytes(response.begin() + 1, response.end());
}

// ---------------------------------------------------------------------------
// Request/response codecs
// ---------------------------------------------------------------------------

void ScpuChannel::encode_write_batch_into(
    ByteWriter& w, const std::vector<Firmware::BatchItem>& items,
    WitnessMode mode, HashMode hash_mode) {
  w.u8(static_cast<std::uint8_t>(OpCode::kWriteBatch));
  w.u8(static_cast<std::uint8_t>(mode));
  w.u8(static_cast<std::uint8_t>(hash_mode));
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) {
    item.attr.serialize(w);
    w.u32(static_cast<std::uint32_t>(item.rdl.size()));
    for (const auto& rd : item.rdl) rd.serialize(w);
    put_payloads(w, item.payloads);
    w.blob(item.claimed_hash);
  }
}

Bytes ScpuChannel::encode_lit_hold(const Vrd& vrd, common::SimTime hold_until,
                                   std::uint64_t lit_id,
                                   common::SimTime cred_issued_at,
                                   ByteView credential) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kLitHold));
  vrd.serialize(w);
  w.i64(hold_until.ns);
  w.u64(lit_id);
  w.i64(cred_issued_at.ns);
  w.blob(credential);
  return w.take();
}

Bytes ScpuChannel::encode_lit_release(const Vrd& vrd, std::uint64_t lit_id,
                                      common::SimTime cred_issued_at,
                                      ByteView credential) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kLitRelease));
  vrd.serialize(w);
  w.u64(lit_id);
  w.i64(cred_issued_at.ns);
  w.blob(credential);
  return w.take();
}

Bytes ScpuChannel::encode_strengthen(
    const std::vector<Vrd>& vrds,
    const std::vector<std::vector<Bytes>>& payloads_per_vrd) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kStrengthen));
  w.u32(static_cast<std::uint32_t>(vrds.size()));
  for (const auto& v : vrds) v.serialize(w);
  w.u32(static_cast<std::uint32_t>(payloads_per_vrd.size()));
  for (const auto& p : payloads_per_vrd) put_payloads(w, p);
  return w.take();
}

Bytes ScpuChannel::encode_audit_hash(Sn sn,
                                     const std::vector<Bytes>& payloads) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kAuditHash));
  w.u64(sn);
  put_payloads(w, payloads);
  return w.take();
}

Bytes ScpuChannel::encode_certify_window(
    Sn lo, Sn hi, const std::vector<DeletionProof>& proofs,
    const std::vector<DeletedWindow>& windows) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kCertifyWindow));
  w.u64(lo);
  w.u64(hi);
  put_proofs(w, proofs);
  put_windows(w, windows);
  return w.take();
}

Bytes ScpuChannel::encode_advance_base(
    Sn new_base, const std::vector<DeletionProof>& proofs,
    const std::vector<DeletedWindow>& windows) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kAdvanceBase));
  w.u64(new_base);
  put_proofs(w, proofs);
  put_windows(w, windows);
  return w.take();
}

ScpuChannel::BatchAck ScpuChannel::decode_write_batch_response(
    ByteView payload) {
  ByteReader r(payload);
  std::uint32_t n = r.u32();
  BatchAck ack;
  ack.witnesses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ack.witnesses.push_back(get_witness(r));
  ack.sn_current_after = r.u64();
  if (r.boolean()) ack.epoch_cert = EpochCert::deserialize(r);
  r.expect_end();
  return ack;
}

Firmware::LitUpdate ScpuChannel::decode_lit_response(ByteView payload) {
  ByteReader r(payload);
  Firmware::LitUpdate up = get_lit_update(r);
  r.expect_end();
  return up;
}

std::vector<StrengthenResult> ScpuChannel::decode_strengthen_response(
    ByteView payload) {
  ByteReader r(payload);
  std::uint32_t n = r.u32();
  std::vector<StrengthenResult> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    StrengthenResult res;
    res.sn = r.u64();
    res.metasig = SigBox::deserialize(r);
    res.datasig = SigBox::deserialize(r);
    out.push_back(std::move(res));
  }
  r.expect_end();
  return out;
}

DeletedWindow ScpuChannel::decode_window_response(ByteView payload) {
  ByteReader r(payload);
  DeletedWindow win = DeletedWindow::deserialize(r);
  r.expect_end();
  return win;
}

SignedSnBase ScpuChannel::decode_base_response(ByteView payload) {
  ByteReader r(payload);
  SignedSnBase base = SignedSnBase::deserialize(r);
  r.expect_end();
  return base;
}

OpCode ScpuChannel::request_opcode(ByteView request) {
  ByteReader r(request);
  return static_cast<OpCode>(r.u8());
}

ScpuChannel::ParsedWriteBatch ScpuChannel::decode_write_batch_request(
    ByteView request) {
  ByteReader r(request);
  if (static_cast<OpCode>(r.u8()) != OpCode::kWriteBatch) {
    throw common::ParseError("decode_write_batch_request: not a kWriteBatch frame");
  }
  ParsedWriteBatch p;
  p.mode = get_witness_mode(r);
  p.hash_mode = get_hash_mode(r);
  // Each item needs at least an attr + one descriptor; 20 bytes is a safe
  // floor that still rejects forged multi-gigabyte counts.
  std::uint32_t n = r.count(20);
  if (n == 0) throw common::ParseError("empty write batch");
  if (n > kMaxBatchItems) throw common::ParseError("write batch too large");
  p.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) p.items.push_back(get_batch_item(r));
  r.expect_end();
  return p;
}

Sn ScpuChannel::decode_lit_request_sn(ByteView request) {
  ByteReader r(request);
  OpCode op = static_cast<OpCode>(r.u8());
  if (op != OpCode::kLitHold && op != OpCode::kLitRelease) {
    throw common::ParseError("decode_lit_request_sn: not a litigation frame");
  }
  return Vrd::deserialize(r).sn;
}

// ---------------------------------------------------------------------------
// Host-side typed wrappers
// ---------------------------------------------------------------------------

Bytes ScpuChannel::invoke_ok(Bytes request) {
  // Unsequenced (idempotent) command: retried per policy, never deduped.
  return send_ok(Prepared{0, std::move(request)});
}

ScpuStatus ScpuChannel::status() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kStatus));
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  ScpuStatus st;
  st.sn_current = r.u64();
  st.sn_base = r.u64();
  st.vexp_incomplete = r.boolean();
  st.deferred_count = r.u32();
  st.earliest_deadline = common::SimTime{r.i64()};
  st.last_seq = r.u64();
  return st;
}

SignedSnCurrent ScpuChannel::heartbeat() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kHeartbeat));
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  return SignedSnCurrent::deserialize(r);
}

SignedSnBase ScpuChannel::sign_base() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kSignBase));
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  return SignedSnBase::deserialize(r);
}

CertificateBundle ScpuChannel::get_certificates() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kGetCertificates));
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  CertificateBundle b;
  b.meta_pub = r.blob();
  b.deletion_pub = r.blob();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    b.short_certs.push_back(ShortKeyCert::deserialize(r));
  }
  return b;
}

void ScpuChannel::vexp_rebuild_begin() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kVexpRebuildBegin));
  invoke_ok(w.take());
}

void ScpuChannel::vexp_rebuild_add(const Vrd& vrd) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kVexpRebuildAdd));
  vrd.serialize(w);
  invoke_ok(w.take());
}

void ScpuChannel::vexp_rebuild_end() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kVexpRebuildEnd));
  invoke_ok(w.take());
}

void ScpuChannel::process_idle() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kProcessIdle));
  invoke_ok(w.take());
}

MigrationAttestation ScpuChannel::sign_migration(ByteView manifest_hash,
                                                 std::uint64_t source_id,
                                                 std::uint64_t dest_id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kSignMigration));
  w.blob(manifest_hash);
  w.u64(source_id);
  w.u64(dest_id);
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  return MigrationAttestation::deserialize(r);
}

std::vector<Sn> ScpuChannel::deferred_pending(std::uint32_t limit) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kDeferredPending));
  w.u32(limit);
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  return get_sns(r);
}

std::vector<Sn> ScpuChannel::hash_audits_pending(std::uint32_t limit) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kHashAuditsPending));
  w.u32(limit);
  Bytes payload_bytes = invoke_ok(w.take());
  ByteReader r(payload_bytes);
  return get_sns(r);
}

}  // namespace worm::core
