#include "worm/session.hpp"

#include <utility>

#include "common/serial.hpp"
#include "crypto/hmac.hpp"

namespace worm::core {

common::Bytes mint_session_token(common::ByteView secret,
                                 std::string_view principal) {
  // MAC over a length-framed principal, so "ab"+"c" and "a"+"bc" differ.
  common::ByteWriter w;
  w.str(std::string(principal));
  return crypto::HmacSha256::mac_bytes(secret, w.take());
}

bool check_session_token(common::ByteView secret, std::string_view principal,
                         common::ByteView token) {
  return common::ct_equal(mint_session_token(secret, principal), token);
}

WormSession::WormSession(WormStore& store, std::string principal,
                         const common::TimeSource& trusted_time)
    : store_(store), principal_(std::move(principal)), time_(trusted_time) {
  sync();  // adopt whatever attestation the store already holds
}

ReadOutcome WormSession::read(Sn sn) {
  ReadOutcome r = store_.read(sn);
  sync();
  // A not-allocated answer carries its own (possibly fresher) attestation.
  if (const auto* na = r.get_if<ReadNotAllocated>()) observe(na->current);
  return r;
}

std::vector<ReadOutcome> WormSession::read_many(const std::vector<Sn>& sns) {
  std::vector<ReadOutcome> rs = store_.read_many(sns);
  sync();
  for (const ReadOutcome& r : rs) {
    if (const auto* na = r.get_if<ReadNotAllocated>()) observe(na->current);
  }
  return rs;
}

Sn WormSession::write(const WriteRequest& request) {
  Sn sn = store_.write(request);
  sync();
  return sn;
}

WriteTicket WormSession::write_async(WriteRequest request) {
  return store_.write_async(std::move(request));
}

std::optional<WriteTicket> WormSession::try_write_async(WriteRequest request) {
  return store_.try_write_async(std::move(request));
}

void WormSession::lit_hold(const LitigationRequest& request) {
  store_.lit_hold(request);
  sync();
}

void WormSession::lit_release(const LitigationRequest& request) {
  store_.lit_release(request);
  sync();
}

bool WormSession::async_capable() const {
  return store_.config().pipeline.enabled;
}

Sn WormSession::next_sn() const { return store_.next_sn(); }

void WormSession::drain_writes() { store_.drain_writes(); }

std::map<std::string_view, std::uint64_t> WormSession::counters() const {
  return store_.counters();
}

bool WormSession::observe(const SignedSnCurrent& current) {
  if (current.sn_current == kInvalidSn && current.sig.empty()) return false;
  bool fresher = watermark_.sig.empty() ||
                 current.stamped_at > watermark_.stamped_at ||
                 (current.stamped_at == watermark_.stamped_at &&
                  current.sn_current > watermark_.sn_current);
  if (fresher) watermark_ = current;
  return fresher;
}

bool WormSession::observe_epoch(const EpochCert& cert) {
  if (cert.sig.empty()) return false;
  if (epoch_cert_.has_value() && cert.epoch <= epoch_cert_->epoch) return false;
  epoch_cert_ = cert;
  return true;
}

void WormSession::sync() {
  observe(store_.latest_heartbeat());
  if (std::optional<EpochCert> cert = store_.latest_epoch_cert()) {
    observe_epoch(*cert);
  }
}

bool WormSession::fresh(common::Duration max_age) const {
  // Judge the newest attestation of either kind: the per-operation watermark
  // or the amortized epoch cert. Steady-state reads ride the cert and never
  // cross the mailbox just to re-stamp freshness.
  std::optional<common::SimTime> newest;
  if (!watermark_.sig.empty()) newest = watermark_.stamped_at;
  if (epoch_cert_.has_value() &&
      (!newest.has_value() || epoch_cert_->stamped_at > *newest)) {
    newest = epoch_cert_->stamped_at;
  }
  if (!newest.has_value()) return false;
  return time_.now() - *newest <= max_age;
}

SignedSnCurrent WormSession::refresh() {
  SignedSnCurrent current = store_.refresh_heartbeat();
  observe(current);
  return current;
}

ClientVerifier& WormSession::verifier() {
  if (verifier_ == nullptr) {
    verifier_ = std::make_unique<ClientVerifier>(store_.anchors(), time_);
  }
  return *verifier_;
}

WormSession::VerifiedRead WormSession::verified_read(Sn sn) {
  ReadOutcome r = read(sn);
  Outcome v = verifier().verify_read(sn, r);
  return {std::move(r), std::move(v)};
}

}  // namespace worm::core
