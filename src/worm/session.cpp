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
    : store_(store), principal_(std::move(principal)), time_(trusted_time) {}

ReadOutcome WormSession::read(Sn sn) { return store_.read(sn); }

std::vector<ReadOutcome> WormSession::read_many(const std::vector<Sn>& sns) {
  return store_.read_many(sns);
}

Sn WormSession::write(const WriteRequest& request) {
  return store_.write(request);
}

WriteTicket WormSession::write_async(WriteRequest request) {
  return store_.write_async(std::move(request));
}

std::optional<WriteTicket> WormSession::try_write_async(WriteRequest request) {
  return store_.try_write_async(std::move(request));
}

void WormSession::lit_hold(const LitigationRequest& request) {
  store_.lit_hold(request);
}

void WormSession::lit_release(const LitigationRequest& request) {
  store_.lit_release(request);
}

bool WormSession::async_capable() const {
  return store_.config().pipeline.enabled;
}

Sn WormSession::next_sn() const { return store_.next_sn(); }

void WormSession::drain_writes() { store_.drain_writes(); }

std::map<std::string_view, std::uint64_t> WormSession::counters() const {
  return store_.counters();
}

bool WormSession::fresh(common::Duration max_age) const {
  // Judge the newest attestation of either kind: the heartbeat or the
  // amortized epoch cert. Steady-state reads ride the cert and never cross
  // the mailbox just to re-stamp freshness.
  const SignedSnCurrent wm = watermark();
  const std::optional<EpochCert> cert = epoch_cert();
  std::optional<common::SimTime> newest;
  if (!wm.sig.empty()) newest = wm.stamped_at;
  if (cert.has_value() && (!newest.has_value() || cert->stamped_at > *newest)) {
    newest = cert->stamped_at;
  }
  if (!newest.has_value()) return false;
  return time_.now() - *newest <= max_age;
}

SignedSnCurrent WormSession::refresh() { return store_.refresh_heartbeat(); }

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
