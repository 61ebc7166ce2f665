// analyze fixture [wire-taint] — known-bad. Raw bytes from the socket are
// framed and handed to the session with no protocol:: decode in between:
// attacker-controlled input reaches the trust boundary unparsed.
#include "common/net.hpp"

namespace fixture {

void RawServer::pump() {
  common::read_some(sock_, inbuf_, 65536);
  auto frame = take_frame(inbuf_, off_);
  // BUG: the undecoded frame goes straight into the store.
  conn_.session->write(frame);
}

void RawServer::relay(Bytes body) {
  // Helper that sinks its parameter; tainted callers make this a finding.
  conn_.session->try_write_async(body);
}

void RawServer::pump_indirect() {
  common::read_some(sock_, inbuf_, 65536);
  auto frame = take_frame(inbuf_, off_);
  // BUG (cross-TU shape): taint flows through relay()'s parameter.
  relay(frame);
}

}  // namespace fixture
