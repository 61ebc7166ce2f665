// analyze fixture [wire-taint] — known-good. Same shape as taint_bad.cpp,
// but the frame passes through the strict decoder before any session call:
// the decoded Request is structurally validated, so its fields are trusted.
#include "common/net.hpp"

namespace fixture {

void DecodingServer::pump() {
  common::read_some(sock_, inbuf_, 65536);
  auto frame = take_frame(inbuf_, off_);
  Request req = decode_request(frame);
  conn_.session->write(req.payload);
}

}  // namespace fixture
