// Fuzz-style hardening of the device-side command decoder: for every opcode,
// every strict truncation and a battery of deterministic byte/bit mutations
// of a valid frame must come back as a well-formed error response — never a
// crash, never an out-of-range status, and (for truncations) never silent
// acceptance. Run under asan/ubsan in CI, where "no crash" has teeth.
#include <gtest/gtest.h>

#include "common/serial.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha1.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::ByteWriter;
using common::Bytes;
using common::Duration;
using worm::testing::Rig;

constexpr std::uint8_t kOk = 0;
constexpr std::uint8_t kError = 1;

/// One valid wire frame per opcode, built against a live deployment so the
/// structured fields (Vrd, descriptors, credentials) are genuine.
std::vector<std::pair<OpCode, Bytes>> valid_frames(Rig& rig) {
  // A real record to source a Vrd and descriptor list from.
  Sn sn = rig.put("fuzz seed record", Duration::days(30));
  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
  EXPECT_TRUE(e.has_value());
  const Vrd& vrd = e->vrd;
  Bytes payload = common::to_bytes("fuzz seed record");
  Bytes cred = rig.lit_credential(sn, 7, true);

  std::vector<std::pair<OpCode, Bytes>> frames;
  auto bare = [](OpCode op) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(op));
    return w.take();
  };

  // kWriteBatch in both item shapes: payloads for the device to hash, and a
  // host-claimed hash (a lone write is the one-item case of either).
  for (HashMode hash_mode : {HashMode::kScpuHash, HashMode::kHostHash}) {
    Firmware::BatchItem item;
    item.attr = rig.attr(Duration::days(1));
    item.rdl = vrd.rdl;
    if (hash_mode == HashMode::kScpuHash) {
      item.payloads = {payload};
    } else {
      item.claimed_hash = vrd.data_hash;
    }
    ByteWriter w;
    ScpuChannel::encode_write_batch_into(w, {item}, WitnessMode::kStrong,
                                         hash_mode);
    frames.emplace_back(OpCode::kWriteBatch, w.take());
  }
  frames.emplace_back(OpCode::kHeartbeat, bare(OpCode::kHeartbeat));
  frames.emplace_back(OpCode::kSignBase, bare(OpCode::kSignBase));
  frames.emplace_back(OpCode::kAdvanceBase,
                      ScpuChannel::encode_advance_base(2, {}, {}));
  frames.emplace_back(OpCode::kCertifyWindow,
                      ScpuChannel::encode_certify_window(2, 4, {}, {}));
  frames.emplace_back(OpCode::kStrengthen,
                      ScpuChannel::encode_strengthen({vrd}, {{payload}}));
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(OpCode::kAuditHash));
    w.u64(sn);
    w.u32(1);
    w.blob(payload);
    frames.emplace_back(OpCode::kAuditHash, w.take());
  }
  frames.emplace_back(
      OpCode::kLitHold,
      ScpuChannel::encode_lit_hold(vrd, rig.clock.now() + Duration::days(30),
                                   7, rig.clock.now(), cred));
  frames.emplace_back(OpCode::kLitRelease,
                      ScpuChannel::encode_lit_release(vrd, 7, rig.clock.now(),
                                                      cred));
  frames.emplace_back(OpCode::kGetCertificates, bare(OpCode::kGetCertificates));
  frames.emplace_back(OpCode::kVexpRebuildBegin,
                      bare(OpCode::kVexpRebuildBegin));
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(OpCode::kVexpRebuildAdd));
    vrd.serialize(w);
    frames.emplace_back(OpCode::kVexpRebuildAdd, w.take());
  }
  frames.emplace_back(OpCode::kVexpRebuildEnd, bare(OpCode::kVexpRebuildEnd));
  frames.emplace_back(OpCode::kProcessIdle, bare(OpCode::kProcessIdle));
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(OpCode::kSignMigration));
    w.blob(crypto::Sha1::hash_bytes(common::to_bytes("manifest")));
    w.u64(1);
    w.u64(2);
    frames.emplace_back(OpCode::kSignMigration, w.take());
  }
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(OpCode::kDeferredPending));
    w.u32(16);
    frames.emplace_back(OpCode::kDeferredPending, w.take());
  }
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(OpCode::kHashAuditsPending));
    w.u32(16);
    frames.emplace_back(OpCode::kHashAuditsPending, w.take());
  }
  frames.emplace_back(OpCode::kStatus, bare(OpCode::kStatus));
  frames.emplace_back(OpCode::kEpochCert, bare(OpCode::kEpochCert));
  return frames;
}

/// The decoder's whole contract in one predicate: an answer came back, and
/// it is a frame this protocol can produce.
void expect_well_formed(const Bytes& response, const std::string& what) {
  ASSERT_FALSE(response.empty()) << what;
  EXPECT_LE(response[0], std::uint8_t{3}) << what;
}

/// The error message of a non-ok response ("" for ok responses).
std::string response_message(const Bytes& response) {
  if (response.empty() || response[0] == kOk) return "";
  common::ByteReader r(response);
  (void)r.u8();
  return r.str();
}

bool is_parse_rejection(const Bytes& response) {
  return !response.empty() && response[0] == kError &&
         response_message(response).rfind("malformed command", 0) == 0;
}

TEST(CommandsFuzz, EveryOpcodeIsCovered) {
  Rig rig;
  auto frames = valid_frames(rig);
  // One frame per opcode (kWriteBatch in both item shapes); grows with the
  // OpCode enum — keep in sync.
  EXPECT_EQ(frames.size(), 20u);
  // Each valid frame must at least clear the PARSER — state-dependent ops
  // (base advance without proofs, say) may be rejected by certified logic,
  // but a "malformed command" answer would mean the fuzz below starts from
  // broken bytes.
  ScpuChannel channel(rig.firmware);
  for (auto& [op, frame] : frames) {
    Bytes response = channel.call(frame);
    ASSERT_FALSE(response.empty());
    EXPECT_FALSE(is_parse_rejection(response))
        << "opcode " << static_cast<int>(op)
        << " failed to parse its valid frame: " << response_message(response);
  }
}

TEST(CommandsFuzz, EveryTruncationOfEveryOpcodeIsRejected) {
  Rig rig;
  ScpuChannel channel(rig.firmware);
  for (auto& [op, frame] : valid_frames(rig)) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      Bytes truncated(frame.begin(),
                      frame.begin() + static_cast<std::ptrdiff_t>(len));
      Bytes response = channel.call(truncated);
      expect_well_formed(response, "truncation");
      // Every opcode parses its full frame then demands the end of input, so
      // no strict prefix may ever be accepted — it must die in the parser.
      EXPECT_TRUE(is_parse_rejection(response))
          << "opcode " << static_cast<int>(op) << ": " << len
          << "-byte prefix of its " << frame.size()
          << "-byte frame got past the parser: " << response_message(response);
    }
  }
}

TEST(CommandsFuzz, ByteMutationsNeverCrashTheDecoder) {
  Rig rig;
  ScpuChannel channel(rig.firmware);
  crypto::Drbg rng(0xf522);
  for (auto& [op, frame] : valid_frames(rig)) {
    for (int round = 0; round < 64; ++round) {
      Bytes mutated = frame;
      // 1-3 deterministic byte substitutions anywhere in the frame,
      // including the opcode itself.
      std::size_t edits = 1 + rng.uniform(3);
      for (std::size_t k = 0; k < edits; ++k) {
        mutated[rng.uniform(mutated.size())] =
            static_cast<std::uint8_t>(rng.uniform(256));
      }
      Bytes response = channel.call(mutated);
      expect_well_formed(response,
                         "mutation of opcode " + std::to_string(
                             static_cast<int>(op)));
      // A mutation may still parse (e.g. a flipped payload byte) and then
      // execute or be rejected by certified logic — both fine. What it may
      // never do is crash, hang, or answer with an unknown status.
    }
  }
}

TEST(CommandsFuzz, RandomGarbageFramesAreRejected) {
  Rig rig;
  ScpuChannel channel(rig.firmware);
  crypto::Drbg rng(0x6a5ba6e);
  for (int round = 0; round < 512; ++round) {
    Bytes garbage = rng.bytes(rng.uniform(128));
    Bytes response = channel.call(garbage);
    expect_well_formed(response, "garbage frame");
  }
  // And frames with every possible leading opcode byte over garbage tails.
  for (int op = 0; op < 256; ++op) {
    Bytes frame = rng.bytes(24);
    frame[0] = static_cast<std::uint8_t>(op);
    Bytes response = channel.call(frame);
    expect_well_formed(response, "opcode byte " + std::to_string(op));
  }
}

}  // namespace
}  // namespace worm::core
