// Serialized SCPU command-channel tests: every opcode round-trips through
// the wire format, device errors come back as error responses, and hostile
// byte strings (truncations, bad tags, fuzzed mutations) can never crash the
// certified logic or corrupt its state.
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "worm/commands.hpp"
#include "worm_fixture.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::Duration;
using common::to_bytes;
using worm::testing::Rig;

struct ChannelRig : worm::testing::Rig {
  ChannelRig() : channel(firmware) {}

  /// One sequenced crossing of an encoded mutating command; returns the ok
  /// payload or throws ChannelError.
  Bytes sequenced(Bytes frame) {
    return channel.send_ok(channel.prepare(std::move(frame)));
  }

  ScpuChannel channel;
};

namespace batch {

Firmware::BatchItem make_item(ChannelRig& rig, const std::string& text,
                              common::Duration retention) {
  Bytes payload = to_bytes(text);
  Firmware::BatchItem item;
  item.attr = rig.attr(retention);
  item.rdl = {rig.records.write(payload)};
  item.payloads = {payload};
  return item;
}

/// The serialized request for one single-payload kScpuHash batch item.
Bytes encode_request(const std::vector<Firmware::BatchItem>& items) {
  common::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(OpCode::kWriteBatch));
  w.u8(0);  // WitnessMode::kStrong
  w.u8(0);  // HashMode::kScpuHash
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) {
    item.attr.serialize(w);
    w.u32(static_cast<std::uint32_t>(item.rdl.size()));
    for (const auto& rd : item.rdl) rd.serialize(w);
    w.u32(static_cast<std::uint32_t>(item.payloads.size()));
    for (const auto& p : item.payloads) w.blob(p);
    w.blob(item.claimed_hash);
  }
  return w.take();
}

/// One kWriteBatch crossing of strong, device-hashed items.
ScpuChannel::BatchAck write(ScpuChannel& channel,
                            const std::vector<Firmware::BatchItem>& items) {
  common::ByteWriter w;
  ScpuChannel::encode_write_batch_into(w, items, WitnessMode::kStrong,
                                       HashMode::kScpuHash);
  return ScpuChannel::decode_write_batch_response(
      channel.send_ok(channel.prepare(w.take())));
}

}  // namespace batch

TEST(Channel, WriteRoundTrip) {
  // A lone write crosses as a kWriteBatch of one.
  ChannelRig rig;
  Firmware::BatchItem item =
      batch::make_item(rig, "over the wire", Duration::days(30));

  ScpuChannel::BatchAck ack = batch::write(rig.channel, {item});
  ASSERT_EQ(ack.witnesses.size(), 1u);
  const WriteWitness& w = ack.witnesses[0];
  EXPECT_EQ(w.sn, 1u);
  EXPECT_EQ(ack.sn_current_after, 1u);
  EXPECT_EQ(w.metasig.kind, SigKind::kStrong);
  // The witness verifies like any firmware-issued one.
  Vrd vrd;
  vrd.sn = w.sn;
  vrd.attr = w.attr;
  vrd.rdl = item.rdl;
  vrd.data_hash = w.data_hash;
  vrd.metasig = w.metasig;
  vrd.datasig = w.datasig;
  EXPECT_EQ(rig.verifier.verify_vrd(vrd, item.payloads).verdict,
            Verdict::kAuthentic);
}

TEST(Channel, HeartbeatAndBaseRoundTrip) {
  ChannelRig rig;
  SignedSnCurrent hb = rig.channel.heartbeat();
  EXPECT_EQ(hb.sn_current, 0u);
  SignedSnBase base = rig.channel.sign_base();
  EXPECT_EQ(base.sn_base, 1u);
  EXPECT_EQ(rig.verifier.verify_current(hb, 5).verdict,
            Verdict::kNeverExistedVerified);
}

TEST(Channel, CertificatesRoundTrip) {
  ChannelRig rig;
  CertificateBundle b = rig.channel.get_certificates();
  EXPECT_EQ(crypto::RsaPublicKey::deserialize(b.meta_pub),
            rig.firmware.meta_public_key());
  EXPECT_EQ(crypto::RsaPublicKey::deserialize(b.deletion_pub),
            rig.firmware.deletion_public_key());
  ASSERT_FALSE(b.short_certs.empty());
  EXPECT_TRUE(rig.verifier.verify_short_cert(b.short_certs.front()));
}

TEST(Channel, StrengthenRoundTrip) {
  ChannelRig rig;
  Sn sn = rig.put("burst", Duration::days(1), WitnessMode::kDeferred);
  std::vector<Sn> pending = rig.channel.deferred_pending(10);
  ASSERT_EQ(pending, std::vector<Sn>{sn});

  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
  auto results = ScpuChannel::decode_strengthen_response(
      rig.sequenced(ScpuChannel::encode_strengthen({e->vrd}, {{}})));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].sn, sn);
  EXPECT_EQ(results[0].metasig.kind, SigKind::kStrong);
  EXPECT_TRUE(rig.channel.deferred_pending(10).empty());
}

TEST(Channel, LitHoldRoundTrip) {
  ChannelRig rig;
  Sn sn = rig.put("held via wire", Duration::days(1));
  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
  auto up = ScpuChannel::decode_lit_response(
      rig.sequenced(ScpuChannel::encode_lit_hold(
          e->vrd, rig.clock.now() + Duration::days(9), 7, rig.clock.now(),
          rig.lit_credential(sn, 7, true))));
  EXPECT_TRUE(up.attr.litigation_hold);
  Vrd held = e->vrd;
  held.attr = up.attr;
  held.metasig = up.metasig;
  auto rel = ScpuChannel::decode_lit_response(
      rig.sequenced(ScpuChannel::encode_lit_release(
          held, 7, rig.clock.now(), rig.lit_credential(sn, 7, false))));
  EXPECT_FALSE(rel.attr.litigation_hold);
}

TEST(Channel, MigrationSignatureRoundTrip) {
  ChannelRig rig;
  Bytes manifest = crypto::Sha256::hash_bytes(to_bytes("manifest"));
  MigrationAttestation a = rig.channel.sign_migration(manifest, 1, 2);
  EXPECT_EQ(a.manifest_hash, manifest);
  EXPECT_EQ(a.source_store_id, 1u);
  EXPECT_EQ(a.dest_store_id, 2u);
  EXPECT_FALSE(a.sig.empty());
}

TEST(Channel, VexpRebuildSequenceOverWire) {
  ChannelRig rig;
  Sn sn = rig.put("r", Duration::days(1));
  const std::optional<Vrdt::Entry> e = rig.store.vrdt().find(sn);
  rig.channel.vexp_rebuild_begin();
  rig.channel.vexp_rebuild_add(e->vrd);
  rig.channel.vexp_rebuild_end();
  rig.channel.process_idle();
  EXPECT_FALSE(rig.firmware.vexp_incomplete());
}

// ---------------------------------------------------------------------------
// Error paths: hostile input becomes error responses, never crashes
// ---------------------------------------------------------------------------

TEST(Channel, RejectedCommandReturnsErrorStatus) {
  ChannelRig rig;
  // advance_base without any proofs is a certified-logic rejection.
  EXPECT_THROW(
      (void)rig.sequenced(ScpuChannel::encode_advance_base(5, {}, {})),
      ChannelError);
}

TEST(Channel, EmptyRequestIsMalformed) {
  ChannelRig rig;
  Bytes resp = rig.channel.call(Bytes{});
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp[0], 1);  // error status
}

TEST(Channel, UnknownOpcodeIsMalformed) {
  ChannelRig rig;
  Bytes req = {0xEE};
  Bytes resp = rig.channel.call(req);
  EXPECT_EQ(resp[0], 1);
}

TEST(Channel, RetiredSingleWriteOpcodeIsRejected) {
  // Opcode 1 (the old single-record write) is gone: even a frame that is a
  // valid write batch in every other byte gets an error and issues no SN.
  ChannelRig rig;
  Bytes req = batch::encode_request(
      {batch::make_item(rig, "retired", Duration::days(1))});
  req[0] = 0x01;
  Bytes resp = rig.channel.call(req);
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp[0], 1);
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
}

TEST(Channel, TruncatedWriteIsMalformed) {
  // A write frame cut off after its opcode and two bytes is an error, both
  // for the kWriteBatch a lone write now sends and for the retired opcode 1.
  ChannelRig rig;
  for (std::uint8_t opcode :
       {static_cast<std::uint8_t>(OpCode::kWriteBatch), std::uint8_t{0x01}}) {
    Bytes req = {opcode, 0x01, 0x02};
    Bytes resp = rig.channel.call(req);
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp[0], 1) << "opcode " << int{opcode};
  }
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
}

TEST(Channel, TrailingGarbageIsMalformed) {
  ChannelRig rig;
  Bytes req = {static_cast<std::uint8_t>(OpCode::kHeartbeat), 0x00};
  Bytes resp = rig.channel.call(req);
  EXPECT_EQ(resp[0], 1);
}

TEST(Channel, FuzzedMutationsNeverCrashOrCorrupt) {
  ChannelRig rig;
  // Build the frame a lone write sends (a kWriteBatch of one, from the
  // store's own encoder), then hammer the device with mutations.
  common::ByteWriter w;
  ScpuChannel::encode_write_batch_into(
      w, {batch::make_item(rig, "seed", Duration::days(1))},
      WitnessMode::kStrong, HashMode::kScpuHash);
  Bytes valid = w.take();

  crypto::Drbg rng(0xf022);
  Sn sn_before = rig.firmware.sn_current();
  std::size_t errors = 0;
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = valid;
    std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(
          1 + rng.uniform(255));
    }
    if (rng.uniform(4) == 0) {
      mutated.resize(rng.uniform(mutated.size()) + 1);  // truncate too
    }
    Bytes resp = rig.channel.call(mutated);
    ASSERT_FALSE(resp.empty());
    if (resp[0] == 1) ++errors;
  }
  // Most mutations must be rejected; a few may decode as (valid but weird)
  // writes, which is fine — they were syntactically well-formed commands.
  EXPECT_GT(errors, 300u);
  // Device is alive and consistent afterwards.
  EXPECT_GE(rig.firmware.sn_current(), sn_before);
  Sn sn = rig.put("still works", Duration::days(1));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(Channel, TamperedDeviceAnswersWithErrors) {
  ChannelRig rig;
  rig.device.trigger_tamper_response();
  EXPECT_THROW(rig.channel.heartbeat(), ChannelError);
}

// ---------------------------------------------------------------------------
// kWriteBatch: round trip, atomicity, and hostile batch framing
// ---------------------------------------------------------------------------

TEST(Channel, WriteBatchRoundTrip) {
  ChannelRig rig;
  std::vector<Firmware::BatchItem> items = {
      batch::make_item(rig, "first", Duration::days(1)),
      batch::make_item(rig, "second", Duration::days(2)),
      batch::make_item(rig, "third", Duration::days(3)),
  };
  auto witnesses = batch::write(rig.channel, items).witnesses;
  ASSERT_EQ(witnesses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(witnesses[i].sn, i + 1);  // one contiguous SN range
    Vrd vrd;
    vrd.sn = witnesses[i].sn;
    vrd.attr = witnesses[i].attr;
    vrd.rdl = items[i].rdl;
    vrd.data_hash = witnesses[i].data_hash;
    vrd.metasig = witnesses[i].metasig;
    vrd.datasig = witnesses[i].datasig;
    EXPECT_EQ(rig.verifier.verify_vrd(vrd, items[i].payloads).verdict,
              Verdict::kAuthentic);
  }
}

TEST(Channel, BatchedWitnessesMatchSequentialOnes) {
  // The batch opcode only amortizes the crossing — the per-record witnesses
  // must be byte-identical to what sequential Firmware::write calls
  // produce. Zero-cost rigs pin simulated time so signatures (which embed
  // creation_time) can be compared byte for byte.
  Rig seq({}, {}, 32u << 20, scpu::CostModel::zero());
  Rig bat({}, {}, 32u << 20, scpu::CostModel::zero());
  ScpuChannel bat_ch(bat.firmware);

  std::vector<Firmware::BatchItem> items;
  std::vector<WriteWitness> sequential;
  for (int i = 0; i < 4; ++i) {
    Bytes payload = to_bytes("record " + std::to_string(i));
    Attr attr = seq.attr(Duration::days(1 + i));
    Firmware::BatchItem item;
    item.attr = attr;
    item.rdl = {bat.records.write(payload)};
    item.payloads = {payload};
    items.push_back(item);
    sequential.push_back(seq.firmware.write(attr, {seq.records.write(payload)},
                                            {payload}, {}, WitnessMode::kStrong,
                                            HashMode::kScpuHash));
  }
  auto batched = batch::write(bat_ch, items).witnesses;
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].sn, sequential[i].sn);
    EXPECT_EQ(batched[i].data_hash, sequential[i].data_hash);
    EXPECT_EQ(batched[i].metasig.value, sequential[i].metasig.value);
    EXPECT_EQ(batched[i].datasig.value, sequential[i].datasig.value);
  }
}

TEST(Channel, ZeroCountWriteBatchIsMalformed) {
  ChannelRig rig;
  Bytes req = batch::encode_request({});
  Bytes resp = rig.channel.call(req);
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp[0], 1);
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
}

TEST(Channel, OversizedWriteBatchCountIsMalformed) {
  ChannelRig rig;
  auto item = batch::make_item(rig, "bait", Duration::days(1));
  Bytes req = batch::encode_request({item});
  // Rewrite the count field (offset 3: opcode + mode + hash) to huge values.
  for (std::uint32_t claimed : {2000u, 0xFFFFFFFFu}) {
    Bytes forged = req;
    forged[3] = static_cast<std::uint8_t>(claimed >> 24);
    forged[4] = static_cast<std::uint8_t>(claimed >> 16);
    forged[5] = static_cast<std::uint8_t>(claimed >> 8);
    forged[6] = static_cast<std::uint8_t>(claimed);
    Bytes resp = rig.channel.call(forged);
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp[0], 1);
  }
  EXPECT_EQ(rig.firmware.sn_current(), 0u);
}

TEST(Channel, TruncatedWriteBatchIssuesNoSerials) {
  // Atomicity: if ANY prefix of a batch request fails to parse, no record in
  // the batch may have been admitted (a serial number issued for a write the
  // host never confirms would poison the contiguous-SN invariant).
  ChannelRig rig;
  std::vector<Firmware::BatchItem> items = {
      batch::make_item(rig, "one", Duration::days(1)),
      batch::make_item(rig, "two", Duration::days(1)),
  };
  Bytes req = batch::encode_request(items);
  for (std::size_t len = 1; len < req.size(); ++len) {
    Bytes truncated(req.begin(),
                    req.begin() + static_cast<std::ptrdiff_t>(len));
    Bytes resp = rig.channel.call(truncated);
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp[0], 1) << "prefix of " << len << " bytes was accepted";
    ASSERT_EQ(rig.firmware.sn_current(), 0u)
        << "truncated batch issued a serial number at prefix " << len;
  }
  // The intact request still works afterwards: no state was corrupted.
  Bytes resp = rig.channel.call(req);
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(resp[0], 0);
  EXPECT_EQ(rig.firmware.sn_current(), 2u);
}

TEST(Channel, FuzzedWriteBatchNeverCorruptsState) {
  ChannelRig rig;
  std::vector<Firmware::BatchItem> items = {
      batch::make_item(rig, "fuzz seed A", Duration::days(1)),
      batch::make_item(rig, "fuzz seed B", Duration::days(2)),
      batch::make_item(rig, "fuzz seed C", Duration::days(3)),
  };
  Bytes valid = batch::encode_request(items);
  crypto::Drbg rng(0xba7c4);
  Sn sn_before = rig.firmware.sn_current();
  std::size_t errors = 0;
  for (int i = 0; i < 500; ++i) {
    Bytes mutated = valid;
    std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    if (rng.uniform(4) == 0) {
      mutated.resize(rng.uniform(mutated.size()) + 1);
    }
    Bytes resp = rig.channel.call(mutated);
    ASSERT_FALSE(resp.empty());
    if (resp[0] == 1) ++errors;
  }
  // Most mutations must be rejected; a few may decode as (valid but weird)
  // writes, which is fine — they were syntactically well-formed commands.
  EXPECT_GT(errors, 300u);
  // Whatever got through was syntactically valid; the device still serves
  // honest traffic and its SN sequence is intact.
  EXPECT_GE(rig.firmware.sn_current(), sn_before);
  Sn sn = rig.put("still works after batch fuzzing", Duration::days(1));
  EXPECT_EQ(rig.verifier.verify_read(sn, rig.store.read(sn)).verdict,
            Verdict::kAuthentic);
}

TEST(Channel, StatusReportsSchedulingState) {
  ChannelRig rig;
  ScpuStatus s0 = rig.channel.status();
  EXPECT_EQ(s0.deferred_count, 0u);
  EXPECT_EQ(s0.earliest_deadline, common::SimTime::max());

  Sn sn = rig.put("deferred", Duration::days(1), WitnessMode::kDeferred);
  ScpuStatus s1 = rig.channel.status();
  EXPECT_EQ(s1.sn_current, sn);
  EXPECT_EQ(s1.deferred_count, 1u);
  EXPECT_LT(s1.earliest_deadline, common::SimTime::max());
}

TEST(Channel, EveryCrossingIsMeteredAndCharged) {
  ChannelRig rig;
  auto before = rig.channel.wire_stats();
  common::Duration busy0 = rig.device.busy_time();
  (void)rig.channel.heartbeat();  // the metering is the point
  Bytes resp = rig.channel.call(Bytes{0xEE});  // malformed: still a crossing
  EXPECT_EQ(resp[0], 1);
  auto after = rig.channel.wire_stats();
  EXPECT_EQ(after.commands, before.commands + 2);
  EXPECT_EQ(after.errors, before.errors + 1);
  EXPECT_GT(after.bytes_crossed, before.bytes_crossed);
  // Both crossings charged PCI-X transfer time on the device.
  EXPECT_GE((rig.device.busy_time() - busy0).ns,
            (rig.device.cost().command_cost() * 2).ns);
}

}  // namespace
}  // namespace worm::core
