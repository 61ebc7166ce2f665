// Wire-format tests for the protocol types and signed artifacts: exact
// round-trips, hostile-input rejection, and the envelope domain-separation
// property every anti-splicing argument rests on.
#include <gtest/gtest.h>

#include <set>

#include "crypto/drbg.hpp"
#include "worm/envelopes.hpp"
#include "worm/proofs.hpp"
#include "worm/types.hpp"
#include "worm/vrdt.hpp"

namespace worm::core {
namespace {

using common::ByteReader;
using common::Bytes;
using common::ByteWriter;
using common::Duration;
using common::SimTime;

Attr sample_attr() {
  Attr a;
  a.creation_time = SimTime{123456789};
  a.retention = Duration::years(7);
  a.regulation_policy = 17;
  a.shredding = storage::ShredPolicy::kNist3Pass;
  a.litigation_hold = true;
  a.lit_hold_expiry = SimTime{987654321};
  a.lit_credential = {1, 2, 3};
  a.f_flag = 0x5a;
  a.mac_label = 0x1234;
  a.dac_mode = 0644;
  return a;
}

Vrd sample_vrd() {
  Vrd v;
  v.sn = 77;
  v.attr = sample_attr();
  storage::RecordDescriptor rd;
  rd.record_id = 5;
  rd.size = 100;
  rd.blocks = {10, 11};
  v.rdl = {rd};
  v.data_hash = Bytes(32, 0xaa);
  v.metasig = {SigKind::kShortTerm, 3, Bytes(64, 0xbb)};
  v.datasig = {SigKind::kStrong, 0, Bytes(128, 0xcc)};
  return v;
}

TEST(Types, AttrRoundTrip) {
  Attr a = sample_attr();
  Bytes encoded = a.to_bytes();
  ByteReader r(encoded);
  EXPECT_EQ(Attr::deserialize(r), a);
  r.expect_end();
}

TEST(Types, AttrExpiryAndDeletability) {
  Attr a;
  a.creation_time = SimTime{0};
  a.retention = Duration::days(10);
  EXPECT_EQ(a.expiry(), SimTime{} + Duration::days(10));
  EXPECT_FALSE(a.deletable_at(SimTime{} + Duration::days(9)));
  EXPECT_TRUE(a.deletable_at(SimTime{} + Duration::days(10)));
  a.litigation_hold = true;
  a.lit_hold_expiry = SimTime{} + Duration::days(30);
  EXPECT_FALSE(a.deletable_at(SimTime{} + Duration::days(20)));
  EXPECT_TRUE(a.deletable_at(SimTime{} + Duration::days(30)));
}

TEST(Types, SigBoxRoundTripAndValidation) {
  SigBox s{SigKind::kHmac, 9, Bytes{1, 2, 3}};
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(SigBox::deserialize(r), s);

  Bytes bad = w.bytes();
  bad[0] = 7;  // invalid kind tag
  ByteReader rb(bad);
  EXPECT_THROW(SigBox::deserialize(rb), common::ParseError);
}

TEST(Types, VrdRoundTrip) {
  Vrd v = sample_vrd();
  Bytes encoded = v.to_bytes();
  ByteReader r(encoded);
  EXPECT_EQ(Vrd::deserialize(r), v);
  r.expect_end();
}

TEST(Types, VrdRejectsTruncation) {
  Bytes data = sample_vrd().to_bytes();
  for (std::size_t cut : {std::size_t{1}, data.size() / 2, data.size() - 1}) {
    Bytes trunc(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
    ByteReader r(trunc);
    EXPECT_THROW(Vrd::deserialize(r), common::ParseError) << cut;
  }
}

TEST(Types, VrdRejectsForgedRdlCount) {
  Bytes data = sample_vrd().to_bytes();
  // The RDL count lives right after sn + attr; find it by re-encoding the
  // prefix and poke a huge count in.
  ByteWriter prefix;
  prefix.u64(77);
  sample_attr().serialize(prefix);
  std::size_t off = prefix.size();
  data[off] = 0xff;
  data[off + 1] = 0xff;
  data[off + 2] = 0xff;
  data[off + 3] = 0xff;
  ByteReader r(data);
  EXPECT_THROW(Vrd::deserialize(r), common::ParseError);
}

template <typename T>
void round_trip(const T& value) {
  ByteWriter w;
  value.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(T::deserialize(r), value);
  r.expect_end();
}

TEST(Proofs, AllArtifactsRoundTrip) {
  round_trip(SignedSnCurrent{42, SimTime{100}, Bytes{9, 9}});
  round_trip(SignedSnBase{7, SimTime{100}, SimTime{200}, Bytes{8}});
  round_trip(DeletionProof{13, SimTime{300}, Bytes{1, 2}});
  round_trip(DeletedWindow{0xdeadbeef, 5, 9, SimTime{400}, Bytes{3}, Bytes{4}});
  round_trip(ShortKeyCert{2, 512, Bytes{5, 6}, SimTime{1}, SimTime{2}, Bytes{7}});
  round_trip(MigrationAttestation{Bytes{1}, 10, 20, SimTime{5}, Bytes{2}});
}

TEST(Proofs, DeletedWindowContains) {
  DeletedWindow w{1, 5, 9, SimTime{}, {}, {}};
  EXPECT_FALSE(w.contains(4));
  EXPECT_TRUE(w.contains(5));
  EXPECT_TRUE(w.contains(7));
  EXPECT_TRUE(w.contains(9));
  EXPECT_FALSE(w.contains(10));
}

TEST(Envelopes, AllTagsDomainSeparated) {
  // No two envelope payloads over "the same-looking" fields may collide —
  // this is what prevents cross-purpose signature replay. Build one payload
  // of each kind with maximally-overlapping field values and require all
  // pairwise distinct.
  Attr a = sample_attr();
  SimTime t{1000};
  Bytes h(32, 0x11);
  std::vector<Bytes> payloads = {
      metasig_payload(5, a),
      datasig_payload(5, h),
      deletion_proof_payload(5, t),
      sn_current_payload(5, t),
      sn_base_payload(5, t, t),
      window_bound_payload(false, 5, 5, t),
      window_bound_payload(true, 5, 5, t),
      short_key_cert_payload(5, 5, h, t, t),
      lit_credential_payload(5, t, 5, true),
      lit_credential_payload(5, t, 5, false),
      migration_payload(h, 5, 5, t),
  };
  std::set<Bytes> unique(payloads.begin(), payloads.end());
  EXPECT_EQ(unique.size(), payloads.size());
}

TEST(Envelopes, LowerAndUpperBoundsNeverInterchange) {
  // The exact §4.2.1 splicing defense: lo-bound and hi-bound envelopes over
  // identical (window_id, sn, time) must differ.
  SimTime t{77};
  EXPECT_NE(window_bound_payload(false, 9, 100, t),
            window_bound_payload(true, 9, 100, t));
}

TEST(Envelopes, FieldChangesChangePayload) {
  Attr a = sample_attr();
  EXPECT_NE(metasig_payload(5, a), metasig_payload(6, a));
  Attr b = a;
  b.retention = Duration::days(1);
  EXPECT_NE(metasig_payload(5, a), metasig_payload(5, b));
  EXPECT_NE(sn_current_payload(5, SimTime{1}), sn_current_payload(5, SimTime{2}));
}

TEST(Vrdt, FindDeadSpanMergesProofsAndWindows) {
  Vrdt t;
  auto proof_entry = [](Sn sn) {
    Vrdt::Entry e;
    e.kind = Vrdt::Entry::Kind::kDeleted;
    e.proof = DeletionProof{sn, SimTime{}, Bytes{1}};
    return e;
  };
  // window [2..4], proofs at 5,6, active at 7, proof at 9.
  t.force_add_window(DeletedWindow{1, 2, 4, SimTime{}, Bytes{1}, Bytes{2}});
  t.force_put(5, proof_entry(5));
  t.force_put(6, proof_entry(6));
  Vrdt::Entry active;
  active.kind = Vrdt::Entry::Kind::kActive;
  active.vrd = sample_vrd();
  active.vrd.sn = 7;
  t.force_put(7, active);
  t.force_put(9, proof_entry(9));

  auto span = t.find_dead_span(3);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->lo, 2u);
  EXPECT_EQ(span->hi, 6u);
  EXPECT_EQ(span->proof_entries, 2u);
  EXPECT_EQ(span->windows, 1u);
}

TEST(Vrdt, FindDeadSpanIgnoresIrreducible) {
  Vrdt t;
  // A lone window with no adjacent evidence is already optimal.
  t.force_add_window(DeletedWindow{1, 2, 10, SimTime{}, Bytes{1}, Bytes{2}});
  EXPECT_FALSE(t.find_dead_span(3).has_value());
}

TEST(Vrdt, SerializeToStreamsBoundedPiecesThatRoundTrip) {
  // The journal's checkpoint streams the table: no piece may grow with the
  // table, and the pieces in order are the one encoding replay reads.
  Vrdt t;
  for (Sn sn = 1; sn <= 2000; ++sn) {
    Vrdt::Entry active;
    active.kind = Vrdt::Entry::Kind::kActive;
    active.vrd = sample_vrd();
    active.vrd.sn = sn;
    t.force_put(sn, active);
  }
  t.force_add_window(DeletedWindow{1, 3000, 3010, SimTime{}, Bytes{1}, Bytes{2}});
  std::vector<std::size_t> sizes;
  Bytes joined;
  t.serialize_to([&](common::ByteView piece) {
    sizes.push_back(piece.size());
    common::append(joined, piece);
  });
  ASSERT_GT(sizes.size(), 1u) << "a table this size comes in several pieces";
  for (std::size_t size : sizes) {
    EXPECT_LT(size, Vrdt::kSerializePiece + 4096);
  }
  EXPECT_EQ(joined, t.serialize());
  EXPECT_EQ(joined.size(), t.storage_bytes());
  Vrdt back = Vrdt::deserialize(joined);
  EXPECT_EQ(back.entry_count(), 2000u);
  EXPECT_EQ(back.window_count(), 1u);
}

TEST(Vrdt, ApplyWindowRejectsActiveCoverage) {
  Vrdt t;
  Vrdt::Entry active;
  active.kind = Vrdt::Entry::Kind::kActive;
  active.vrd = sample_vrd();
  active.vrd.sn = 3;
  t.force_put(3, active);
  DeletedWindow w{1, 2, 4, SimTime{}, Bytes{1}, Bytes{2}};
  EXPECT_THROW(t.apply_window(w), common::PreconditionError);
}

}  // namespace
}  // namespace worm::core
