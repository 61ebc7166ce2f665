// The VRDT keeps each entry as its own encoding in pages keyed by SN. These
// tests hold that table to what it replaced: a differential run against a
// std::map<Sn, Entry> reference model over random edits (SNs far above the
// live range included), and a golden encoding of a scripted table, so
// journals and vrdt.bin files written before the change still load.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "common/serial.hpp"
#include "worm/vrdt.hpp"

namespace worm::core {
namespace {

using common::Bytes;
using common::ByteWriter;
using common::Duration;
using common::SimTime;

Vrd scripted_vrd(Sn sn, SigKind kind, std::uint32_t key_id) {
  Vrd v;
  v.sn = sn;
  v.attr.creation_time =
      SimTime{1'000'000'000LL * static_cast<std::int64_t>(sn % 1'000'000)};
  v.attr.retention = Duration::days(30);
  v.attr.regulation_policy = 4;
  v.attr.shredding = storage::ShredPolicy::kNist3Pass;
  v.attr.f_flag = static_cast<std::uint8_t>(sn);
  v.attr.mac_label = 0x0102;
  v.attr.dac_mode = 0640;
  storage::RecordDescriptor rd;
  rd.record_id = 100 + sn;
  rd.size = 4096;
  rd.blocks = {2 * sn, 2 * sn + 1};
  rd.checksum = 0xC0FFEE00u + static_cast<std::uint32_t>(sn);
  v.rdl = {rd};
  v.data_hash = Bytes(32, static_cast<std::uint8_t>(0xA0 + sn));
  v.metasig = SigBox{kind, key_id, Bytes(16, static_cast<std::uint8_t>(sn))};
  v.datasig =
      SigBox{kind, key_id, Bytes(16, static_cast<std::uint8_t>(0x80 + sn))};
  return v;
}

DeletionProof scripted_proof(Sn sn) {
  return DeletionProof{sn, SimTime{5'000 + static_cast<std::int64_t>(sn)},
                       Bytes(8, static_cast<std::uint8_t>(0x40 + sn))};
}

Bytes encoding(const Vrdt::Entry& e) {
  ByteWriter w;
  e.serialize(w);
  return w.take();
}

// ---------------------------------------------------------------------------
// Format
// ---------------------------------------------------------------------------

/// Deferred (HMAC and short-term) and strong active entries, a lit-held
/// attr, deletion proofs, and two windows.
Vrdt scripted_table() {
  Vrdt t;
  t.put_active(scripted_vrd(1, SigKind::kHmac, 0));
  t.put_active(scripted_vrd(2, SigKind::kShortTerm, 3));
  t.put_active(scripted_vrd(3, SigKind::kStrong, 0));
  Vrd held = scripted_vrd(4, SigKind::kStrong, 0);
  held.attr.litigation_hold = true;
  held.attr.lit_hold_expiry = SimTime{9'999'999};
  held.attr.lit_credential = {0xC1, 0xC2, 0xC3};
  t.put_active(held);
  for (Sn sn : {5u, 6u, 7u, 9u, 10u, 11u, 12u, 20u}) {
    t.put_deleted(scripted_proof(sn));
  }
  t.apply_window(
      DeletedWindow{1, 5, 7, SimTime{77}, Bytes{0x11, 0x12}, Bytes{0x13}});
  t.apply_window(
      DeletedWindow{2, 9, 11, SimTime{78}, Bytes{0x21}, Bytes{0x22, 0x23}});
  t.put_active(scripted_vrd(21, SigKind::kShortTerm, 4));
  return t;
}

// Vrdt::serialize() of scripted_table(), captured from the std::map table
// this encoding replaced.
constexpr const char* kScriptedTableHex =
      "07000000010000000000000000010000000000000000ca9a3b0000000000004207693509"
      "00040000000200000000000000000000000000010201a001010000006500000000000000"
      "001000000000000001eeffc0020000000200000000000000030000000000000020000000"
      "a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a102000000"
      "001000000001010101010101010101010101010101020000000010000000818181818181"
      "818181818181818181810200000000000000000200000000000000009435770000000000"
      "00420769350900040000000200000000000000000000000000020201a001010000006600"
      "000000000000001000000000000002eeffc0020000000400000000000000050000000000"
      "000020000000a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2a2"
      "a2a201030000001000000002020202020202020202020202020202010300000010000000"
      "828282828282828282828282828282820300000000000000000300000000000000005ed0"
      "b2000000000000420769350900040000000200000000000000000000000000030201a001"
      "010000006700000000000000001000000000000003eeffc0020000000600000000000000"
      "070000000000000020000000a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3a3"
      "a3a3a3a3a3a3a3a300000000001000000003030303030303030303030303030303000000"
      "000010000000838383838383838383838383838383830400000000000000000400000000"
      "00000000286bee0000000000004207693509000400000002017f96980000000000030000"
      "00c1c2c3040201a001010000006800000000000000001000000000000004eeffc0020000"
      "000800000000000000090000000000000020000000a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4"
      "a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a400000000001000000004040404040404040404"
      "040404040404000000000010000000848484848484848484848484848484840c00000000"
      "000000010c000000000000009413000000000000080000004c4c4c4c4c4c4c4c14000000"
      "000000000114000000000000009c13000000000000080000005454545454545454150000"
      "00000000000015000000000000000092b2e3040000000000420769350900040000000200"
      "000000000000000000000000150201a00101000000790000000000000000100000000000"
      "0015eeffc0020000002a000000000000002b0000000000000020000000b5b5b5b5b5b5b5"
      "b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b50104000000100000001515"
      "151515151515151515151515151501040000001000000095959595959595959595959595"
      "959595020000000100000000000000050000000000000007000000000000004d00000000"
      "0000000200000011120100000013020000000000000009000000000000000b0000000000"
      "00004e000000000000000100000021020000002223";

TEST(Vrdt, SerializeMatchesTheGoldenEncoding) {
  const Bytes golden = common::hex_decode(kScriptedTableHex);
  const Vrdt t = scripted_table();
  EXPECT_EQ(common::hex_encode(t.serialize()), kScriptedTableHex);
  EXPECT_EQ(t.storage_bytes(), golden.size());

  // A table loaded from those bytes answers as the scripted one does and
  // writes them back unchanged.
  const Vrdt back = Vrdt::deserialize(golden);
  EXPECT_EQ(back.serialize(), golden);
  EXPECT_EQ(back.entry_count(), 7u);
  EXPECT_EQ(back.window_count(), 2u);
  EXPECT_EQ(back.active_sns(), (std::vector<Sn>{1, 2, 3, 4, 21}));
  EXPECT_EQ(back.encoded_bytes(), t.encoded_bytes());
  std::optional<Vrdt::Entry> held = back.find(4);
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->kind, Vrdt::Entry::Kind::kActive);
  EXPECT_TRUE(held->vrd.attr.litigation_hold);
  EXPECT_EQ(held->vrd.attr.lit_credential, (Bytes{0xC1, 0xC2, 0xC3}));
  std::optional<Vrdt::Entry> proof = back.find(12);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->kind, Vrdt::Entry::Kind::kDeleted);
  EXPECT_EQ(proof->proof, scripted_proof(12));
  EXPECT_FALSE(back.find(6).has_value()) << "a window expelled SN 6";
  ASSERT_NE(back.find_window(10), nullptr);
  EXPECT_EQ(back.find_window(10)->window_id, 2u);
}

TEST(Vrdt, DeserializeRejectsADamagedEntry) {
  Bytes bytes = common::hex_decode(kScriptedTableHex);
  bytes[4 + 8] = 7;  // the first entry's kind byte
  EXPECT_THROW((void)Vrdt::deserialize(bytes), common::ParseError);
}

// ---------------------------------------------------------------------------
// Differential: the paged table against a std::map<Sn, Entry> model
// ---------------------------------------------------------------------------

/// The table this one replaced, written out: a map of decoded entries and
/// a sorted vector of windows.
struct ModelVrdt {
  std::map<Sn, Vrdt::Entry> entries;
  std::vector<DeletedWindow> windows;

  const DeletedWindow* find_window(Sn sn) const {
    for (const auto& w : windows) {
      if (w.contains(sn)) return &w;
      if (w.lo > sn) break;
    }
    return nullptr;
  }

  /// False (and unchanged) where the table must refuse the window.
  bool apply_window(const DeletedWindow& window) {
    for (Sn sn = window.lo; sn <= window.hi; ++sn) {
      auto it = entries.find(sn);
      const bool proven = it != entries.end() &&
                          it->second.kind == Vrdt::Entry::Kind::kDeleted;
      if (!proven && find_window(sn) == nullptr) return false;
      if (it != entries.end() && !proven) return false;
    }
    for (const auto& w : windows) {
      const bool inside = w.lo >= window.lo && w.hi <= window.hi;
      const bool outside = w.hi < window.lo || w.lo > window.hi;
      if (!inside && !outside) return false;
    }
    std::erase_if(windows, [&](const DeletedWindow& w) {
      return w.lo >= window.lo && w.hi <= window.hi;
    });
    entries.erase(entries.lower_bound(window.lo),
                  entries.upper_bound(window.hi));
    windows.insert(std::lower_bound(windows.begin(), windows.end(), window,
                                    [](const DeletedWindow& a,
                                       const DeletedWindow& b) {
                                      return a.lo < b.lo;
                                    }),
                   window);
    return true;
  }

  void trim_below(Sn base) {
    entries.erase(entries.begin(), entries.lower_bound(base));
    std::erase_if(windows,
                  [base](const DeletedWindow& w) { return w.hi < base; });
  }

  bool holds_below(Sn base) const {
    return (!entries.empty() && entries.begin()->first < base) ||
           std::any_of(windows.begin(), windows.end(),
                       [base](const DeletedWindow& w) { return w.hi < base; });
  }

  std::vector<Sn> active_sns() const {
    std::vector<Sn> out;
    for (const auto& [sn, e] : entries) {
      if (e.kind == Vrdt::Entry::Kind::kActive) out.push_back(sn);
    }
    return out;
  }

  std::optional<Vrdt::DeadSpan> find_dead_span(std::size_t min_len) const {
    // Proofs ascending, then windows, then one std::sort by lo: where an
    // insider left a proof inside a window, equal bounds keep that order.
    struct Interval {
      Sn lo, hi;
      bool is_window;
    };
    std::vector<Interval> ivs;
    for (const auto& [sn, e] : entries) {
      if (e.kind == Vrdt::Entry::Kind::kDeleted) ivs.push_back({sn, sn, false});
    }
    for (const auto& w : windows) ivs.push_back({w.lo, w.hi, true});
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    std::optional<Vrdt::DeadSpan> best;
    Vrdt::DeadSpan cur;
    auto consider = [&] {
      if (cur.lo == kInvalidSn || !cur.reducible(min_len)) return;
      if (!best.has_value() || cur.length() > best->length()) best = cur;
    };
    for (const Interval& iv : ivs) {
      if (cur.lo != kInvalidSn && iv.lo == cur.hi + 1) {
        cur.hi = iv.hi;
      } else {
        consider();
        cur = Vrdt::DeadSpan{iv.lo, iv.hi, 0, 0};
      }
      ++(iv.is_window ? cur.windows : cur.proof_entries);
    }
    consider();
    return best;
  }

  Bytes serialize() const {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [sn, e] : entries) {
      w.u64(sn);
      e.serialize(w);
    }
    w.u32(static_cast<std::uint32_t>(windows.size()));
    for (const auto& win : windows) win.serialize(w);
    return w.take();
  }
};

TEST(Vrdt, PagedTableMatchesAMapModelThroughRandomEdits) {
  // Most SNs fall in a live range spanning a few pages; the rest lie far
  // above it, up to 2^62, where a table spanning the gap would exhaust
  // memory.
  const std::vector<Sn> far = {1'000'003,           (Sn{1} << 40) + 3,
                               (Sn{1} << 62) - 1,   Sn{1} << 62,
                               (Sn{1} << 62) + 255, (Sn{1} << 62) + 256};
  std::mt19937_64 rng(0x7d47);
  auto pick_sn = [&]() -> Sn {
    if (rng() % 10 == 0) return far[rng() % far.size()];
    return 1 + rng() % 700;
  };
  auto random_entry = [&](Sn sn) {
    Vrdt::Entry e;
    if (rng() % 2 == 0) {
      e.kind = Vrdt::Entry::Kind::kActive;
      e.vrd = scripted_vrd(sn, static_cast<SigKind>(rng() % 3),
                           static_cast<std::uint32_t>(rng() % 4));
      e.vrd.sn = rng() % 8 == 0 ? sn + 1 : sn;  // sometimes forged
    } else {
      e.kind = Vrdt::Entry::Kind::kDeleted;
      e.proof = scripted_proof(sn);
    }
    return e;
  };

  Vrdt table;
  ModelVrdt model;
  std::set<Sn> touched;
  std::uint64_t window_id = 0;
  std::size_t windows_applied = 0;
  for (int step = 0; step < 3000; ++step) {
    const Sn sn = pick_sn();
    touched.insert(sn);
    switch (rng() % 8) {
      case 0:
      case 1: {
        Vrd vrd = scripted_vrd(sn, static_cast<SigKind>(rng() % 3), 0);
        table.put_active(vrd);
        model.entries[sn] = Vrdt::Entry{Vrdt::Entry::Kind::kActive, vrd, {}};
        break;
      }
      case 2:
      case 3: {
        // Runs of deletion proofs, so windows find evidence to cover.
        const Sn len = 1 + rng() % 6;
        for (Sn k = sn; k < sn + len; ++k) {
          touched.insert(k);
          table.put_deleted(scripted_proof(k));
          model.entries[k] =
              Vrdt::Entry{Vrdt::Entry::Kind::kDeleted, {}, scripted_proof(k)};
        }
        break;
      }
      case 4: {
        const Sn hi = sn + rng() % 8;
        touched.insert(hi);
        const DeletedWindow w{++window_id, sn, hi, SimTime{1}, Bytes{1},
                              Bytes{2}};
        const bool accepted = model.apply_window(w);
        if (accepted) {
          EXPECT_NO_THROW(table.apply_window(w)) << "step " << step;
          ++windows_applied;
        } else {
          EXPECT_THROW(table.apply_window(w), common::PreconditionError)
              << "step " << step;
        }
        break;
      }
      case 5: {
        // Rare and mostly low, so the live range keeps most of its pages.
        if (rng() % 8 != 0) break;
        const Sn base = rng() % 16 == 0 ? pick_sn() : rng() % 300;
        table.trim_below(base);
        model.trim_below(base);
        break;
      }
      case 6: {
        const Vrdt::Entry e = random_entry(sn);
        table.force_put(sn, e);
        model.entries[sn] = e;
        break;
      }
      case 7:
        EXPECT_EQ(table.force_erase(sn), model.entries.erase(sn) > 0);
        break;
    }

    for (Sn t : touched) {
      const std::optional<Vrdt::Entry> got = table.find(t);
      auto want = model.entries.find(t);
      ASSERT_EQ(got.has_value(), want != model.entries.end())
          << "step " << step << " sn " << t;
      if (got.has_value()) {
        ASSERT_EQ(encoding(*got), encoding(want->second))
            << "step " << step << " sn " << t;
      }
    }
    ASSERT_EQ(table.active_sns(), model.active_sns()) << "step " << step;
    ASSERT_EQ(table.entry_count(), model.entries.size());
    ASSERT_EQ(table.active_count(), model.active_sns().size());
    const auto span = table.find_dead_span(3);
    const auto want_span = model.find_dead_span(3);
    ASSERT_EQ(span.has_value(), want_span.has_value()) << "step " << step;
    if (span.has_value()) {
      EXPECT_EQ(span->lo, want_span->lo);
      EXPECT_EQ(span->hi, want_span->hi);
      EXPECT_EQ(span->proof_entries, want_span->proof_entries);
      EXPECT_EQ(span->windows, want_span->windows);
    }
    const Sn base = pick_sn();
    ASSERT_EQ(table.holds_below(base), model.holds_below(base))
        << "step " << step << " base " << base;
    const Bytes bytes = table.serialize();
    ASSERT_EQ(bytes, model.serialize()) << "step " << step;
    std::size_t encoded = 0;
    for (const auto& [s, e] : model.entries) encoded += encoding(e).size();
    ASSERT_EQ(table.encoded_bytes(), encoded) << "step " << step;
  }
  EXPECT_GT(windows_applied, 10u) << "the walk should compact some spans";
  EXPECT_GT(table.entry_count(), 50u);
}

}  // namespace
}  // namespace worm::core
