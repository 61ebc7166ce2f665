#include "worm/vrdt.hpp"

#include <algorithm>
#include <fstream>

#include "common/error.hpp"

namespace worm::core {

using common::ByteReader;
using common::Bytes;
using common::ByteWriter;

void Vrdt::Entry::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  if (kind == Kind::kActive) {
    vrd.serialize(w);
  } else {
    proof.serialize(w);
  }
}

Vrdt::Entry Vrdt::Entry::deserialize(ByteReader& r) {
  Entry e;
  std::uint8_t k = r.u8();
  if (k > 1) throw common::ParseError("Vrdt::Entry: bad kind");
  e.kind = static_cast<Kind>(k);
  if (e.kind == Kind::kActive) {
    e.vrd = Vrd::deserialize(r);
  } else {
    e.proof = DeletionProof::deserialize(r);
  }
  return e;
}

void Vrdt::put_active(Vrd vrd) {
  WORM_REQUIRE(vrd.sn != kInvalidSn, "Vrdt: invalid SN");
  Entry e;
  e.kind = Entry::Kind::kActive;
  e.vrd = std::move(vrd);
  entries_[e.vrd.sn] = std::move(e);
}

void Vrdt::put_deleted(DeletionProof proof) {
  WORM_REQUIRE(proof.sn != kInvalidSn, "Vrdt: invalid SN");
  Entry e;
  e.kind = Entry::Kind::kDeleted;
  e.proof = std::move(proof);
  entries_[e.proof.sn] = std::move(e);
}

const Vrdt::Entry* Vrdt::find(Sn sn) const {
  auto it = entries_.find(sn);
  return it == entries_.end() ? nullptr : &it->second;
}

void Vrdt::apply_window(const DeletedWindow& window) {
  WORM_REQUIRE(window.lo <= window.hi, "Vrdt: inverted window");
  for (Sn sn = window.lo; sn <= window.hi; ++sn) {
    auto it = entries_.find(sn);
    bool proven_here = it != entries_.end() &&
                       it->second.kind == Entry::Kind::kDeleted;
    WORM_REQUIRE(proven_here || find_window(sn) != nullptr,
                 "Vrdt: window covers an SN with no deletion evidence");
    WORM_REQUIRE(it == entries_.end() ||
                     it->second.kind == Entry::Kind::kDeleted,
                 "Vrdt: window covers an active entry");
  }
  // Windows subsumed by the new one are superseded; partial overlap is a
  // protocol error (the SCPU only certifies spans it fully verified).
  for (const auto& w : windows_) {
    bool inside = w.lo >= window.lo && w.hi <= window.hi;
    bool outside = w.hi < window.lo || w.lo > window.hi;
    WORM_REQUIRE(inside || outside, "Vrdt: partially overlapping window");
  }
  std::erase_if(windows_, [&](const DeletedWindow& w) {
    return w.lo >= window.lo && w.hi <= window.hi;
  });
  entries_.erase(entries_.lower_bound(window.lo),
                 entries_.upper_bound(window.hi));
  auto pos = std::lower_bound(
      windows_.begin(), windows_.end(), window,
      [](const DeletedWindow& a, const DeletedWindow& b) { return a.lo < b.lo; });
  windows_.insert(pos, window);
}

const DeletedWindow* Vrdt::find_window(Sn sn) const {
  for (const auto& w : windows_) {
    if (w.contains(sn)) return &w;
    if (w.lo > sn) break;  // sorted by lo
  }
  return nullptr;
}

void Vrdt::trim_below(Sn sn_base) {
  entries_.erase(entries_.begin(), entries_.lower_bound(sn_base));
  std::erase_if(windows_,
                [sn_base](const DeletedWindow& w) { return w.hi < sn_base; });
}

bool Vrdt::holds_below(Sn sn_base) const {
  return (!entries_.empty() && entries_.begin()->first < sn_base) ||
         std::any_of(windows_.begin(), windows_.end(),
                     [sn_base](const DeletedWindow& w) {
                       return w.hi < sn_base;
                     });
}

std::size_t Vrdt::active_count() const {
  std::size_t n = 0;
  for (const auto& [sn, e] : entries_) {
    if (e.kind == Entry::Kind::kActive) ++n;
  }
  return n;
}

std::vector<Sn> Vrdt::active_sns() const {
  std::vector<Sn> out;
  for (const auto& [sn, e] : entries_) {
    if (e.kind == Entry::Kind::kActive) out.push_back(sn);
  }
  return out;
}

std::optional<Vrdt::DeadSpan> Vrdt::find_dead_span(std::size_t min_len) const {
  // Collect dead intervals (deletion-proof entries and certified windows),
  // merge contiguous ones, and return the longest reducible span.
  struct Interval {
    Sn lo, hi;
    bool is_window;
  };
  std::vector<Interval> ivs;
  for (const auto& [sn, e] : entries_) {
    if (e.kind == Entry::Kind::kDeleted) ivs.push_back({sn, sn, false});
  }
  for (const auto& w : windows_) ivs.push_back({w.lo, w.hi, true});
  std::sort(ivs.begin(), ivs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });

  std::optional<DeadSpan> best;
  DeadSpan cur;
  auto consider = [&] {
    if (cur.lo == kInvalidSn || !cur.reducible(min_len)) return;
    if (!best.has_value() || cur.length() > best->length()) best = cur;
  };
  for (const auto& iv : ivs) {
    if (cur.lo != kInvalidSn && iv.lo == cur.hi + 1) {
      cur.hi = iv.hi;
    } else {
      consider();
      cur = DeadSpan{iv.lo, iv.hi, 0, 0};
    }
    if (iv.is_window) {
      ++cur.windows;
    } else {
      ++cur.proof_entries;
    }
  }
  consider();
  return best;
}

std::size_t Vrdt::storage_bytes() const {
  std::size_t n = 0;
  serialize_to([&n](common::ByteView piece) { n += piece.size(); });
  return n;
}

void Vrdt::serialize_to(
    const std::function<void(common::ByteView)>& sink) const {
  Bytes piece;
  piece.reserve(kSerializePiece + 1024);
  ByteWriter w(piece);
  auto hand_over = [&](bool last) {
    if (piece.size() < kSerializePiece && !last) return;
    sink(piece);
    piece.clear();
  };
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [sn, e] : entries_) {
    w.u64(sn);
    e.serialize(w);
    hand_over(false);
  }
  w.u32(static_cast<std::uint32_t>(windows_.size()));
  for (const auto& win : windows_) {
    win.serialize(w);
    hand_over(false);
  }
  hand_over(true);
}

Bytes Vrdt::serialize() const {
  Bytes out;
  serialize_to([&out](common::ByteView piece) { common::append(out, piece); });
  return out;
}

Vrdt Vrdt::deserialize(common::ByteView data) {
  ByteReader r(data);
  Vrdt t;
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Sn sn = r.u64();
    t.entries_.emplace(sn, Entry::deserialize(r));
  }
  std::uint32_t m = r.u32();
  for (std::uint32_t i = 0; i < m; ++i) {
    t.windows_.push_back(DeletedWindow::deserialize(r));
  }
  r.expect_end();
  return t;
}

void Vrdt::save(const std::string& path) const {
  Bytes data = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw common::StorageError("Vrdt::save: cannot open " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw common::StorageError("Vrdt::save: write failed");
}

Vrdt Vrdt::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw common::StorageError("Vrdt::load: cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return deserialize(data);
}

Vrdt::Entry* Vrdt::mutable_entry(Sn sn) {
  auto it = entries_.find(sn);
  return it == entries_.end() ? nullptr : &it->second;
}

bool Vrdt::force_erase(Sn sn) { return entries_.erase(sn) > 0; }

void Vrdt::force_put(Sn sn, Entry entry) { entries_[sn] = std::move(entry); }

void Vrdt::force_add_window(DeletedWindow window) {
  auto pos = std::lower_bound(
      windows_.begin(), windows_.end(), window,
      [](const DeletedWindow& a, const DeletedWindow& b) { return a.lo < b.lo; });
  windows_.insert(pos, std::move(window));
}

}  // namespace worm::core
