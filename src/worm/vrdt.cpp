#include "worm/vrdt.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/file.hpp"

namespace worm::core {

using common::ByteReader;
using common::ByteView;
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

namespace {

/// One entry's encoding, allocated to its exact size: the table keeps it as
/// is for the entry's lifetime.
template <typename Body>
Bytes encode_entry(Vrdt::Entry::Kind kind, const Body& body) {
  thread_local Bytes scratch;
  scratch.clear();
  ByteWriter w(scratch);
  w.u8(static_cast<std::uint8_t>(kind));
  body.serialize(w);
  return Bytes(scratch.begin(), scratch.end());
}

}  // namespace

void Vrdt::put_active(const Vrd& vrd) {
  WORM_REQUIRE(vrd.sn != kInvalidSn, "Vrdt: invalid SN");
  store(vrd.sn, encode_entry(Entry::Kind::kActive, vrd));
}

void Vrdt::put_deleted(const DeletionProof& proof) {
  WORM_REQUIRE(proof.sn != kInvalidSn, "Vrdt: invalid SN");
  store(proof.sn, encode_entry(Entry::Kind::kDeleted, proof));
}

std::size_t Vrdt::page_pos(Sn first) const {
  // A live table's pages are mostly consecutive: try the position that
  // assumes so before searching.
  if (!pages_.empty() && first >= pages_.front().first) {
    const Sn guess = (first - pages_.front().first) / kPageSlots;
    if (guess < pages_.size() && pages_[guess].first == first) {
      return static_cast<std::size_t>(guess);
    }
  }
  auto it = std::lower_bound(
      pages_.begin(), pages_.end(), first,
      [](const Page& p, Sn f) { return p.first < f; });
  return static_cast<std::size_t>(it - pages_.begin());
}

const Bytes* Vrdt::slot(Sn sn) const {
  const Sn first = sn - sn % kPageSlots;
  const std::size_t pos = page_pos(first);
  if (pos == pages_.size() || pages_[pos].first != first) return nullptr;
  const Bytes& encoding = pages_[pos].slots[sn - first];
  return encoding.empty() ? nullptr : &encoding;
}

std::optional<Vrdt::Entry::Kind> Vrdt::kind_at(Sn sn) const {
  const Bytes* encoding = slot(sn);
  if (encoding == nullptr) return std::nullopt;
  return static_cast<Entry::Kind>(encoding->front());
}

void Vrdt::store(Sn sn, Bytes encoding) {
  const Sn first = sn - sn % kPageSlots;
  const std::size_t pos = page_pos(first);
  if (pos == pages_.size() || pages_[pos].first != first) {
    Page page;
    page.first = first;
    page.slots.resize(kPageSlots);
    pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(page));
  }
  Page& page = pages_[pos];
  Bytes& held = page.slots[sn - first];
  if (held.empty()) {
    ++page.used;
    ++entries_;
  }
  encoded_bytes_ = encoded_bytes_ - held.size() + encoding.size();
  held = std::move(encoding);
}

void Vrdt::erase_range(Sn lo, Sn hi) {
  std::size_t pos = page_pos(lo - lo % kPageSlots);
  while (pos < pages_.size() && pages_[pos].first <= hi) {
    Page& page = pages_[pos];
    const Sn from = std::max(lo, page.first) - page.first;
    const Sn to = std::min(hi - page.first, kPageSlots - 1);
    for (Sn k = from; k <= to; ++k) {
      Bytes& held = page.slots[k];
      if (held.empty()) continue;
      encoded_bytes_ -= held.size();
      Bytes().swap(held);
      --page.used;
      --entries_;
    }
    if (page.used == 0) {
      pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(pos));
    } else {
      ++pos;
    }
  }
}

template <typename Fn>
void Vrdt::for_each_entry(Fn&& fn) const {
  for (const Page& page : pages_) {
    for (Sn k = 0; k < kPageSlots; ++k) {
      if (!page.slots[k].empty()) fn(page.first + k, page.slots[k]);
    }
  }
}

std::optional<Vrdt::Entry> Vrdt::find(Sn sn) const {
  const Bytes* encoding = slot(sn);
  if (encoding == nullptr) return std::nullopt;
  ByteReader r(*encoding);
  return Entry::deserialize(r);
}

void Vrdt::apply_window(const DeletedWindow& window) {
  WORM_REQUIRE(window.lo <= window.hi, "Vrdt: inverted window");
  for (Sn sn = window.lo; sn <= window.hi; ++sn) {
    const std::optional<Entry::Kind> kind = kind_at(sn);
    WORM_REQUIRE(kind == Entry::Kind::kDeleted || find_window(sn) != nullptr,
                 "Vrdt: window covers an SN with no deletion evidence");
    WORM_REQUIRE(kind != Entry::Kind::kActive,
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
  erase_range(window.lo, window.hi);
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
  if (sn_base > 0) erase_range(0, sn_base - 1);
  std::erase_if(windows_,
                [sn_base](const DeletedWindow& w) { return w.hi < sn_base; });
}

bool Vrdt::holds_below(Sn sn_base) const {
  // The first page holds an entry; its first slot in use is the lowest SN.
  bool entry_below = false;
  if (!pages_.empty()) {
    const Page& page = pages_.front();
    for (Sn k = 0; k < kPageSlots && page.first + k < sn_base; ++k) {
      if (!page.slots[k].empty()) {
        entry_below = true;
        break;
      }
    }
  }
  return entry_below ||
         std::any_of(windows_.begin(), windows_.end(),
                     [sn_base](const DeletedWindow& w) {
                       return w.hi < sn_base;
                     });
}

std::size_t Vrdt::active_count() const {
  std::size_t n = 0;
  for_each_entry([&n](Sn, const Bytes& encoding) {
    if (static_cast<Entry::Kind>(encoding.front()) == Entry::Kind::kActive) ++n;
  });
  return n;
}

std::vector<Sn> Vrdt::active_sns() const {
  std::vector<Sn> out;
  for_each_entry([&out](Sn sn, const Bytes& encoding) {
    if (static_cast<Entry::Kind>(encoding.front()) == Entry::Kind::kActive) {
      out.push_back(sn);
    }
  });
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
  for_each_entry([&ivs](Sn sn, const Bytes& encoding) {
    if (static_cast<Entry::Kind>(encoding.front()) == Entry::Kind::kDeleted) {
      ivs.push_back({sn, sn, false});
    }
  });
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
  w.u32(static_cast<std::uint32_t>(entries_));
  for_each_entry([&](Sn sn, const Bytes& encoding) {
    w.u64(sn);
    w.raw(encoding);
    hand_over(false);
  });
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
  // Decoded once to reject damage; the bytes it read are the entry.
  std::vector<std::pair<Sn, ByteView>> read;
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Sn sn = r.u64();
    const std::size_t begin = data.size() - r.remaining();
    (void)Entry::deserialize(r);
    const std::size_t end = data.size() - r.remaining();
    read.emplace_back(sn, data.subspan(begin, end - begin));
  }
  // Pages are appended in SN order whatever order the input holds, and a
  // repeated SN keeps its first entry.
  std::stable_sort(read.begin(), read.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (const auto& [sn, encoding] : read) {
    if (t.slot(sn) == nullptr) {
      t.store(sn, Bytes(encoding.begin(), encoding.end()));
    }
  }
  std::uint32_t m = r.u32();
  for (std::uint32_t i = 0; i < m; ++i) {
    t.windows_.push_back(DeletedWindow::deserialize(r));
  }
  r.expect_end();
  return t;
}

void Vrdt::save(const std::string& path) const {
  common::write_file(path, serialize());
}

Vrdt Vrdt::load(const std::string& path) {
  return deserialize(common::read_file(path));
}

bool Vrdt::force_erase(Sn sn) {
  if (slot(sn) == nullptr) return false;
  erase_range(sn, sn);
  return true;
}

void Vrdt::force_put(Sn sn, const Entry& entry) {
  store(sn, entry.kind == Entry::Kind::kActive
                ? encode_entry(entry.kind, entry.vrd)
                : encode_entry(entry.kind, entry.proof));
}

void Vrdt::force_add_window(DeletedWindow window) {
  auto pos = std::lower_bound(
      windows_.begin(), windows_.end(), window,
      [](const DeletedWindow& a, const DeletedWindow& b) { return a.lo < b.lo; });
  windows_.insert(pos, std::move(window));
}

}  // namespace worm::core
