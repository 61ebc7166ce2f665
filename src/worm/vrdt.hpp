// The Virtual Record Descriptor Table (§4.2.1): maintained on untrusted
// storage by the main CPU, indexed by serial number. Each live slot holds
// either the VRD of an active record or the SCPU deletion proof S_d(SN) of
// an expired one. Contiguous runs of >= 3 deletion proofs may be compacted
// into signed deleted-window markers, and everything below the signed
// SN_base is trimmed entirely — the storage-reduction mechanisms of §4.2.1.
//
// Each entry is held as its own encoding (Entry::serialize, the bytes a
// checkpoint and vrdt.bin carry), in fixed-size pages of kPageSlots SNs
// keyed by sn / kPageSlots. A lookup is a page step plus one decode; a scan
// that needs only an entry's kind reads its first byte. A page exists only
// while it holds an entry, so an SN forged far above the live range costs
// one page, never the gap.
//
// NOTHING in this class is trusted: the adversary module edits it at will;
// WORM guarantees come from the signatures inside the entries, never from
// this container's bookkeeping.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "worm/proofs.hpp"
#include "worm/types.hpp"

namespace worm::core {

class Vrdt {
 public:
  struct Entry {
    enum class Kind : std::uint8_t { kActive = 0, kDeleted = 1 };
    Kind kind = Kind::kActive;
    Vrd vrd;              // kActive
    DeletionProof proof;  // kDeleted

    void serialize(common::ByteWriter& w) const;
    static Entry deserialize(common::ByteReader& r);
  };

  Vrdt() = default;

  /// Inserts/overwrites the entry for vrd.sn as active.
  void put_active(const Vrd& vrd);

  /// Replaces an entry with its deletion proof (record expired).
  void put_deleted(const DeletionProof& proof);

  /// The decoded entry; nullopt when the SN has no per-SN entry (it may
  /// still be covered by a deleted window or lie below the trimmed base).
  [[nodiscard]] std::optional<Entry> find(Sn sn) const;

  /// Records a compacted deleted window and expels the per-SN entries it
  /// covers. Requires every covered entry to be a deletion proof (it is the
  /// SCPU that enforced this when signing the window; the check here guards
  /// against honest-host bugs).
  void apply_window(const DeletedWindow& window);

  /// Deleted-window marker covering sn, if any.
  [[nodiscard]] const DeletedWindow* find_window(Sn sn) const;

  /// Drops all entries and windows entirely below `sn_base` (their deletion
  /// proofs are superseded by the signed base bound).
  void trim_below(Sn sn_base);

  /// True when trim_below(sn_base) would drop anything.
  [[nodiscard]] bool holds_below(Sn sn_base) const;

  [[nodiscard]] std::size_t entry_count() const { return entries_; }
  /// Sum of the stored entry encodings (without their SN keys).
  [[nodiscard]] std::size_t encoded_bytes() const { return encoded_bytes_; }
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }
  [[nodiscard]] std::size_t active_count() const;

  /// All SNs whose entry is an active VRD, ascending (idle-time scans).
  [[nodiscard]] std::vector<Sn> active_sns() const;

  [[nodiscard]] const std::vector<DeletedWindow>& windows() const {
    return windows_;
  }

  /// A maximal contiguous span of proven-deleted SNs (deletion-proof entries
  /// and/or already-certified windows), for merge-compaction.
  struct DeadSpan {
    Sn lo = kInvalidSn;
    Sn hi = kInvalidSn;
    std::size_t proof_entries = 0;  // per-SN deletion proofs inside
    std::size_t windows = 0;        // certified windows inside

    [[nodiscard]] std::size_t length() const {
      return static_cast<std::size_t>(hi - lo + 1);
    }
    /// Worth re-certifying: long enough, and strictly reduces VRDT items.
    [[nodiscard]] bool reducible(std::size_t min_len) const {
      if (length() < min_len) return false;
      return proof_entries > 0 ? true : windows > 1;
    }
  };

  /// Best (longest reducible) dead span, if any.
  [[nodiscard]] std::optional<DeadSpan> find_dead_span(
      std::size_t min_len) const;

  /// Serialized size in bytes — the VRDT storage-footprint metric used by
  /// bench_window_compaction.
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Hands serialize()'s bytes to `sink` in order, in pieces of about
  /// kSerializePiece bytes, so a caller that streams them (the journal's
  /// checkpoint) never holds the whole encoding.
  void serialize_to(const std::function<void(common::ByteView)>& sink) const;
  static constexpr std::size_t kSerializePiece = 64 * 1024;

  common::Bytes serialize() const;
  static Vrdt deserialize(common::ByteView data);

  /// Persistence to a flat file (the "on disk" of §4.2.1).
  void save(const std::string& path) const;
  static Vrdt load(const std::string& path);

  // --- adversary surface (the insider has full disk access) ---------------

  /// Removes an entry without any proof — the "hide a record" attack.
  bool force_erase(Sn sn);

  /// Inserts an arbitrary forged entry.
  void force_put(Sn sn, const Entry& entry);

  /// Injects an arbitrary (possibly spliced) deleted-window marker.
  void force_add_window(DeletedWindow window);

 private:
  static constexpr Sn kPageSlots = 256;

  /// kPageSlots consecutive SNs from `first`; an empty slot holds no entry
  /// (an encoding is never empty: its first byte is the kind).
  struct Page {
    Sn first = 0;
    std::size_t used = 0;
    std::vector<common::Bytes> slots;
  };

  /// Position of the page starting at `first`, or where it would go.
  [[nodiscard]] std::size_t page_pos(Sn first) const;
  [[nodiscard]] const common::Bytes* slot(Sn sn) const;
  [[nodiscard]] std::optional<Entry::Kind> kind_at(Sn sn) const;
  /// Stores `encoding` as sn's entry, replacing any.
  void store(Sn sn, common::Bytes encoding);
  /// Empties the slots of [lo, hi] and drops pages left empty.
  void erase_range(Sn lo, Sn hi);
  /// Calls fn(sn, encoding) for every entry, ascending by SN.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const;

  std::vector<Page> pages_;  // ascending by first, none empty
  std::size_t entries_ = 0;
  std::size_t encoded_bytes_ = 0;
  std::vector<DeletedWindow> windows_;  // kept sorted by lo
};

}  // namespace worm::core
