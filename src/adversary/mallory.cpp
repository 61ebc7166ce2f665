#include "adversary/mallory.hpp"

namespace worm::adversary {

using core::Vrdt;

namespace {
std::optional<core::Vrd> active_vrd(const core::WormStore& store, Sn sn) {
  std::optional<Vrdt::Entry> e = store.vrdt().find(sn);
  if (!e.has_value() || e->kind != Vrdt::Entry::Kind::kActive) {
    return std::nullopt;
  }
  return std::move(e->vrd);
}

/// Rewrites sn's VRD in the host's table: read it, edit the copy, put it
/// back under the same SN.
template <typename Edit>
bool edit_active_vrd(core::WormStore& store, Sn sn, Edit edit) {
  std::optional<core::Vrd> vrd = active_vrd(store, sn);
  if (!vrd.has_value()) return false;
  edit(*vrd);
  Vrdt::Entry entry;
  entry.vrd = std::move(*vrd);
  core::InsiderHandle(store).vrdt().force_put(sn, entry);
  return true;
}
}  // namespace

bool tamper_record_data(core::WormStore& store, storage::MemBlockDevice& disk,
                        Sn sn) {
  std::optional<core::Vrd> vrd = active_vrd(store, sn);
  if (!vrd.has_value()) return false;
  for (const auto& rd : vrd->rdl) {
    for (std::uint64_t b : rd.blocks) {
      common::Bytes& raw = disk.raw_block(b);
      for (std::size_t i = 0; i < raw.size(); i += 97) raw[i] ^= 0x5a;
    }
  }
  return true;
}

bool rewrite_retention(core::WormStore& store, Sn sn,
                       common::Duration new_retention) {
  return edit_active_vrd(store, sn, [&](core::Vrd& vrd) {
    vrd.attr.retention = new_retention;
  });
}

bool cross_wire_records(core::WormStore& store, Sn a, Sn b) {
  std::optional<core::Vrd> vb = active_vrd(store, b);
  if (!vb.has_value()) return false;
  return edit_active_vrd(store, a, [&](core::Vrd& va) {
    va.rdl = std::move(vb->rdl);  // A's reads now return B's bytes
  });
}

bool hide_record(core::WormStore& store, Sn sn) {
  return core::InsiderHandle(store).vrdt().force_erase(sn);
}

bool forge_deletion(core::WormStore& store, Sn sn, crypto::Drbg& rng) {
  if (!active_vrd(store, sn).has_value()) return false;
  DeletionProof fake;
  fake.sn = sn;
  fake.deleted_at = common::SimTime{0};
  fake.sig = rng.bytes(128);  // Mallory cannot sign with d; she guesses
  Vrdt::Entry entry;
  entry.kind = Vrdt::Entry::Kind::kDeleted;
  entry.proof = std::move(fake);
  core::InsiderHandle(store).vrdt().force_put(sn, entry);
  return true;
}

bool replay_foreign_deletion(core::WormStore& store, Sn victim, Sn donor) {
  std::optional<Vrdt::Entry> d = store.vrdt().find(donor);
  if (!d.has_value() || d->kind != Vrdt::Entry::Kind::kDeleted) return false;
  if (!active_vrd(store, victim).has_value()) return false;
  Vrdt::Entry entry;
  entry.kind = Vrdt::Entry::Kind::kDeleted;
  entry.proof = std::move(d->proof);  // genuine signature... for `donor`
  core::InsiderHandle(store).vrdt().force_put(victim, entry);
  return true;
}

ReadOutcome stale_not_allocated_answer(SignedSnCurrent captured) {
  return core::ReadNotAllocated{std::move(captured)};
}

DeletedWindow splice_windows(const DeletedWindow& first,
                             const DeletedWindow& second) {
  DeletedWindow forged;
  forged.window_id = first.window_id;  // sig_hi was issued under second's id
  forged.lo = first.lo;
  forged.hi = second.hi;
  forged.created_at = first.created_at;
  forged.sig_lo = first.sig_lo;
  forged.sig_hi = second.sig_hi;
  return forged;
}

void install_spliced_window(core::WormStore& store, DeletedWindow forged) {
  Vrdt& vrdt = core::InsiderHandle(store).vrdt();
  for (Sn sn = forged.lo; sn <= forged.hi; ++sn) vrdt.force_erase(sn);
  vrdt.force_add_window(std::move(forged));
}

Vrdt snapshot_vrdt(const core::WormStore& store) {
  return Vrdt::deserialize(store.vrdt().serialize());
}

void rollback_vrdt(core::WormStore& store, Vrdt snapshot) {
  core::InsiderHandle(store).vrdt() = std::move(snapshot);
}

}  // namespace worm::adversary
