// Baseline comparator: a WORM store authenticated by a Merkle hash tree
// maintained *inside* the SCPU, the "straight-forward choice" the paper
// rejects (§2.3, §4.1). Every update recomputes O(log n) interior nodes in
// the slow secure processor and re-signs the root; the paper's windowed
// serial-number scheme replaces this with O(1) signature work. This module
// exists so bench_merkle_ablation can measure that gap under the identical
// calibrated cost model, and so tests can confirm the baseline provides the
// same assurances (it does — it is just slower).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sim_clock.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rsa.hpp"
#include "scpu/scpu_device.hpp"
#include "storage/record_store.hpp"
#include "worm/types.hpp"

namespace worm::baseline {

/// Root commitment the SCPU publishes after every update.
struct SignedRoot {
  crypto::MerkleTree::Digest root{};
  std::uint64_t tree_size = 0;
  common::SimTime stamped_at{};
  common::Bytes sig;
};

struct MerkleReadOk {
  core::Sn sn = core::kInvalidSn;
  common::Bytes payload;
  core::Attr attr;
  bool deleted = false;  // leaf is a tombstone
  crypto::MerkleTree::Proof proof;
  SignedRoot root;
};

class MerkleWormStore {
 public:
  MerkleWormStore(common::SimClock& clock, scpu::ScpuDevice& device,
                  storage::RecordStore& records, std::size_t strong_bits = 1024,
                  std::uint64_t seed = 0x6d65726bull);

  /// Appends a record; the SCPU hashes the leaf, recomputes the path to the
  /// root (O(log n) hash invocations) and re-signs the root.
  [[nodiscard]] core::Sn write(common::ByteView payload, const core::Attr& attr);

  /// Marks a record deleted (tombstone leaf) — also O(log n) + resign.
  void expire(core::Sn sn);

  /// Benchmark helper: bulk-loads n placeholder records with one root
  /// signature at the end (models an initial ingest; avoids n real RSA
  /// signs when an experiment only needs a pre-sized tree).
  void preload(std::size_t n, const core::Attr& attr);

  /// Read with inclusion proof against the latest signed root.
  [[nodiscard]] std::optional<MerkleReadOk> read(core::Sn sn);

  /// Client-side verification given the SCPU public key.
  [[nodiscard]] static bool verify(const MerkleReadOk& r,
                                   const crypto::RsaPublicKey& pub);

  [[nodiscard]] crypto::RsaPublicKey public_key() const;
  [[nodiscard]] std::uint64_t scpu_hash_ops() const { return tree_.hash_ops(); }

 private:
  struct LeafMeta {
    storage::RecordDescriptor rd;
    core::Attr attr;
    bool deleted = false;
  };

  common::Bytes leaf_bytes(core::Sn sn, const core::Attr& attr,
                           common::ByteView payload_hash, bool deleted) const;
  void resign_root();
  void charge_path_update();

  common::SimClock& clock_;
  scpu::ScpuDevice& dev_;
  storage::RecordStore& records_;
  const crypto::RsaPrivateKey* key_;
  std::size_t strong_bits_;
  crypto::MerkleTree tree_;
  std::vector<LeafMeta> leaves_;
  SignedRoot root_;
};

}  // namespace worm::baseline
