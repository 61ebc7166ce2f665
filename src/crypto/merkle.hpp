// Merkle hash tree (dynamic, append + in-place update, inclusion proofs).
// This is the construct the paper argues AGAINST for compliance stores: every
// update costs O(log n) hash operations inside the slow SCPU, versus the
// paper's O(1) windowed serial-number scheme. It exists here as the baseline
// for the ablation benchmark and as the comparison store in src/baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace worm::crypto {

class MerkleTree {
 public:
  using Digest = Sha256::Digest;

  struct ProofNode {
    Digest sibling;
    bool sibling_on_right = false;
  };
  using Proof = std::vector<ProofNode>;

  MerkleTree() = default;

  /// Appends a leaf; returns its index. O(log n) node recomputations.
  std::size_t append(common::ByteView leaf_data);

  /// Replaces leaf `index`. O(log n).
  void update(std::size_t index, common::ByteView leaf_data);

  /// Root over the current leaves. Empty tree has a defined constant root.
  [[nodiscard]] Digest root() const;

  [[nodiscard]] std::size_t size() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }

  /// Inclusion proof for leaf `index`.
  [[nodiscard]] Proof prove(std::size_t index) const;

  /// Verifies an inclusion proof against a root.
  static bool verify(const Digest& root, std::size_t index,
                     common::ByteView leaf_data, const Proof& proof);

  /// Hash invocations since construction — the ablation benchmark charges
  /// simulated SCPU time per invocation.
  [[nodiscard]] std::uint64_t hash_ops() const { return hash_ops_; }
  void reset_hash_ops() { hash_ops_ = 0; }

 private:
  [[nodiscard]] Digest hash_leaf(common::ByteView data) const;
  [[nodiscard]] Digest hash_node(const Digest& l, const Digest& r) const;
  void bubble_up(std::size_t index);

  // levels_[0] = leaf hashes, levels_[k] = pairwise parents. A node with no
  // right sibling is promoted unchanged (Certificate-Transparency style).
  std::vector<std::vector<Digest>> levels_;
  mutable std::uint64_t hash_ops_ = 0;
};

}  // namespace worm::crypto
