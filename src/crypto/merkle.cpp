#include "crypto/merkle.hpp"

#include "common/error.hpp"

namespace worm::crypto {

MerkleTree::Digest MerkleTree::hash_leaf(common::ByteView data) const {
  ++hash_ops_;
  Sha256 h;
  std::uint8_t tag = 0x00;  // domain separation: leaf vs interior node
  h.update(common::ByteView(&tag, 1));
  h.update(data);
  return h.finalize();
}

MerkleTree::Digest MerkleTree::hash_node(const Digest& l,
                                         const Digest& r) const {
  ++hash_ops_;
  Sha256 h;
  std::uint8_t tag = 0x01;
  h.update(common::ByteView(&tag, 1));
  h.update(common::ByteView(l.data(), l.size()));
  h.update(common::ByteView(r.data(), r.size()));
  return h.finalize();
}

std::size_t MerkleTree::append(common::ByteView leaf_data) {
  if (levels_.empty()) levels_.emplace_back();
  std::size_t index = levels_[0].size();
  levels_[0].push_back(hash_leaf(leaf_data));
  bubble_up(index);
  return index;
}

void MerkleTree::update(std::size_t index, common::ByteView leaf_data) {
  WORM_REQUIRE(index < size(), "MerkleTree::update: index out of range");
  levels_[0][index] = hash_leaf(leaf_data);
  bubble_up(index);
}

void MerkleTree::bubble_up(std::size_t index) {
  std::size_t level = 0;
  std::size_t i = index;
  while (levels_[level].size() > 1) {
    if (level + 1 == levels_.size()) levels_.emplace_back();
    std::size_t parent = i / 2;
    const auto& cur = levels_[level];
    Digest value;
    std::size_t left = parent * 2;
    if (left + 1 < cur.size()) {
      value = hash_node(cur[left], cur[left + 1]);
    } else {
      value = cur[left];  // odd node promoted unchanged (CT-style)
    }
    auto& up = levels_[level + 1];
    if (parent == up.size()) {
      up.push_back(value);
    } else {
      WORM_CHECK(parent < up.size(), "MerkleTree: parent level hole");
      up[parent] = value;
    }
    ++level;
    i = parent;
  }
}

MerkleTree::Digest MerkleTree::root() const {
  if (levels_.empty() || levels_[0].empty()) {
    // Defined constant for the empty tree.
    ++hash_ops_;
    return Sha256::hash(common::to_bytes("worm-merkle-empty"));
  }
  return levels_.back()[0];
}

MerkleTree::Proof MerkleTree::prove(std::size_t index) const {
  WORM_REQUIRE(index < size(), "MerkleTree::prove: index out of range");
  Proof proof;
  std::size_t i = index;
  for (std::size_t level = 0; levels_[level].size() > 1; ++level) {
    const auto& cur = levels_[level];
    std::size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < cur.size()) {
      proof.push_back({cur[sibling], /*sibling_on_right=*/i % 2 == 0});
    }
    // Promoted odd node: no sibling at this level, no proof entry.
    i /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, std::size_t /*index*/,
                        common::ByteView leaf_data, const Proof& proof) {
  MerkleTree scratch;  // for hashing helpers (hash op count is irrelevant)
  Digest acc = scratch.hash_leaf(leaf_data);
  for (const ProofNode& node : proof) {
    acc = node.sibling_on_right ? scratch.hash_node(acc, node.sibling)
                                : scratch.hash_node(node.sibling, acc);
  }
  return acc == root;
}

}  // namespace worm::crypto
