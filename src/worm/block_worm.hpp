// Block-level WORM interface — the paper's embedded deployment point (§4.1:
// the record-level mechanisms can sit "inside a block-level storage device
// interface (e.g., in embedded scenarios without namespaces or indexing
// constraints)"). Here a "record" is one logical block: the device exposes
// write-once blocks addressed by logical block number, maps each to a WORM
// serial number internally, and serves verified reads. A block can be
// written exactly once; rewriting is refused at the interface and —
// crucially — undetectable rewriting is impossible beneath it, because each
// block carries SCPU witnesses like any other record.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "worm/client_verifier.hpp"
#include "worm/worm_store.hpp"

namespace worm::core {

class WormBlockDevice {
 public:
  /// logical_blocks: size of the write-once address space.
  /// retention: applied to every block (embedded deployments typically run
  /// one regulation policy device-wide).
  WormBlockDevice(WormStore& store, std::size_t logical_blocks,
                  std::size_t block_size, common::Duration retention);

  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  [[nodiscard]] std::size_t block_count() const { return map_.size(); }

  /// Writes logical block `lbn` exactly once. Throws PreconditionError on
  /// rewrite attempts or size mismatch.
  void write_block(std::size_t lbn, common::ByteView data);

  [[nodiscard]] bool is_written(std::size_t lbn) const;

  /// Verified read: returns the block bytes only if the SCPU witnesses
  /// check out; a tampered or expired block yields the verdict instead.
  struct BlockRead {
    Outcome outcome;
    common::Bytes data;  // filled only when outcome.verdict == kAuthentic
  };
  BlockRead read_block(std::size_t lbn, const ClientVerifier& verifier);

  /// Underlying serial number of a written block (audit plumbing).
  [[nodiscard]] std::optional<Sn> sn_of(std::size_t lbn) const;

 private:
  WormStore& store_;
  std::size_t block_size_;
  common::Duration retention_;
  std::vector<Sn> map_;  // lbn -> SN (kInvalidSn when unwritten)
};

}  // namespace worm::core
