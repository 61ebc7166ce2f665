#include "storage/record_store.hpp"

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/error.hpp"

namespace worm::storage {

using common::Bytes;
using common::ByteView;

const char* to_string(ShredPolicy p) {
  switch (p) {
    case ShredPolicy::kNone:
      return "none";
    case ShredPolicy::kZeroFill:
      return "zero-fill";
    case ShredPolicy::kNist3Pass:
      return "nist-3-pass";
    case ShredPolicy::kRandom7Pass:
      return "random-7-pass";
    case ShredPolicy::kCryptoShred:
      return "crypto-shred";
  }
  return "?";
}

void RecordDescriptor::serialize(common::ByteWriter& w) const {
  w.u64(record_id);
  w.u64(size);
  w.u32(checksum);
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (std::uint64_t b : blocks) w.u64(b);
}

RecordDescriptor RecordDescriptor::deserialize(common::ByteReader& r) {
  RecordDescriptor rd;
  rd.record_id = r.u64();
  rd.size = r.u64();
  rd.checksum = r.u32();
  std::uint32_t n = r.count(8);
  rd.blocks.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) rd.blocks.push_back(r.u64());
  return rd;
}

RecordStore::RecordStore(BlockDevice& device) : device_(device) {}

std::uint64_t RecordStore::allocate_block() {
  if (!free_.empty()) {
    std::uint64_t b = *free_.begin();
    free_.erase(free_.begin());
    return b;
  }
  if (next_block_ >= device_.block_count()) {
    device_.grow(std::max<std::size_t>(64, device_.block_count()));
  }
  return next_block_++;
}

RecordDescriptor RecordStore::write(ByteView data) {
  if (WORM_FAULT_POINT(fault_, "records.write") ==
      common::FaultKind::kTransient) {
    throw common::TransientStorageError(
        "RecordStore: injected transient fault at records.write");
  }
  common::MutexLock lk(alloc_mu_);
  const std::size_t bs = device_.block_size();
  RecordDescriptor rd;
  rd.record_id = next_id_++;
  rd.size = data.size();
  rd.checksum = common::crc32c(data);
  std::size_t nblocks = (data.size() + bs - 1) / bs;
  if (nblocks == 0) nblocks = 1;  // empty records still own one block
  Bytes block(bs, 0);
  try {
    for (std::size_t i = 0; i < nblocks; ++i) {
      std::uint64_t idx = allocate_block();
      rd.blocks.push_back(idx);
      std::size_t off = i * bs;
      std::size_t take =
          std::min(bs, data.size() - std::min(data.size(), off));
      std::fill(block.begin(), block.end(), 0);
      if (take > 0) {
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + take),
                  block.begin());
      }
      device_.write_block(idx, block);
    }
  } catch (...) {
    // No descriptor will ever name these blocks: zero and free each one
    // now. Best effort per block, so a block whose own zero-fill fails
    // stays allocated (and keeps what it holds) while the rest are freed.
    std::fill(block.begin(), block.end(), 0);
    for (std::uint64_t idx : rd.blocks) {
      try {
        device_.write_block(idx, block);
        free_.insert(idx);
      } catch (const common::StorageError&) {
        // Best effort: the caller's own error is the one that stands.
      }
    }
    throw;
  }
  return rd;
}

Bytes RecordStore::read_once(const RecordDescriptor& rd) {
  if (WORM_FAULT_POINT(fault_, "records.read") ==
      common::FaultKind::kTransient) {
    throw common::TransientStorageError(
        "RecordStore: injected transient fault at records.read");
  }
  const std::size_t bs = device_.block_size();
  WORM_REQUIRE(rd.blocks.size() * bs >= rd.size,
               "RecordStore::read: descriptor size/blocks mismatch");
  Bytes out;
  out.reserve(rd.size);
  Bytes block;
  for (std::size_t i = 0; i < rd.blocks.size() && out.size() < rd.size; ++i) {
    device_.read_block(rd.blocks[i], block);
    std::size_t take = std::min(bs, static_cast<std::size_t>(rd.size) - out.size());
    out.insert(out.end(), block.begin(),
               block.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

Bytes RecordStore::read(const RecordDescriptor& rd) {
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      Bytes out = read_once(rd);
      if (rd.checksum == 0 || common::crc32c(out) == rd.checksum ||
          attempt >= kAttempts) {
        // A mismatch that survives the retries is medium damage, not a
        // glitch: serve the bytes — platter tampering must reach the client
        // so the datasig can convict it.
        return out;
      }
    } catch (const common::TransientStorageError&) {
      if (attempt >= kAttempts) throw;
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RecordStore::rebuild_allocator(std::span<const RecordDescriptor> live) {
  common::MutexLock lk(alloc_mu_);
  const std::uint64_t count = device_.block_count();
  std::vector<bool> named(count, false);
  next_block_ = 0;
  next_id_ = 0;
  for (const RecordDescriptor& rd : live) {
    next_id_ = std::max(next_id_, rd.record_id + 1);
    for (std::uint64_t b : rd.blocks) {
      if (b >= count) continue;
      named[b] = true;
      next_block_ = std::max(next_block_, b + 1);
    }
  }
  free_.clear();
  for (std::uint64_t b = 0; b < next_block_; ++b) {
    if (!named[b]) free_.insert(b);
  }
}

void RecordStore::overwrite_pass(const RecordDescriptor& rd,
                                 const Bytes& pattern) {
  for (std::uint64_t b : rd.blocks) device_.write_block(b, pattern);
}

void RecordStore::random_pass(const RecordDescriptor& rd, crypto::Drbg& rng) {
  Bytes pattern(device_.block_size());
  for (std::uint64_t b : rd.blocks) {
    rng.fill(pattern.data(), pattern.size());
    device_.write_block(b, pattern);
  }
}

void RecordStore::shred(const RecordDescriptor& rd, ShredPolicy policy,
                        crypto::Drbg& rng) {
  const Bytes zeros(device_.block_size(), 0x00);
  const Bytes ones(device_.block_size(), 0xff);
  switch (policy) {
    case ShredPolicy::kNone:
      break;
    case ShredPolicy::kZeroFill:
    case ShredPolicy::kCryptoShred:  // one zero pass; no key to destroy
      overwrite_pass(rd, zeros);
      break;
    case ShredPolicy::kNist3Pass:
      overwrite_pass(rd, zeros);
      overwrite_pass(rd, ones);
      random_pass(rd, rng);
      break;
    case ShredPolicy::kRandom7Pass:
      for (int pass = 0; pass < 7; ++pass) random_pass(rd, rng);
      break;
  }
  common::MutexLock lk(alloc_mu_);
  for (std::uint64_t b : rd.blocks) free_.insert(b);
}

}  // namespace worm::storage
