// Data-record layer over a block device: allocation of variable-size records,
// reads by descriptor, and shredding on deletion. Records here are the
// paper's "data records" — application items (files, tuples, inodes)
// identified by record descriptors (RDs) that the VRD's RDL points at.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/fault.hpp"
#include "common/serial.hpp"
#include "crypto/drbg.hpp"
#include "storage/block_device.hpp"

namespace worm::storage {

/// Media-level destruction policy, one of the VRD attr's "shredding
/// algorithm" choices (§4.2). The byte crosses the wire in every attr, so
/// its values are frozen in docs/wire_abi.lock. kCryptoShred does one zero
/// pass; no per-record key exists, so key destruction is out of scope.
/// CryptoShredder (storage/crypto_shred.hpp) is a standalone helper an
/// application may use to seal payloads before writing; the store never
/// calls it.
enum class ShredPolicy : std::uint8_t {
  kNone = 0,        // free blocks, leave residual data (weakest)
  kZeroFill = 1,    // single zero pass
  kNist3Pass = 2,   // zeros, ones, random
  kRandom7Pass = 3, // seven random passes (Gutmann-style, paranoid)
  kCryptoShred = 4, // single zero pass (no key is destroyed)
};

const char* to_string(ShredPolicy p);

/// Physical record descriptor (RD): where a data record lives on the device.
struct RecordDescriptor {
  std::uint64_t record_id = 0;
  std::uint64_t size = 0;            // payload bytes
  std::vector<std::uint64_t> blocks; // device block indices, in order
  // CRC-32C of the payload (common/crc32c.hpp), set at write time and
  // re-checked on every read. Purely a *fault* detector: it distinguishes a
  // transient read glitch (retry) from persistent medium damage (serve the
  // bytes anyway — the datasig is what convicts tampering at the client).
  // 0 == no checksum (a legacy descriptor, or a payload whose CRC is 0).
  std::uint32_t checksum = 0;

  void serialize(common::ByteWriter& w) const;
  static RecordDescriptor deserialize(common::ByteReader& r);

  bool operator==(const RecordDescriptor&) const = default;
};

/// Allocates, reads and shreds records on one block device. Allocation is
/// append-mostly with a free list fed by shredded records.
///
/// Concurrency: read() touches only the device and is safe from any number
/// of threads; write()/shred()/rebuild_allocator() serialize on the
/// allocator mutex (and mutate device blocks, so callers must not read a
/// record that is concurrently being written or shredded — WormStore's
/// reader-writer lock guarantees this).
class RecordStore {
 public:
  explicit RecordStore(BlockDevice& device);

  /// Writes a record; allocates blocks (growing the device when supported).
  /// The descriptor is the only handle to the record — dropping it leaks
  /// the blocks. When a block's write (or the growth) throws, the blocks
  /// this call took are zero-filled and freed before the error propagates;
  /// a block whose own zero-fill fails stays allocated until the next boot.
  [[nodiscard]] RecordDescriptor write(common::ByteView data);

  /// Reads a record's payload back. Throws StorageError on a descriptor that
  /// points outside the device. Transient device faults and checksum
  /// mismatches are retried a few times; a mismatch that persists is served
  /// as-is (medium damage is the client verifier's to convict), while a
  /// transient fault that outlives the retry budget propagates as
  /// TransientStorageError.
  [[nodiscard]] common::Bytes read(const RecordDescriptor& rd);

  /// Destroys the record's blocks per policy and recycles them.
  /// `rng` supplies the random passes.
  void shred(const RecordDescriptor& rd, ShredPolicy policy,
             crypto::Drbg& rng);

  [[nodiscard]] std::size_t free_blocks() const EXCLUDES(alloc_mu_) {
    common::MutexLock lk(alloc_mu_);
    return free_.size();
  }

  /// Restart path: rebuilds the allocator from the records still in use.
  /// The next block is one past the highest block `live` names, every
  /// unnamed block below it is free, and the next record id is one past the
  /// largest id named. The descriptors come from untrusted host state, so a
  /// block at or past block_count() is ignored: it is not freed, and it
  /// sizes nothing.
  void rebuild_allocator(std::span<const RecordDescriptor> live)
      EXCLUDES(alloc_mu_);

  [[nodiscard]] BlockDevice& device() { return device_; }

  /// Attaches a fault injector. Fault points: "records.write" and
  /// "records.read" (kTransient throws TransientStorageError before the
  /// device is touched). Call before concurrent use.
  void set_fault_injector(common::FaultInjector* fault) { fault_ = fault; }

  /// Reads that needed a second (or third) attempt — transient device
  /// faults or checksum mismatches absorbed by the retry budget.
  [[nodiscard]] std::uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t allocate_block() REQUIRES(alloc_mu_);
  common::Bytes read_once(const RecordDescriptor& rd);
  void overwrite_pass(const RecordDescriptor& rd, const common::Bytes& pattern);
  void random_pass(const RecordDescriptor& rd, crypto::Drbg& rng);

  BlockDevice& device_;
  mutable common::AnnotatedMutex alloc_mu_;  // free list + watermarks
  std::set<std::uint64_t> free_ GUARDED_BY(alloc_mu_);
  std::uint64_t next_block_ GUARDED_BY(alloc_mu_) = 0;
  std::uint64_t next_id_ GUARDED_BY(alloc_mu_) = 0;
  common::FaultInjector* fault_ = nullptr;
  std::atomic<std::uint64_t> read_retries_{0};
};

}  // namespace worm::storage
