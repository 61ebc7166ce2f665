// Untrusted block storage under the main CPU's control, with a parameterized
// latency model. The paper observes (§5) that 3-4 ms enterprise-disk seek
// latencies — not the WORM layer — become the operational bottleneck; the
// latency model lets bench_disk_bound reproduce that claim. The adversary
// module mutates blocks through raw_block(), modelling the insider who opens
// the drive enclosure and edits the platters.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"
#include "common/sim_clock.hpp"

namespace worm::storage {

/// Simulated device timing, charged to the SimClock on each access.
struct LatencyModel {
  common::Duration seek_per_op{};  // positioning cost per block access
  double transfer_bytes_per_sec = 0;  // 0 == infinite

  /// 2008-era enterprise disk per the paper: "3-4ms+ latencies for
  /// individual block disk access"; ~80 MB/s sustained transfer.
  static LatencyModel enterprise_disk_2008() {
    return {common::Duration::micros(3500), 80e6};
  }

  /// No modelled latency (isolates WORM-layer cost in benchmarks).
  static LatencyModel none() { return {}; }

  [[nodiscard]] common::Duration cost(std::size_t bytes) const {
    common::Duration d = seek_per_op;
    if (transfer_bytes_per_sec > 0) {
      d += common::Duration::from_seconds_f(static_cast<double>(bytes) /
                                            transfer_bytes_per_sec);
    }
    return d;
  }
};

/// Access-counter snapshot for experiments.
struct DeviceStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Fixed-block-size device interface. Counters are atomic so concurrent
/// readers (the multi-threaded read path) can share a device; block-level
/// data consistency under concurrent access is the derived class's contract.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual std::size_t block_size() const = 0;
  [[nodiscard]] virtual std::size_t block_count() const = 0;

  /// Reads block `index` into out (resized to block_size()).
  /// Throws StorageError when index is out of range.
  virtual void read_block(std::size_t index, common::Bytes& out) = 0;

  /// Writes block `index`. data must be exactly block_size() bytes.
  virtual void write_block(std::size_t index, common::ByteView data) = 0;

  /// Extends the device by additional_blocks (attaching media). Devices that
  /// cannot grow throw StorageError.
  virtual void grow(std::size_t additional_blocks) = 0;

  [[nodiscard]] DeviceStats stats() const {
    return {reads_.load(std::memory_order_relaxed),
            writes_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed),
            bytes_written_.load(std::memory_order_relaxed)};
  }
  void reset_stats() {
    reads_ = 0;
    writes_ = 0;
    bytes_read_ = 0;
    bytes_written_ = 0;
  }

 protected:
  void note_read(std::size_t bytes) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_write(std::size_t bytes) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

/// In-memory device; optionally charges a SimClock per the latency model.
///
/// Concurrency contract: any number of threads may read_block/write_block
/// concurrently (distinct blocks — concurrent access to the SAME block is
/// the caller's data race to prevent, which WormStore's reader-writer lock
/// does); grow() excludes everything. raw_block() is the adversary's
/// unsynchronized platter access and stays outside the contract.
class MemBlockDevice final : public BlockDevice {
 public:
  MemBlockDevice(std::size_t block_size, std::size_t block_count,
                 common::SimClock* clock = nullptr,
                 LatencyModel latency = LatencyModel::none());

  [[nodiscard]] std::size_t block_size() const override { return block_size_; }
  [[nodiscard]] std::size_t block_count() const override {
    common::SharedLock lk(mu_);
    return blocks_.size();
  }

  void read_block(std::size_t index, common::Bytes& out) override;
  void write_block(std::size_t index, common::ByteView data) override;

  /// Grows the device (models attaching more platters).
  void grow(std::size_t additional_blocks) override;

  /// Direct mutable access for the adversary — bypasses stats, latency,
  /// every software check AND the lock discipline, exactly like physical
  /// platter access would (hence the analysis opt-out).
  common::Bytes& raw_block(std::size_t index) NO_THREAD_SAFETY_ANALYSIS;

  /// Attaches a fault injector. Fault points: "device.read" (kTransient
  /// throws TransientStorageError; kBitFlip inverts one bit of the returned
  /// copy — a bus glitch, the stored block stays intact) and "device.write"
  /// (kTransient fails before any byte lands; kTorn persists only a prefix
  /// then fails; kBitFlip corrupts the stored copy — medium damage the
  /// datasig catches at the client). Call before concurrent use; the pointer
  /// itself is not synchronized.
  void set_fault_injector(common::FaultInjector* fault) { fault_ = fault; }

 private:
  void check_index(std::size_t index) const REQUIRES_SHARED(mu_);
  void charge(std::size_t bytes);

  std::size_t block_size_;
  // Readers/writers share; grow() (which reallocates blocks_) excludes.
  mutable common::AnnotatedSharedMutex mu_;
  std::vector<common::Bytes> blocks_ GUARDED_BY(mu_);
  common::SimClock* clock_;
  LatencyModel latency_;
  common::FaultInjector* fault_ = nullptr;
};

/// File-backed device (one flat file, block i at offset i*block_size).
class FileBlockDevice final : public BlockDevice {
 public:
  /// Opens (creating if needed) the backing file sized to at least
  /// block_count blocks. A larger existing file keeps its size, and
  /// block_count() reports it: reopening never truncates written blocks.
  FileBlockDevice(const std::string& path, std::size_t block_size,
                  std::size_t block_count);

  [[nodiscard]] std::size_t block_size() const override { return block_size_; }
  [[nodiscard]] std::size_t block_count() const override {
    return block_count_;
  }

  void read_block(std::size_t index, common::Bytes& out) override;
  void write_block(std::size_t index, common::ByteView data) override;
  void grow(std::size_t additional_blocks) override;

  /// Syncs every written block to the device.
  void flush();

 private:
  common::File file_;
  std::size_t block_size_;
  std::size_t block_count_;
};

}  // namespace worm::storage
