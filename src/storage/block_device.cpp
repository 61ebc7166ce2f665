#include "storage/block_device.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace worm::storage {

using common::Bytes;
using common::ByteView;
using common::FaultKind;
using common::StorageError;
using common::TransientStorageError;

namespace {

// Inverts one injector-chosen bit of `buf` (bit flips need a deterministic
// target so failing schedules replay exactly).
void flip_one_bit(common::FaultInjector& fault, Bytes& buf) {
  if (buf.empty()) return;
  std::uint64_t bit = fault.shape(buf.size() * 8);
  buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

}  // namespace

MemBlockDevice::MemBlockDevice(std::size_t block_size, std::size_t block_count,
                               common::SimClock* clock, LatencyModel latency)
    : block_size_(block_size),
      blocks_(block_count, Bytes(block_size, 0)),
      clock_(clock),
      latency_(latency) {
  WORM_REQUIRE(block_size > 0, "MemBlockDevice: zero block size");
}

void MemBlockDevice::check_index(std::size_t index) const {
  if (index >= blocks_.size()) {
    throw StorageError("MemBlockDevice: block index out of range");
  }
}

void MemBlockDevice::charge(std::size_t bytes) {
  if (clock_ != nullptr) clock_->charge(latency_.cost(bytes));
}

void MemBlockDevice::read_block(std::size_t index, Bytes& out) {
  {
    common::SharedLock lk(mu_);
    check_index(index);
    out = blocks_[index];
  }
  note_read(block_size_);
  charge(block_size_);
  switch (WORM_FAULT_POINT(fault_, "device.read")) {
    case FaultKind::kTransient:
      throw TransientStorageError("MemBlockDevice: injected transient read "
                                  "fault at device.read");
    case FaultKind::kBitFlip:
      // Bus glitch: the in-flight copy is damaged, the stored block is not.
      flip_one_bit(*fault_, out);
      break;
    default:
      break;
  }
}

void MemBlockDevice::write_block(std::size_t index, ByteView data) {
  WORM_REQUIRE(data.size() == block_size_,
               "MemBlockDevice: write size != block size");
  FaultKind fault = WORM_FAULT_POINT(fault_, "device.write");
  if (fault == FaultKind::kTransient) {
    throw TransientStorageError("MemBlockDevice: injected transient write "
                                "fault at device.write");
  }
  {
    common::SharedLock lk(mu_);
    check_index(index);
    if (fault == FaultKind::kTorn) {
      // Power-loss mid-write: only a prefix reaches the medium.
      std::size_t torn = data.size() / 2;
      std::copy(data.begin(),
                data.begin() + static_cast<std::ptrdiff_t>(torn),
                blocks_[index].begin());
    } else {
      blocks_[index].assign(data.begin(), data.end());
      if (fault == FaultKind::kBitFlip) flip_one_bit(*fault_, blocks_[index]);
    }
  }
  note_write(block_size_);
  charge(block_size_);
  if (fault == FaultKind::kTorn) {
    throw TransientStorageError(
        "MemBlockDevice: injected torn write at device.write");
  }
}

void MemBlockDevice::grow(std::size_t additional_blocks) {
  common::ExclusiveLock lk(mu_);
  blocks_.resize(blocks_.size() + additional_blocks, Bytes(block_size_, 0));
}

Bytes& MemBlockDevice::raw_block(std::size_t index) {
  check_index(index);
  return blocks_[index];
}

FileBlockDevice::FileBlockDevice(const std::string& path,
                                 std::size_t block_size,
                                 std::size_t block_count)
    : file_(path, common::File::Mode::kCreate), block_size_(block_size) {
  WORM_REQUIRE(block_size > 0, "FileBlockDevice: zero block size");
  // Never shrink: a store that grew past the count it is reopened with
  // keeps every block it wrote.
  const auto existing = static_cast<std::size_t>(file_.size());
  block_count_ =
      std::max(block_count, (existing + block_size - 1) / block_size);
  file_.resize(block_size * block_count_);
}

void FileBlockDevice::read_block(std::size_t index, Bytes& out) {
  if (index >= block_count_) {
    throw StorageError("FileBlockDevice: block index out of range");
  }
  out.resize(block_size_);
  file_.read_at(index * block_size_, out);
  note_read(block_size_);
}

void FileBlockDevice::write_block(std::size_t index, ByteView data) {
  if (index >= block_count_) {
    throw StorageError("FileBlockDevice: block index out of range");
  }
  WORM_REQUIRE(data.size() == block_size_,
               "FileBlockDevice: write size != block size");
  file_.write_at(index * block_size_, data);
  note_write(block_size_);
}

void FileBlockDevice::grow(std::size_t additional_blocks) {
  const std::size_t new_count = block_count_ + additional_blocks;
  file_.resize(block_size_ * new_count);
  block_count_ = new_count;
}

void FileBlockDevice::flush() { file_.sync(); }

}  // namespace worm::storage
