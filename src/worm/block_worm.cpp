#include "worm/block_worm.hpp"

#include "common/error.hpp"

namespace worm::core {

WormBlockDevice::WormBlockDevice(WormStore& store, std::size_t logical_blocks,
                                 std::size_t block_size,
                                 common::Duration retention)
    : store_(store),
      block_size_(block_size),
      retention_(retention),
      map_(logical_blocks, kInvalidSn) {
  WORM_REQUIRE(block_size > 0, "WormBlockDevice: zero block size");
  WORM_REQUIRE(retention.ns > 0, "WormBlockDevice: zero retention");
}

void WormBlockDevice::write_block(std::size_t lbn, common::ByteView data) {
  WORM_REQUIRE(lbn < map_.size(), "WormBlockDevice: LBN out of range");
  WORM_REQUIRE(data.size() == block_size_,
               "WormBlockDevice: data size != block size");
  // Write-once at the interface: the second write of an LBN is refused
  // outright (and even a bypassed one could not be hidden, per Theorem 1).
  WORM_REQUIRE(map_[lbn] == kInvalidSn,
               "WormBlockDevice: block already written (WORM)");
  Attr attr;
  attr.retention = retention_;
  map_[lbn] = store_.write({.payloads = {common::to_bytes(data)}, .attr = attr});
}

bool WormBlockDevice::is_written(std::size_t lbn) const {
  WORM_REQUIRE(lbn < map_.size(), "WormBlockDevice: LBN out of range");
  return map_[lbn] != kInvalidSn;
}

WormBlockDevice::BlockRead WormBlockDevice::read_block(
    std::size_t lbn, const ClientVerifier& verifier) {
  WORM_REQUIRE(lbn < map_.size(), "WormBlockDevice: LBN out of range");
  BlockRead out;
  if (map_[lbn] == kInvalidSn) {
    out.outcome = {Verdict::kTampered, "block never written"};
    return out;
  }
  ReadOutcome res = store_.read(map_[lbn]);
  out.outcome = verifier.verify_read(map_[lbn], res);
  if (out.outcome.verdict == Verdict::kAuthentic) {
    out.data = res.get<ReadOk>().payloads.at(0);
  }
  return out;
}

std::optional<Sn> WormBlockDevice::sn_of(std::size_t lbn) const {
  WORM_REQUIRE(lbn < map_.size(), "WormBlockDevice: LBN out of range");
  if (map_[lbn] == kInvalidSn) return std::nullopt;
  return map_[lbn];
}

}  // namespace worm::core
