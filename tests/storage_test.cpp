// Storage-substrate unit tests: block devices (memory + file-backed), the
// latency model, record allocation/recycling, and shredding policies.
#include <cstdio>

#include <gtest/gtest.h>

#include "common/sim_clock.hpp"
#include "crypto/drbg.hpp"
#include "storage/block_device.hpp"
#include "storage/record_store.hpp"

namespace worm::storage {
namespace {

using common::Bytes;
using common::Duration;
using common::to_bytes;

TEST(LatencyModel, CostArithmetic) {
  LatencyModel m{Duration::millis(3), 1e6};  // 3ms seek, 1MB/s
  EXPECT_EQ(m.cost(0), Duration::millis(3));
  EXPECT_EQ(m.cost(1'000'000), Duration::millis(3) + Duration::seconds(1));
  EXPECT_EQ(LatencyModel::none().cost(1 << 20), Duration::nanos(0));
}

TEST(LatencyModel, EnterpriseDiskMatchesPaper) {
  // §5: "3-4ms+ latencies for individual block disk access".
  LatencyModel m = LatencyModel::enterprise_disk_2008();
  double ms = m.cost(4096).to_seconds_f() * 1e3;
  EXPECT_GE(ms, 3.0);
  EXPECT_LE(ms, 4.0);
}

TEST(MemBlockDevice, ReadWriteRoundTrip) {
  MemBlockDevice dev(64, 4);
  Bytes block(64, 0xcd);
  dev.write_block(2, block);
  Bytes out;
  dev.read_block(2, out);
  EXPECT_EQ(out, block);
  // Untouched blocks read as zeros.
  dev.read_block(0, out);
  EXPECT_EQ(out, Bytes(64, 0));
}

TEST(MemBlockDevice, BoundsAndSizeChecks) {
  MemBlockDevice dev(64, 4);
  Bytes out;
  EXPECT_THROW(dev.read_block(4, out), common::StorageError);
  EXPECT_THROW(dev.write_block(0, Bytes(63, 0)), common::PreconditionError);
  EXPECT_THROW(dev.write_block(0, Bytes(65, 0)), common::PreconditionError);
}

TEST(MemBlockDevice, GrowExtends) {
  MemBlockDevice dev(64, 2);
  dev.grow(3);
  EXPECT_EQ(dev.block_count(), 5u);
  Bytes b(64, 1);
  EXPECT_NO_THROW(dev.write_block(4, b));
}

TEST(MemBlockDevice, StatsAccumulate) {
  MemBlockDevice dev(64, 4);
  Bytes b(64, 0);
  dev.write_block(0, b);
  dev.write_block(1, b);
  Bytes out;
  dev.read_block(0, out);
  EXPECT_EQ(dev.stats().writes, 2u);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().bytes_written, 128u);
  dev.reset_stats();
  EXPECT_EQ(dev.stats().writes, 0u);
}

TEST(MemBlockDevice, ChargesLatencyToClock) {
  common::SimClock clock;
  MemBlockDevice dev(4096, 4, &clock, LatencyModel{Duration::millis(2), 0});
  Bytes b(4096, 0);
  dev.write_block(0, b);
  EXPECT_EQ(clock.now(), common::SimTime::epoch() + Duration::millis(2));
}

TEST(FileBlockDevice, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/fbd.bin";
  std::remove(path.c_str());
  Bytes block(128, 0x7e);
  {
    FileBlockDevice dev(path, 128, 8);
    dev.write_block(5, block);
    dev.flush();
  }
  {
    FileBlockDevice dev(path, 128, 8);
    Bytes out;
    dev.read_block(5, out);
    EXPECT_EQ(out, block);
  }
  // A store that grew past the count it is reopened with keeps its blocks.
  Bytes last(128, 0x3c);
  {
    FileBlockDevice dev(path, 128, 8);
    dev.grow(4);
    dev.write_block(11, last);
    dev.flush();
  }
  {
    FileBlockDevice dev(path, 128, 8);
    EXPECT_EQ(dev.block_count(), 12u);
    Bytes out;
    dev.read_block(11, out);
    EXPECT_EQ(out, last);
    dev.read_block(5, out);
    EXPECT_EQ(out, block);
  }
}

TEST(FileBlockDevice, GrowAndBounds) {
  std::string path = ::testing::TempDir() + "/fbd2.bin";
  std::remove(path.c_str());
  FileBlockDevice dev(path, 128, 2);
  Bytes out;
  EXPECT_THROW(dev.read_block(2, out), common::StorageError);
  dev.grow(2);
  EXPECT_NO_THROW(dev.read_block(3, out));
}

TEST(RecordDescriptor, SerializationRoundTrip) {
  RecordDescriptor rd;
  rd.record_id = 42;
  rd.size = 1000;
  rd.blocks = {7, 8, 9};
  common::ByteWriter w;
  rd.serialize(w);
  common::ByteReader r(w.bytes());
  EXPECT_EQ(RecordDescriptor::deserialize(r), rd);
  r.expect_end();
}

TEST(RecordStore, WriteReadRoundTripVariousSizes) {
  MemBlockDevice dev(128, 64);
  RecordStore store(dev);
  crypto::Drbg rng(4);
  for (std::size_t size : {0u, 1u, 127u, 128u, 129u, 1000u}) {
    Bytes data = rng.bytes(size);
    RecordDescriptor rd = store.write(data);
    EXPECT_EQ(rd.size, size);
    EXPECT_EQ(store.read(rd), data) << "size=" << size;
  }
}

TEST(RecordStore, GrowsDeviceWhenFull) {
  MemBlockDevice dev(128, 1);
  RecordStore store(dev);
  crypto::Drbg rng(5);
  for (int i = 0; i < 50; ++i) {
    Bytes data = rng.bytes(300);
    RecordDescriptor rd = store.write(data);
    EXPECT_EQ(store.read(rd), data);
  }
  EXPECT_GT(dev.block_count(), 1u);
}

TEST(RecordStore, ShredRecyclesBlocks) {
  MemBlockDevice dev(128, 8);
  RecordStore store(dev);
  crypto::Drbg rng(6);
  RecordDescriptor rd = store.write(Bytes(300, 0xaa));  // 3 blocks
  EXPECT_EQ(store.free_blocks(), 0u);
  store.shred(rd, ShredPolicy::kZeroFill, rng);
  EXPECT_EQ(store.free_blocks(), 3u);
  // New writes reuse the freed blocks.
  RecordDescriptor rd2 = store.write(Bytes(300, 0xbb));
  EXPECT_EQ(store.free_blocks(), 0u);
  EXPECT_EQ(rd2.blocks, rd.blocks);
}

TEST(RecordStore, ZeroFillLeavesZeros) {
  // kCryptoShred destroys no key; it is one zero pass, like kZeroFill.
  for (ShredPolicy policy :
       {ShredPolicy::kZeroFill, ShredPolicy::kCryptoShred}) {
    MemBlockDevice dev(128, 8);
    RecordStore store(dev);
    crypto::Drbg rng(7);
    RecordDescriptor rd = store.write(Bytes(300, 0xaa));  // 3 blocks
    store.shred(rd, policy, rng);
    for (std::uint64_t b : rd.blocks) {
      EXPECT_EQ(dev.raw_block(b), Bytes(128, 0)) << to_string(policy);
    }
    EXPECT_EQ(store.free_blocks(), 3u) << to_string(policy);
  }
}

TEST(RecordStore, RandomPassLeavesNoise) {
  MemBlockDevice dev(128, 8);
  RecordStore store(dev);
  crypto::Drbg rng(8);
  RecordDescriptor rd = store.write(Bytes(128, 0xaa));
  store.shred(rd, ShredPolicy::kRandom7Pass, rng);
  const Bytes& raw = dev.raw_block(rd.blocks[0]);
  EXPECT_NE(raw, Bytes(128, 0xaa));
  EXPECT_NE(raw, Bytes(128, 0x00));
}

TEST(RecordStore, ShredNonePreservesBytes) {
  // kNone frees blocks without destruction — the weakest policy; the bytes
  // remain (this is why regulated attrs should never choose it).
  MemBlockDevice dev(128, 8);
  RecordStore store(dev);
  crypto::Drbg rng(9);
  RecordDescriptor rd = store.write(Bytes(128, 0xaa));
  store.shred(rd, ShredPolicy::kNone, rng);
  EXPECT_EQ(dev.raw_block(rd.blocks[0]), Bytes(128, 0xaa));
  EXPECT_EQ(store.free_blocks(), 1u);
}

TEST(RecordStore, WriteChargesDiskLatency) {
  common::SimClock clock;
  MemBlockDevice dev(4096, 64, &clock,
                     LatencyModel::enterprise_disk_2008());
  RecordStore store(dev);
  common::SimTime t0 = clock.now();
  (void)store.write(Bytes(8192, 0x11));  // two blocks; only the cost matters
  double ms = (clock.now() - t0).to_seconds_f() * 1e3;
  EXPECT_GE(ms, 7.0);  // 2 seeks at 3.5ms + transfer
}

TEST(ShredPolicyNames, AllNamed) {
  EXPECT_STREQ(to_string(ShredPolicy::kNone), "none");
  EXPECT_STREQ(to_string(ShredPolicy::kZeroFill), "zero-fill");
  EXPECT_STREQ(to_string(ShredPolicy::kNist3Pass), "nist-3-pass");
  EXPECT_STREQ(to_string(ShredPolicy::kRandom7Pass), "random-7-pass");
  EXPECT_STREQ(to_string(ShredPolicy::kCryptoShred), "crypto-shred");
}

}  // namespace
}  // namespace worm::storage
