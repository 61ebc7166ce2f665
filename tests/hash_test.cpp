// Hash-layer tests: FIPS/RFC known-answer vectors for SHA-1/SHA-256/HMAC
// and CRC-32C, streaming-vs-oneshot and backend-vs-reference equivalence
// sweeps, and the incremental constructs (chained hash, AdHash multiset)
// the datasig relies on.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/crc32c.hpp"
#include "crypto/chained_hash.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/mset_hash.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"

namespace worm::crypto {
namespace {

using common::Bytes;
using common::hex_encode;
using common::to_bytes;

template <typename D>
std::string hexd(const D& d) {
  return hex_encode(common::ByteView(d.data(), d.size()));
}

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(hexd(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hexd(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hexd(Sha256::hash(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hexd(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEveryBoundary) {
  Drbg rng(20);
  Bytes data = rng.bytes(300);
  Sha256::Digest expected = Sha256::hash(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.update(common::ByteView(data.data(), split));
    h.update(common::ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finalize(), expected) << "split=" << split;
  }
}

TEST(Sha256, LengthsAroundBlockBoundary) {
  // Regression guard for the padding logic: every length 0..130 hashed both
  // one-shot and byte-at-a-time must agree.
  for (std::size_t len = 0; len <= 130; ++len) {
    Bytes data(len, 0x5a);
    Sha256 h;
    for (std::uint8_t b : data) h.update(common::ByteView(&b, 1));
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "len=" << len;
  }
}

TEST(Sha256, ReusableAfterFinalize) {
  Sha256 h;
  h.update(to_bytes("abc"));
  auto first = h.finalize();
  h.update(to_bytes("abc"));
  EXPECT_EQ(h.finalize(), first);
}

// Restores kAuto dispatch even when a test body throws/fails mid-way, so a
// failing backend test can't poison every test after it.
struct BackendGuard {
  ~BackendGuard() { Sha256::force_backend(Sha256Backend::kAuto); }
};

TEST(Sha256, BackendsAgreeAtEveryShortLength) {
  // Differential fuzz: the accelerated backends must be bit-identical to the
  // portable reference at every length spanning the padding edge cases
  // (0..257 covers 0/1/2 blocks plus both padding branches). force_backend
  // falls back to the best supported path on hosts without SHA-NI, so the
  // kShaNi leg degrades to re-checking the fallback rather than crashing.
  BackendGuard guard;
  Drbg rng(23);
  for (Sha256Backend b : {Sha256Backend::kShaNi, Sha256Backend::kScalar}) {
    for (std::size_t len = 0; len <= 257; ++len) {
      Bytes data = rng.bytes(len);
      Sha256::force_backend(Sha256Backend::kPortable);
      Sha256::Digest want = Sha256::hash(data);
      Sha256::force_backend(b);
      EXPECT_EQ(Sha256::hash(data), want)
          << "backend=" << static_cast<int>(b) << " len=" << len;
    }
  }
}

TEST(Sha256, BackendsAgreeOnMultiMegabyteInput) {
  // A long input exercises the many-blocks-per-call loop (the short-length
  // sweep never feeds more than 5 blocks at once).
  BackendGuard guard;
  Drbg rng(24);
  Bytes data = rng.bytes(3 * 1024 * 1024 + 17);
  Sha256::force_backend(Sha256Backend::kPortable);
  Sha256::Digest want = Sha256::hash(data);
  for (Sha256Backend b : {Sha256Backend::kShaNi, Sha256Backend::kScalar}) {
    Sha256::force_backend(b);
    EXPECT_EQ(Sha256::hash(data), want) << "backend=" << static_cast<int>(b);
    // Streaming through the same backend at awkward split points.
    Sha256 h;
    std::size_t off = 0;
    for (std::size_t chunk : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{4096}}) {
      h.update(common::ByteView(data.data() + off, chunk));
      off += chunk;
    }
    h.update(common::ByteView(data.data() + off, data.size() - off));
    EXPECT_EQ(h.finalize(), want) << "backend=" << static_cast<int>(b);
  }
}

TEST(Sha256, Hash4MatchesFourSingleHashes) {
  // The 4-lane interface must be bit-identical to four independent hashes,
  // including unequal lane lengths and an empty lane.
  Drbg rng(25);
  Bytes lanes[4] = {rng.bytes(0), rng.bytes(57), rng.bytes(4096),
                    rng.bytes(70001)};
  common::ByteView in[4] = {lanes[0], lanes[1], lanes[2], lanes[3]};
  Sha256::Digest out[4];
  Sha256::hash4(in, out);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], Sha256::hash(lanes[i])) << "lane=" << i;
  }
}

TEST(Sha256, Hash4AgreesAcrossBackends) {
  BackendGuard guard;
  Drbg rng(26);
  Bytes lanes[4] = {rng.bytes(100), rng.bytes(200), rng.bytes(300),
                    rng.bytes(400)};
  common::ByteView in[4] = {lanes[0], lanes[1], lanes[2], lanes[3]};
  Sha256::force_backend(Sha256Backend::kPortable);
  Sha256::Digest want[4];
  Sha256::hash4(in, want);
  for (Sha256Backend b : {Sha256Backend::kShaNi, Sha256Backend::kScalar}) {
    Sha256::force_backend(b);
    Sha256::Digest got[4];
    Sha256::hash4(in, got);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(got[i], want[i])
          << "backend=" << static_cast<int>(b) << " lane=" << i;
    }
  }
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 §B.4's four 32-byte vectors plus the customary check value,
  // through the dispatched kernel and the portable reference alike.
  Bytes inc(32), dec(32);
  for (std::size_t i = 0; i < 32; ++i) {
    inc[i] = static_cast<std::uint8_t>(i);
    dec[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::pair<Bytes, std::uint32_t> vectors[] = {
      {Bytes(32, 0x00), 0x8A9136AAu}, {Bytes(32, 0xFF), 0x62A8AB43u},
      {inc, 0x46DD794Eu},             {dec, 0x113FDB5Cu},
      {to_bytes("123456789"), 0xE3069283u}, {Bytes{}, 0x00000000u}};
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(common::crc32c(data), want) << hex_encode(data);
    EXPECT_EQ(common::crc32c_portable(data), want) << hex_encode(data);
  }
}

TEST(Crc32c, HardwareMatchesPortableAtEveryShortLengthAndOffset) {
  // Lengths 0..257 cover the 8-byte loop with every tail length; starts
  // 0..7 put its 8-byte loads at every alignment. On a host without SSE4.2
  // both sides run the portable loop and the sweep re-checks it.
  RecordProperty("crc32c_hardware", common::crc32c_hardware() ? 1 : 0);
  Drbg rng(27);
  const Bytes buf = rng.bytes(257 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const common::ByteView v(buf.data() + off, len);
      EXPECT_EQ(common::crc32c(v), common::crc32c_portable(v))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32c, HardwareMatchesPortableOnMultiMegabyteInput) {
  Drbg rng(28);
  const Bytes data = rng.bytes(3 * 1024 * 1024 + 17);
  EXPECT_EQ(common::crc32c(data), common::crc32c_portable(data));
  const common::ByteView unaligned = common::ByteView(data).subspan(3);
  EXPECT_EQ(common::crc32c(unaligned), common::crc32c_portable(unaligned));
}

TEST(Crc32c, ExtendOverPiecesEqualsTheWholeMessage) {
  // A streamed journal frame is checksummed piece by piece: every split of
  // a message, including empty pieces, must give the one-shot value.
  Drbg rng(29);
  const Bytes data = rng.bytes(1000);
  const common::ByteView all(data);
  const std::uint32_t want = common::crc32c(all);
  EXPECT_EQ(common::crc32c_extend(0, all), want);
  for (std::size_t cut : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const std::uint32_t head = common::crc32c(all.first(cut));
    EXPECT_EQ(common::crc32c_extend(head, all.subspan(cut)), want)
        << "cut=" << cut;
  }
  std::uint32_t running = 0;
  for (std::size_t at = 0; at < data.size(); at += 37) {
    running = common::crc32c_extend(
        running, all.subspan(at, std::min<std::size_t>(37, data.size() - at)));
  }
  EXPECT_EQ(running, want);
}

TEST(Sha1, FipsVectors) {
  EXPECT_EQ(hexd(Sha1::hash(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hexd(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hexd(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hexd(h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, LengthsAroundBlockBoundary) {
  for (std::size_t len = 0; len <= 130; ++len) {
    Bytes data(len, 0xa5);
    Sha1 h;
    for (std::uint8_t b : data) h.update(common::ByteView(&b, 1));
    EXPECT_EQ(h.finalize(), Sha1::hash(data)) << "len=" << len;
  }
}

TEST(HmacSha256, Rfc4231Vectors) {
  // Test case 1
  Bytes key1(20, 0x0b);
  EXPECT_EQ(hexd(HmacSha256::mac(key1, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2
  EXPECT_EQ(
      hexd(HmacSha256::mac(to_bytes("Jefe"),
                           to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 3: key 0xaa x20, data 0xdd x50
  Bytes key3(20, 0xaa);
  Bytes data3(50, 0xdd);
  EXPECT_EQ(hexd(HmacSha256::mac(key3, data3)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedDown) {
  // RFC 4231 test case 6: 131-byte key.
  Bytes key(131, 0xaa);
  EXPECT_EQ(
      hexd(HmacSha256::mac(key, to_bytes("Test Using Larger Than Block-Siz"
                                         "e Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  Bytes data = to_bytes("payload");
  auto m1 = HmacSha256::mac(to_bytes("key-1"), data);
  auto m2 = HmacSha256::mac(to_bytes("key-2"), data);
  EXPECT_NE(m1, m2);
}

TEST(HmacSha256, StreamingMatchesOneShot) {
  Drbg rng(21);
  Bytes key = rng.bytes(32);
  Bytes data = rng.bytes(200);
  HmacSha256 h(key);
  h.update(common::ByteView(data.data(), 100));
  h.update(common::ByteView(data.data() + 100, 100));
  EXPECT_EQ(h.finalize(), HmacSha256::mac(key, data));
}

TEST(ChainedHash, OrderSensitive) {
  ChainedHash a, b;
  a.add(to_bytes("one"));
  a.add(to_bytes("two"));
  b.add(to_bytes("two"));
  b.add(to_bytes("one"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ChainedHash, BoundaryUnambiguous) {
  // ("ab","c") must differ from ("a","bc") — the length framing matters.
  ChainedHash a, b;
  a.add(to_bytes("ab"));
  a.add(to_bytes("c"));
  b.add(to_bytes("a"));
  b.add(to_bytes("bc"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(ChainedHash, DeterministicAndCountTracked) {
  ChainedHash a, b;
  for (int i = 0; i < 5; ++i) {
    Bytes seg = to_bytes("segment-" + std::to_string(i));
    a.add(seg);
    b.add(seg);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.segments(), 5u);
  EXPECT_EQ(ChainedHash().segments(), 0u);
}

TEST(ChainedHash, OneShotMatchesIncremental) {
  std::vector<Bytes> segs = {to_bytes("x"), to_bytes("yy"), to_bytes("zzz")};
  ChainedHash c;
  for (const auto& s : segs) c.add(s);
  EXPECT_EQ(ChainedHash::over(segs), c.digest());
}

TEST(ChainedHash, OverManyMatchesSequential) {
  // over_many runs up to four chains through the 4-lane hasher; each digest
  // must match the single-chain result even when the lists have unequal
  // segment counts (chains drop out of the lane group as they finish) and
  // when more than four lists force multiple groups.
  Drbg rng(27);
  std::vector<std::vector<Bytes>> lists(7);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    std::size_t nsegs = i;  // 0..6 segments — includes an empty list
    for (std::size_t s = 0; s < nsegs; ++s) {
      lists[i].push_back(rng.bytes(rng.uniform(200)));
    }
  }
  std::vector<const std::vector<Bytes>*> ptrs;
  for (const auto& l : lists) ptrs.push_back(&l);
  std::vector<Sha256::Digest> got = ChainedHash::over_many(ptrs);
  ASSERT_EQ(got.size(), lists.size());
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(got[i], ChainedHash::over(lists[i])) << "list=" << i;
  }
}

TEST(MsetHash, OrderInsensitive) {
  MsetHash a, b;
  a.add(to_bytes("one"));
  a.add(to_bytes("two"));
  b.add(to_bytes("two"));
  b.add(to_bytes("one"));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MsetHash, RemoveUndoesAdd) {
  MsetHash a;
  a.add(to_bytes("keep"));
  MsetHash b = a;
  b.add(to_bytes("transient"));
  b.remove(to_bytes("transient"));
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(b.size(), 1u);
}

TEST(MsetHash, MultiplicityMatters) {
  MsetHash once, twice;
  once.add(to_bytes("x"));
  twice.add(to_bytes("x"));
  twice.add(to_bytes("x"));
  EXPECT_NE(once.digest(), twice.digest());
}

TEST(MsetHash, EmptyDigestStable) {
  EXPECT_EQ(MsetHash().digest(), MsetHash().digest());
  EXPECT_EQ(MsetHash().digest().size(), MsetHash::kBits / 8);
}

TEST(MsetHash, RandomPermutationProperty) {
  Drbg rng(22);
  std::vector<Bytes> elems;
  for (int i = 0; i < 20; ++i) elems.push_back(rng.bytes(16));
  MsetHash forward;
  for (const auto& e : elems) forward.add(e);
  // Insert in a shuffled order.
  MsetHash shuffled;
  std::vector<std::size_t> idx(elems.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.uniform(i)]);
  }
  for (std::size_t i : idx) shuffled.add(elems[i]);
  EXPECT_EQ(forward.digest(), shuffled.digest());
}

}  // namespace
}  // namespace worm::crypto
