// Unit tests for the common substrate: bytes/hex, serialization round-trips,
// the simulated clock's alarm semantics (the retention monitor's engine),
// and the one file type the host's storage goes through.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/file.hpp"
#include "common/serial.hpp"
#include "common/sim_clock.hpp"

namespace worm::common {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(b), "0001abff");
  EXPECT_EQ(hex_decode("0001abff"), b);
  EXPECT_EQ(hex_decode("0001ABFF"), b);
}

TEST(Bytes, HexDecodeRejectsBadInput) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);    // bad digit
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(hex_encode(Bytes{}), "");
  EXPECT_TRUE(hex_decode("").empty());
}

TEST(Bytes, CtEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, StringConversions) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Serial, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serial, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  Bytes expected = {0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(Serial, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob(to_bytes("payload"));
  w.str("name");
  ByteReader r(w.bytes());
  EXPECT_EQ(to_string(r.blob()), "payload");
  EXPECT_EQ(r.str(), "name");
  r.expect_end();
}

TEST(Serial, TruncationThrows) {
  ByteWriter w;
  w.u32(7);
  Bytes data = w.bytes();
  data.pop_back();
  ByteReader r(data);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(Serial, BlobLengthBeyondBufferThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  ByteReader r(w.bytes());
  EXPECT_THROW(r.blob(), ParseError);
}

TEST(Serial, TrailingBytesDetected) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), ParseError);
}

TEST(Serial, InvalidBooleanThrows) {
  Bytes data = {2};
  ByteReader r(data);
  EXPECT_THROW(r.boolean(), ParseError);
}

TEST(SimClock, StartsAtEpoch) {
  SimClock clock;
  EXPECT_EQ(clock.now(), SimTime::epoch());
}

TEST(SimClock, ChargeMovesTimeWithoutDispatch) {
  SimClock clock;
  int fired = 0;
  clock.schedule_after(Duration::seconds(1), [&] { ++fired; });
  clock.charge(Duration::seconds(5));
  EXPECT_EQ(fired, 0);  // charge never dispatches
  clock.dispatch_due();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.total_charged(), Duration::seconds(5));
}

TEST(SimClock, AlarmsFireInTimestampOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.schedule_after(Duration::seconds(3), [&] { order.push_back(3); });
  clock.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  clock.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  clock.advance(Duration::seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimClock, EqualTimestampsFifo) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.schedule_after(Duration::seconds(1), [&order, i] { order.push_back(i); });
  }
  clock.advance(Duration::seconds(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClock, CallbackObservesScheduledTime) {
  SimClock clock;
  SimTime seen{};
  clock.schedule_after(Duration::seconds(7), [&] { seen = clock.now(); });
  clock.advance(Duration::seconds(100));
  EXPECT_EQ(seen, SimTime::epoch() + Duration::seconds(7));
  EXPECT_EQ(clock.now(), SimTime::epoch() + Duration::seconds(100));
}

TEST(SimClock, CancelPreventsFiring) {
  SimClock clock;
  int fired = 0;
  AlarmId id = clock.schedule_after(Duration::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(clock.cancel(id));
  EXPECT_FALSE(clock.cancel(id));  // second cancel reports already-gone
  clock.advance(Duration::seconds(2));
  EXPECT_EQ(fired, 0);
}

TEST(SimClock, CallbackMayReschedule) {
  SimClock clock;
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired < 3) clock.schedule_after(Duration::seconds(1), tick);
  };
  clock.schedule_after(Duration::seconds(1), tick);
  clock.advance(Duration::seconds(10));
  EXPECT_EQ(fired, 3);
}

TEST(SimClock, NextAlarmReporting) {
  SimClock clock;
  EXPECT_EQ(clock.next_alarm(), SimTime::max());
  clock.schedule_after(Duration::seconds(4), [] {});
  clock.schedule_after(Duration::seconds(2), [] {});
  EXPECT_EQ(clock.next_alarm(), SimTime::epoch() + Duration::seconds(2));
}

TEST(SimClock, AdvanceToPastIsNoOp) {
  SimClock clock;
  clock.advance(Duration::seconds(5));
  clock.advance_to(SimTime::epoch() + Duration::seconds(1));
  EXPECT_EQ(clock.now(), SimTime::epoch() + Duration::seconds(5));
}

TEST(Duration, ArithmeticAndConversions) {
  EXPECT_EQ(Duration::minutes(2).ns, 120'000'000'000);
  EXPECT_EQ(Duration::years(20).ns, 20ll * 365 * 24 * 3600 * 1'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds_f(), 1.5);
  EXPECT_EQ(Duration::from_seconds_f(0.25), Duration::millis(250));
  EXPECT_EQ(Duration::seconds(3) * 4, Duration::seconds(12));
}

/// A path under the gtest temp dir, with nothing there yet.
std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// The message of the StorageError `fn` throws, or "" when it throws none.
template <typename Fn>
std::string storage_error(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const StorageError& e) {
    return e.what();
  }
  return "";
}

TEST(File, ReadsAndWritesAtOffsets) {
  const std::string path = fresh_path("file_offsets.bin");
  File file(path, File::Mode::kCreate);
  file.write_at(0, to_bytes("hello"));
  file.write_at(8, to_bytes("world"));  // the gap reads as zeros
  EXPECT_EQ(file.size(), 13u);
  file.write_at(1, to_bytes("EL"));
  Bytes all(13);
  file.read_at(0, all);
  EXPECT_EQ(all, to_bytes(std::string("hELlo\0\0\0world", 13)));
  Bytes middle(4);
  file.read_at(7, middle);
  EXPECT_EQ(middle, to_bytes(std::string("\0wor", 4)));
  EXPECT_EQ(read_file(path), all);
}

TEST(File, ReadPastTheEndThrowsAndNamesTheFile) {
  const std::string path = fresh_path("file_short.bin");
  File file(path, File::Mode::kCreate);
  file.write_at(0, to_bytes("abc"));
  Bytes four(4);
  EXPECT_NE(storage_error([&] { file.read_at(0, four); }).find(path),
            std::string::npos);
  Bytes one(1);
  EXPECT_THROW(file.read_at(3, one), StorageError);
  file.read_at(2, one);
  EXPECT_EQ(one, to_bytes("c"));
}

TEST(File, ResizeCutsAndExtends) {
  const std::string path = fresh_path("file_resize.bin");
  File file(path, File::Mode::kCreate);
  file.write_at(0, to_bytes("abcdef"));
  file.resize(2);
  EXPECT_EQ(file.size(), 2u);
  EXPECT_EQ(read_file(path), to_bytes("ab"));
  file.resize(4);
  EXPECT_EQ(read_file(path), to_bytes(std::string("ab\0\0", 4)));
}

TEST(File, WriteAfterRenameLandsUnderTheNewName) {
  const std::string from = fresh_path("file_rename_from.bin");
  const std::string to = fresh_path("file_rename_to.bin");
  write_file(to, to_bytes("replaced"));
  File file(from, File::Mode::kCreate);
  file.write_at(0, to_bytes("one"));
  file.rename_to(to);
  EXPECT_EQ(file.path(), to);
  file.write_at(3, to_bytes("two"));
  EXPECT_EQ(read_file(to), to_bytes("onetwo"));
  EXPECT_THROW((void)read_file(from), StorageError);
}

TEST(File, ExistingModeOnAMissingPathThrows) {
  const std::string path = fresh_path("file_missing.bin");
  EXPECT_NE(storage_error([&] { File(path, File::Mode::kExisting); })
                .find(path),
            std::string::npos);
  EXPECT_THROW((void)read_file(path), StorageError);
  File(path, File::Mode::kCreate).write_at(0, to_bytes("now"));
  EXPECT_EQ(File(path, File::Mode::kExisting).size(), 3u);
}

TEST(File, TruncateEmptiesWhatCreateKeeps) {
  const std::string path = fresh_path("file_truncate.bin");
  write_file(path, to_bytes("old contents"));
  EXPECT_EQ(File(path, File::Mode::kCreate).size(), 12u);
  EXPECT_EQ(File(path, File::Mode::kTruncate).size(), 0u);
  EXPECT_TRUE(read_file(path).empty());
}

TEST(File, MovedFromFileClosesNothing) {
  const std::string path = fresh_path("file_moved.bin");
  std::optional<File> source(std::in_place, path, File::Mode::kCreate);
  File moved(std::move(*source));
  source.reset();  // had it closed the descriptor, the write below fails
  moved.write_at(0, to_bytes("still open"));
  EXPECT_EQ(read_file(path), to_bytes("still open"));

  const std::string other_path = fresh_path("file_moved_other.bin");
  File other(other_path, File::Mode::kCreate);
  other = std::move(moved);  // closes other's own descriptor, takes moved's
  other.write_at(0, to_bytes("STILL"));
  EXPECT_EQ(other.path(), path);
  EXPECT_EQ(read_file(path), to_bytes("STILL open"));
  EXPECT_TRUE(read_file(other_path).empty());
}

}  // namespace
}  // namespace worm::common
