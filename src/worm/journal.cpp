#include "worm/journal.hpp"

#include <cstdio>
#include <filesystem>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"

namespace worm::core {

using common::ByteReader;
using common::Bytes;
using common::ByteView;
using common::ByteWriter;
using common::FaultKind;

namespace {

Bytes encode_frame(JournalRecordType type, ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(common::crc32c(payload));
  return w.take();
}

/// The record kinds a journal may hold; retired values are damage.
bool live_type(std::uint8_t type) {
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kIntent:
    case JournalRecordType::kComplete:
    case JournalRecordType::kPutDeleted:
    case JournalRecordType::kTrimBelow:
    case JournalRecordType::kCheckpoint:
    case JournalRecordType::kQueuedWrite:
      return true;
  }
  return false;
}

}  // namespace

HostJournal::HostJournal(std::string path, common::FaultInjector* fault)
    : path_(std::move(path)), fault_(fault) {
  if (!enabled()) return;
  common::MutexLock lk(mu_);
  open_for_append();
}

void HostJournal::open_for_append() {
  out_.open(path_, std::ios::binary | std::ios::app);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (!out_ || ec) {
    throw common::StorageError("cannot open journal: " + path_);
  }
  end_ = size;
  torn_ = false;
}

void HostJournal::cut_torn_tail() {
  out_.close();
  std::error_code ec;
  std::filesystem::resize_file(path_, end_, ec);
  if (ec) {
    throw common::StorageError("cannot cut journal back to its last frame: " +
                               path_);
  }
  open_for_append();
}

void HostJournal::append(JournalRecordType type, ByteView payload) {
  if (!enabled()) return;
  Bytes frame = encode_frame(type, payload);
  common::MutexLock lk(mu_);
  // A frame appended behind a partial one would be invisible to replay.
  if (torn_) cut_torn_tail();
  switch (WORM_FAULT_POINT(fault_, "journal.append")) {
    case FaultKind::kTransient:
      // The write never reached the disk at all.
      throw common::TransientStorageError("journal append failed (injected)");
    case FaultKind::kTorn: {
      // Power cut mid-write: half a frame lands, then the host "crashes".
      torn_ = true;
      std::size_t half = frame.size() / 2;
      out_.write(reinterpret_cast<const char*>(frame.data()),
                 static_cast<std::streamsize>(half));
      out_.flush();
      throw common::TransientStorageError("journal append torn (injected)");
    }
    default:
      break;
  }
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    torn_ = true;
    throw common::StorageError("journal write failed: " + path_);
  }
  end_ += frame.size();
}

HostJournal::ReplayResult HostJournal::replay() {
  ReplayResult result;
  if (!enabled()) return result;
  common::MutexLock lk(mu_);
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return result;  // no journal yet: clean empty store
  // One sized read: a byte-wise stream iterator took most of a boot's
  // replay time.
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  data.resize(static_cast<std::size_t>(in.gcount()));
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Header: u8 type + u32 len.
    if (data.size() - pos < 5) break;
    std::uint8_t type = data[pos];
    std::uint32_t len = static_cast<std::uint32_t>(data[pos + 1]) |
                        static_cast<std::uint32_t>(data[pos + 2]) << 8 |
                        static_cast<std::uint32_t>(data[pos + 3]) << 16 |
                        static_cast<std::uint32_t>(data[pos + 4]) << 24;
    std::size_t body = pos + 5;
    if (!live_type(type)) break;  // garbage header, or a retired kind
    if (data.size() - body < static_cast<std::size_t>(len) + 4) break;
    Bytes payload(data.begin() + static_cast<std::ptrdiff_t>(body),
                  data.begin() + static_cast<std::ptrdiff_t>(body + len));
    std::size_t crc_at = body + len;
    std::uint32_t crc = static_cast<std::uint32_t>(data[crc_at]) |
                        static_cast<std::uint32_t>(data[crc_at + 1]) << 8 |
                        static_cast<std::uint32_t>(data[crc_at + 2]) << 16 |
                        static_cast<std::uint32_t>(data[crc_at + 3]) << 24;
    if (common::crc32c(payload) != crc) break;  // damaged frame
    result.records.push_back(
        {static_cast<JournalRecordType>(type), std::move(payload)});
    pos = crc_at + 4;
  }
  if (pos < data.size()) {
    result.torn_tail = true;
    result.torn_bytes = data.size() - pos;
    // Whatever follows the clean prefix is lost to every replay: the next
    // append cuts it off instead of landing behind it.
    end_ = pos;
    torn_ = true;
  }
  return result;
}

void HostJournal::rewrite(const std::vector<JournalRecord>& records) {
  if (!enabled()) return;
  common::MutexLock lk(mu_);
  out_.close();
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream fresh(tmp, std::ios::binary | std::ios::trunc);
    if (!fresh) {
      throw common::StorageError("cannot open journal temp: " + tmp);
    }
    for (const JournalRecord& rec : records) {
      Bytes frame = encode_frame(rec.type, rec.payload);
      fresh.write(reinterpret_cast<const char*>(frame.data()),
                  static_cast<std::streamsize>(frame.size()));
    }
    fresh.flush();
    if (!fresh) {
      throw common::StorageError("journal rewrite failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw common::StorageError("journal rename failed: " + path_);
  }
  open_for_append();
}

}  // namespace worm::core
