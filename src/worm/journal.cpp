#include "worm/journal.hpp"

#include <algorithm>
#include <utility>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"

namespace worm::core {

using common::Bytes;
using common::ByteView;
using common::ByteWriter;
using common::FaultKind;

namespace {

// u8 type + u32 payload length ahead of the payload, u32 CRC-32C behind it.
constexpr std::uint64_t kFrameHeader = 5;
constexpr std::uint64_t kFrameOverhead = kFrameHeader + 4;

Bytes encode_frame(JournalRecordType type, ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(common::crc32c(payload));
  return w.take();
}

Bytes le_u32(std::uint32_t v) {
  ByteWriter w;
  w.u32(v);
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
  file_ = common::File(path_, common::File::Mode::kCreate);
  end_ = file_.size();
}

void HostJournal::append(JournalRecordType type, ByteView payload,
                         std::span<const std::uint64_t> qids) {
  if (!enabled()) return;
  Bytes frame = encode_frame(type, payload);
  common::MutexLock lk(mu_);
  // A frame appended behind a partial one would be invisible to replay.
  if (torn_) {
    file_.resize(end_);
    torn_ = false;
  }
  switch (WORM_FAULT_POINT(fault_, "journal.append")) {
    case FaultKind::kTransient:
      // The write never reached the disk at all.
      throw common::TransientStorageError("journal append failed (injected)");
    case FaultKind::kTorn:
      // Power cut mid-write: half a frame lands, then the host "crashes".
      torn_ = true;
      file_.write_at(end_, ByteView(frame).first(frame.size() / 2));
      throw common::TransientStorageError("journal append torn (injected)");
    default:
      break;
  }
  // Until the whole frame is in, what lies past end_ is a partial frame.
  torn_ = true;
  file_.write_at(end_, frame);
  torn_ = false;
  if (type == JournalRecordType::kQueuedWrite) {
    for (std::uint64_t qid : qids) admissions_[qid] = {end_, frame.size()};
  } else if (type == JournalRecordType::kIntent) {
    for (std::uint64_t qid : qids) admissions_.erase(qid);
  }
  end_ += frame.size();
  since_checkpoint_ += frame.size();
  stats_.appended_bytes += frame.size();
}

HostJournal::ReplayResult HostJournal::replay() {
  ReplayResult result;
  if (!enabled()) return result;
  common::MutexLock lk(mu_);
  Bytes data(file_.size());
  file_.read_at(0, data);
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Header: u8 type + u32 len.
    if (data.size() - pos < kFrameHeader) break;
    std::uint8_t type = data[pos];
    std::uint32_t len = static_cast<std::uint32_t>(data[pos + 1]) |
                        static_cast<std::uint32_t>(data[pos + 2]) << 8 |
                        static_cast<std::uint32_t>(data[pos + 3]) << 16 |
                        static_cast<std::uint32_t>(data[pos + 4]) << 24;
    std::size_t body = pos + kFrameHeader;
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
        {static_cast<JournalRecordType>(type), std::move(payload), pos});
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

void HostJournal::keep_admission(std::uint64_t qid,
                                 const JournalRecord& record) {
  common::MutexLock lk(mu_);
  admissions_[qid] = {record.offset, kFrameOverhead + record.payload.size()};
}

bool HostJournal::checkpoint_due() const {
  if (!enabled()) return false;
  common::MutexLock lk(mu_);
  return since_checkpoint_ >= std::max(kCheckpointFloorBytes,
                                       checkpoint_bytes_);
}

HostJournal::Stats HostJournal::stats() const {
  common::MutexLock lk(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

HostJournal::FrameSink::FrameSink(std::string path,
                                  common::FaultInjector* fault)
    : file_(std::move(path), common::File::Mode::kTruncate), fault_(fault) {}

void HostJournal::FrameSink::begin(JournalRecordType type) {
  frame_at_ = size_;
  frame_len_ = 0;
  crc_ = 0;
  const std::uint8_t header[kFrameHeader] = {static_cast<std::uint8_t>(type),
                                             0, 0, 0, 0};
  raw(header);  // end() patches the length in
}

void HostJournal::FrameSink::write(ByteView piece) {
  raw(piece);
  crc_ = common::crc32c_extend(crc_, piece);
  frame_len_ += piece.size();
  if (!std::exchange(probed_, true)) fault_point();
}

void HostJournal::FrameSink::end() {
  if (frame_len_ > UINT32_MAX) {
    throw common::StorageError("journal checkpoint frame too large: " +
                               file_.path());
  }
  file_.write_at(frame_at_ + 1,
                 le_u32(static_cast<std::uint32_t>(frame_len_)));
  raw(le_u32(crc_));
}

void HostJournal::FrameSink::frame(JournalRecordType type, ByteView payload) {
  begin(type);
  write(payload);
  end();
}

void HostJournal::FrameSink::raw(ByteView bytes) {
  file_.write_at(size_, bytes);
  size_ += bytes.size();
}

void HostJournal::FrameSink::fault_point() {
  if (WORM_FAULT_POINT(fault_, "journal.rewrite") != FaultKind::kNone) {
    throw common::TransientStorageError("journal checkpoint failed (injected)");
  }
}

std::map<std::uint64_t, HostJournal::Frame>
HostJournal::copy_admissions_locked(FrameSink& sink) {
  std::map<std::uint64_t, Frame> moved;
  Bytes frame;
  for (const auto& [qid, at] : admissions_) {
    frame.resize(at.size);
    file_.read_at(at.offset, frame);
    moved[qid] = {sink.size_, at.size};
    sink.raw(frame);
  }
  return moved;
}

void HostJournal::checkpoint(const std::function<void(FrameSink&)>& body) {
  if (!enabled()) return;
  const std::string tmp = path_ + ".tmp";
  bool opened = false;   // the temp file is ours to remove
  bool swapped = false;  // the rename made the checkpoint the journal
  try {
    FrameSink sink(tmp, fault_);
    opened = true;
    body(sink);
    // Admissions appended while the body streamed are in the journal file
    // now; from here to the rename none can land.
    common::MutexLock lk(mu_);
    std::map<std::uint64_t, Frame> moved = copy_admissions_locked(sink);
    sink.fault_point();  // every frame is in the temp file
    sink.fault_point();  // before the rename
    sink.file_.rename_to(path_);
    swapped = true;
    // The journal goes on with the checkpoint's descriptor; the replaced
    // file's closes here.
    file_ = std::move(sink.file_);
    end_ = sink.size_;
    torn_ = false;
    admissions_ = std::move(moved);
    checkpoint_bytes_ = sink.size_;
    since_checkpoint_ = 0;
    ++stats_.checkpoints;
    sink.fault_point();  // after the rename
  } catch (...) {
    if (opened && !swapped) common::remove_file(tmp);
    common::MutexLock lk(mu_);
    ++stats_.checkpoint_failures;
    throw;
  }
}

}  // namespace worm::core
