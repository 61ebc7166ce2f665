// Write-ahead journal for the host's soft state (§4.2.1 bookkeeping): what
// the host sent the SCPU and what the SCPU answered. The journal makes host
// crashes recoverable — WormStore::recover() replays it at startup, applying
// every journaled answer through the same fold a live crossing uses, and
// resends any journaled intent whose answer never landed (the device-side
// dedup cache makes the resend exactly-once).
//
// Like the VRDT itself, the journal lives on untrusted storage: it is a
// CRASH-consistency mechanism, not a trust anchor. An adversary can delete
// or rewrite it and gain nothing beyond unavailability — every verdict a
// client accepts is still backed by SCPU signatures.
//
// On-disk format: a sequence of frames, each
//     u8 type | u32 payload_len | payload bytes | u32 crc32c(payload)
// with the integers little-endian. A crash (or injected torn write) may
// leave a damaged tail; replay keeps the longest clean prefix and reports
// the rest as torn. A journal that goes on after a failed append, or after
// a replay that found a damaged tail, first cuts the file back to the end of
// its last whole frame, so no frame lands behind one that replay stops at.
//
// The journal stays bounded while the store serves: once the bytes appended
// since the last checkpoint reach the larger of kCheckpointFloorBytes and
// that checkpoint's size, the store replaces it with a fresh checkpoint
// (checkpoint()): the VRDT, the unanswered intents and every admission no
// intent has superseded yet. A boot then replays one checkpoint plus what
// followed it.
//
// The journal holds one descriptor (common::File) for its whole life and
// never reopens its file: an append writes its frame at the end of the last
// whole frame, a torn tail is cut with a resize, replay and the
// checkpoint's copy of the owed admissions read through the same
// descriptor, and a checkpoint's temp file, once renamed over the journal,
// is the descriptor the journal goes on with. Nothing here syncs: an append
// reaches the kernel, not the device.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/fault.hpp"
#include "common/file.hpp"

namespace worm::core {

/// Values 3, 5 and 6 are retired (per-effect records of an answer the host
/// applied); they are never reused, and replay treats a frame carrying one
/// as damage.
enum class JournalRecordType : std::uint8_t {
  /// A sequenced mailbox command is about to cross: u64 seq + blob(frame) +
  /// u32 n + n * u64 queued ids. The frame is the exact wire encoding —
  /// recovery resends it verbatim. The queued ids (none for anything but a
  /// write) name the kQueuedWrite admissions the crossing carries: one
  /// checksummed frame atomically supersedes them with a resendable intent,
  /// so a crash can never both resend AND re-execute a write.
  kIntent = 1,
  /// The device answered intent `seq`: u64 seq + boolean ok [+ blob of the
  /// answer's ok-payload, verbatim]; ok = false marks a device rejection.
  /// Appended before the answer is applied, in the same hold of the store
  /// lock; replay applies it to its intent's frame through the same fold.
  kComplete = 2,
  /// VRDT entry replaced by its deletion proof: serialized DeletionProof.
  kPutDeleted = 4,
  /// Everything below the device's signed base trimmed: u64 sn_base.
  kTrimBelow = 7,
  /// Full VRDT snapshot (exactly what Vrdt::serialize() writes); replay
  /// restarts from it. Each checkpoint() opens the journal with one,
  /// followed by a kIntent per unanswered intent and the kQueuedWrite of
  /// every admission no intent has superseded.
  kCheckpoint = 8,
  /// write_async admission (group-commit pipeline): u64 queued id +
  /// blob(serialized WriteRequest). Journaled before the completion ticket
  /// exists — the durability-before-ack point. A queued write no kIntent
  /// ever superseded is re-executed by recover().
  kQueuedWrite = 9,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kIntent;
  common::Bytes payload;
  std::uint64_t offset = 0;  // where replay found its frame in the file
};

/// The bytes appended since the last checkpoint that make the next one due:
/// the larger of this floor and that checkpoint's own size. So the journal
/// stays under about twice the live state plus the floor, and every
/// checkpoint is paid for by at least as many appended bytes as it writes.
inline constexpr std::uint64_t kCheckpointFloorBytes = 1u << 20;

/// Append-only journal file with checksummed frames and torn-tail-tolerant
/// replay. Internally synchronized: every call takes the journal's own
/// mutex, so write_async admissions append without the store lock. That
/// mutex is a leaf (DESIGN.md §7): nothing else is acquired under it but the
/// fault injector's. A pathless journal is a no-op sink so callers never
/// need to branch on "journaling enabled".
class HostJournal {
 public:
  /// Opens (creating if absent) the journal at `path` for appending; an
  /// empty path makes the no-op sink. `fault` (not owned, may be nullptr)
  /// arms the "journal.append" site: kTransient fails the append cleanly,
  /// kTorn writes a half frame first — exactly what a power cut mid-write
  /// leaves behind. It also arms "journal.rewrite" (see checkpoint()).
  explicit HostJournal(std::string path = {},
                       common::FaultInjector* fault = nullptr);

  HostJournal(const HostJournal&) = delete;
  HostJournal& operator=(const HostJournal&) = delete;

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Writes one frame behind the last whole one (to the kernel; no sync).
  /// Throws TransientStorageError when the injected fault fires; the frame
  /// may then be torn on disk until the next append, which first cuts the
  /// file back to the last whole frame this journal wrote. `qids` ties the
  /// frame to write_async admissions: a kQueuedWrite passes its own queued
  /// id, and every checkpoint carries its frame until a kIntent passes that
  /// id among the ones it supersedes.
  void append(JournalRecordType type, common::ByteView payload,
              std::span<const std::uint64_t> qids = {}) EXCLUDES(mu_);

  struct ReplayResult {
    std::vector<JournalRecord> records;  // the clean prefix, in append order
    bool torn_tail = false;              // damaged frame stopped the replay
    std::size_t torn_bytes = 0;          // bytes discarded past the prefix
  };

  /// Parses the on-disk frames. Never throws on damage — a torn or corrupt
  /// frame ends the replay and is reported, matching crash semantics. The
  /// next append then cuts the damaged tail off first, so a journal
  /// reopened over a torn frame (a crash mid-append) never appends behind
  /// it.
  [[nodiscard]] ReplayResult replay() EXCLUDES(mu_);

  /// Carries a replayed kQueuedWrite (`record`, admission `qid`) through
  /// checkpoints as if this journal had appended it. Recovery calls it for
  /// every admission no replayed intent superseded.
  void keep_admission(std::uint64_t qid, const JournalRecord& record)
      EXCLUDES(mu_);

  /// Where checkpoint() streams its frames: a temp file, each frame's
  /// length and CRC-32C computed as its payload goes by.
  class FrameSink {
   public:
    FrameSink(const FrameSink&) = delete;
    FrameSink& operator=(const FrameSink&) = delete;

    /// Starts a frame whose payload arrives through write(); end() writes
    /// its length and checksum.
    void begin(JournalRecordType type);
    void write(common::ByteView piece);
    void end();
    /// One whole frame.
    void frame(JournalRecordType type, common::ByteView payload);

   private:
    friend class HostJournal;
    FrameSink(std::string path, common::FaultInjector* fault);
    // Verbatim bytes at the end of the temp file: a frame header or CRC, or
    // an admission frame copied from the journal.
    void raw(common::ByteView bytes);
    // One evaluation of "journal.rewrite": any fired kind fails the
    // checkpoint there.
    void fault_point();

    // The temp file; the rename hands it to the journal.
    common::File file_;
    common::FaultInjector* const fault_;
    std::uint64_t size_ = 0;      // bytes in the temp file
    std::uint64_t frame_at_ = 0;  // where the open frame's header starts
    std::uint64_t frame_len_ = 0;
    std::uint32_t crc_ = 0;
    bool probed_ = false;  // the partway fault point has been evaluated
  };

  /// True once the bytes appended since the last checkpoint reach the
  /// larger of kCheckpointFloorBytes and that checkpoint's size.
  [[nodiscard]] bool checkpoint_due() const EXCLUDES(mu_);

  /// Replaces the journal with a checkpoint, through a temp file and a
  /// rename. `body` streams the checkpoint's own frames into the temp file
  /// without the journal lock, so appends go on meanwhile. Then, under the
  /// lock, the kQueuedWrite frame of every admission no intent has
  /// superseded is copied in verbatim, the temp file is renamed over the
  /// journal, and its descriptor becomes the journal's. One checkpoint at a
  /// time: the caller serializes them.
  /// On any failure, `body`'s own throw included, the temp file is
  /// removed, the journal goes on appending to the file it had, the failure
  /// is counted and the error is rethrown. "journal.rewrite" is evaluated
  /// at four points: once the first frame's first piece is in the temp
  /// file, once every frame is, before the rename and after it; any fired
  /// kind fails the checkpoint there.
  void checkpoint(const std::function<void(FrameSink&)>& body) EXCLUDES(mu_);

  struct Stats {
    std::uint64_t appended_bytes = 0;  // frames append() wrote, since open
    std::uint64_t checkpoints = 0;     // renamed over the journal
    std::uint64_t checkpoint_failures = 0;
  };
  [[nodiscard]] Stats stats() const EXCLUDES(mu_);

 private:
  // Where one admission's kQueuedWrite frame sits in the journal file.
  struct Frame {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };

  // Copies every kept admission frame from the journal into `sink`; returns
  // where each now sits there.
  std::map<std::uint64_t, Frame> copy_admissions_locked(FrameSink& sink)
      REQUIRES(mu_);

  const std::string path_;
  common::FaultInjector* const fault_;
  mutable common::AnnotatedMutex mu_;
  // Open from construction on; a checkpoint swaps in its temp file's.
  common::File file_ GUARDED_BY(mu_);
  // File offset just past the last whole frame: where the next append goes.
  std::uint64_t end_ GUARDED_BY(mu_) = 0;
  // Bytes past end_ are a partial or damaged frame: an append failed after
  // writing part of its frame, or replay stopped there.
  bool torn_ GUARDED_BY(mu_) = false;
  // Admissions (queued id -> frame) no intent has superseded yet.
  std::map<std::uint64_t, Frame> admissions_ GUARDED_BY(mu_);
  // Size of the last checkpoint, and what was appended after it.
  std::uint64_t checkpoint_bytes_ GUARDED_BY(mu_) = 0;
  std::uint64_t since_checkpoint_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace worm::core
