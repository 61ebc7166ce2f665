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
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/bytes.hpp"
#include "common/fault.hpp"

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
  /// Full VRDT snapshot (blob of Vrdt::serialize()); replay restarts from the
  /// latest checkpoint, so rewrite() uses one to truncate history.
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
};

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
  /// leaves behind.
  explicit HostJournal(std::string path = {},
                       common::FaultInjector* fault = nullptr);

  HostJournal(const HostJournal&) = delete;
  HostJournal& operator=(const HostJournal&) = delete;

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Appends one frame and flushes it to the OS. Throws TransientStorageError
  /// when the injected fault fires; the frame may then be torn on disk until
  /// the next append, which first cuts the file back to the last whole frame
  /// this journal wrote.
  void append(JournalRecordType type, common::ByteView payload) EXCLUDES(mu_);

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

  /// Atomically replaces the journal contents (write temp + rename), used to
  /// truncate history after recovery folds it into a checkpoint.
  void rewrite(const std::vector<JournalRecord>& records) EXCLUDES(mu_);

 private:
  // Opens the file for appending; its current size is the end of the last
  // whole frame.
  void open_for_append() REQUIRES(mu_);
  // Truncates the file to end_ and reopens it.
  void cut_torn_tail() REQUIRES(mu_);

  const std::string path_;
  common::FaultInjector* const fault_;
  mutable common::AnnotatedMutex mu_;
  std::ofstream out_ GUARDED_BY(mu_);
  // File offset just past the last whole frame.
  std::uintmax_t end_ GUARDED_BY(mu_) = 0;
  // Bytes past end_ are a partial or damaged frame: an append failed after
  // writing part of its frame, or replay stopped there.
  bool torn_ GUARDED_BY(mu_) = false;
};

}  // namespace worm::core
