// The one way src/ touches a file: an owned descriptor with positioned reads
// and writes. The journal, its checkpoint temp file, the platters of
// FileBlockDevice and vrdt.bin all go through it, so the durability work
// (where to sync, what a power cut keeps) has one place to land. worm-lint's
// file-io rule keeps every other file API out of src/.
//
// Every failure throws StorageError naming the file and the system's reason.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/bytes.hpp"

namespace worm::common {

class File {
 public:
  enum class Mode {
    kExisting,  // the file must exist
    kCreate,    // created empty if absent, kept as it is otherwise
    kTruncate,  // created if absent, emptied otherwise
  };

  /// Holds no descriptor; assign an opened File to it.
  File() = default;
  /// Opens `path` for reading and writing. A file it creates is its
  /// owner's alone (mode 0600): the host's files hold record payloads.
  File(std::string path, Mode mode);
  ~File();

  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// The name the file was opened or last renamed under.
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Fills `out` from `offset`. A read that reaches the end of the file
  /// first throws. Safe to call from several threads at once.
  void read_at(std::uint64_t offset, std::span<std::uint8_t> out) const;
  /// Writes all of `data` at `offset`, growing the file as needed.
  void write_at(std::uint64_t offset, ByteView data);

  [[nodiscard]] std::uint64_t size() const;
  /// Cuts the file to `size` bytes, or extends it with zeros.
  void resize(std::uint64_t size);
  /// Hands every written byte to the device (fsync).
  void sync();
  /// Renames the file over `path`; the descriptor stays open under the new
  /// name.
  void rename_to(std::string path);

 private:
  // Throws StorageError: `what`, the path and errno's reason.
  [[noreturn]] void fail(const char* what) const;

  std::string path_;
  int fd_ = -1;
};

/// The whole of an existing file.
[[nodiscard]] Bytes read_file(const std::string& path);
/// Replaces the contents of `path` (created if absent) with `data`.
void write_file(const std::string& path, ByteView data);
/// Removes `path` if it exists; a failure is ignored.
void remove_file(const std::string& path) noexcept;

}  // namespace worm::common
