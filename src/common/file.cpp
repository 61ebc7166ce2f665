#include "common/file.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace worm::common {

namespace {

// Indexed by File::Mode.
constexpr int kOpenFlags[] = {O_RDWR, O_RDWR | O_CREAT,
                              O_RDWR | O_CREAT | O_TRUNC};

}  // namespace

File::File(std::string path, Mode mode)
    : path_(std::move(path)),
      fd_(::open(path_.c_str(),
                 kOpenFlags[static_cast<int>(mode)] | O_CLOEXEC, 0600)) {
  if (fd_ < 0) fail("cannot open");
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void File::fail(const char* what) const {
  const int err = errno;
  throw StorageError(std::string(what) + " " + path_ + ": " +
                     std::strerror(err));
}

void File::read_at(std::uint64_t offset, std::span<std::uint8_t> out) const {
  for (std::size_t done = 0; done < out.size();) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n == 0) throw StorageError("read past the end of " + path_);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      fail("cannot read");
    }
  }
}

void File::write_at(std::uint64_t offset, ByteView data) {
  for (std::size_t done = 0; done < data.size();) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n >= 0) {
      done += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      fail("cannot write");
    }
  }
}

std::uint64_t File::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("cannot stat");
  return static_cast<std::uint64_t>(st.st_size);
}

void File::resize(std::uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) fail("cannot resize");
}

void File::sync() {
  if (::fsync(fd_) != 0) fail("cannot sync");
}

void File::rename_to(std::string path) {
  if (::rename(path_.c_str(), path.c_str()) != 0) {
    const int err = errno;
    throw StorageError("cannot rename " + path_ + " to " + path + ": " +
                       std::strerror(err));
  }
  path_ = std::move(path);
}

Bytes read_file(const std::string& path) {
  const File file(path, File::Mode::kExisting);
  Bytes data(file.size());
  file.read_at(0, data);
  return data;
}

void write_file(const std::string& path, ByteView data) {
  File(path, File::Mode::kTruncate).write_at(0, data);
}

void remove_file(const std::string& path) noexcept {
  ::unlink(path.c_str());
}

}  // namespace worm::common
