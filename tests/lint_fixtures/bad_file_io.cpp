// lint fixture: file access outside common::File. Every marked line below
// must be flagged file-io — a stream, a std::filesystem call or a raw
// syscall is a second way to touch a file, with its own error handling and
// none of File's short-transfer loops.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>  // flagged
#include <fstream>     // flagged
#include <string>

namespace worm {

void streams(const std::string& path) {
  std::ofstream out(path, std::ios::binary);  // flagged
  std::ifstream in(path);                     // flagged
  std::fstream both(path);                    // flagged
  std::filesystem::resize_file(path, 0);      // flagged
}

void syscalls(const std::string& path, char* buf, unsigned long n) {
  int fd = ::open(path.c_str(), O_RDWR);   // flagged
  (void)::pread(fd, buf, n, 0);            // flagged
  (void)::pwrite(fd, buf, n, 0);           // flagged
  (void)::ftruncate(fd, 0);                // flagged
  (void)::fsync(fd);                       // flagged
  (void)::fdatasync(fd);                   // flagged
  std::rename(path.c_str(), "elsewhere");  // flagged
  ::close(fd);
}

}  // namespace worm
