#include "common/net.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstring>

namespace worm::common {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError("listen_unix: path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("listen_unix: socket");
  ::unlink(path.c_str());  // replace a stale socket file from a prior run
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("listen_unix: bind " + path);
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen_unix: listen");
  set_nonblocking(s);
  return s;
}

Socket listen_tcp_loopback(std::uint16_t port, std::uint16_t* bound_port,
                           int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("listen_tcp_loopback: socket");
  int one = 1;
  (void)::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("listen_tcp_loopback: bind");
  }
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen_tcp_loopback: listen");
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("listen_tcp_loopback: getsockname");
    }
    *bound_port = ntohs(addr.sin_port);
  }
  set_nonblocking(s);
  return s;
}

Socket accept_connection(const Socket& listener) {
  int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Socket();
    }
    throw_errno("accept");
  }
  Socket s(fd);
  set_nonblocking(s);
  return s;
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError("connect_unix: path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("connect_unix: socket");
  if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("connect_unix: connect " + path);
  }
  return s;
}

Socket connect_tcp_loopback(std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("connect_tcp_loopback: socket");
  int one = 1;
  (void)::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("connect_tcp_loopback: connect");
  }
  return s;
}

void set_nonblocking(const Socket& s) {
  int flags = ::fcntl(s.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(s.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("set_nonblocking");
  }
}

IoResult read_some(const Socket& s, Bytes& buf, std::size_t max_bytes) {
  // The kernel fills a per-thread buffer, and only what it delivered is
  // appended: growing `buf` by max_bytes first would zero-fill all of it on
  // every call, the drain's final EAGAIN included.
  thread_local Bytes scratch;
  if (scratch.size() < max_bytes) scratch.resize(max_bytes);
  ssize_t n = ::read(s.fd(), scratch.data(), max_bytes);
  if (n > 0) {
    buf.insert(buf.end(), scratch.begin(), scratch.begin() + n);
    return IoResult::kOk;
  }
  if (n == 0) return IoResult::kClosed;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return IoResult::kWouldBlock;
  }
  if (errno == ECONNRESET || errno == EPIPE) return IoResult::kClosed;
  return IoResult::kError;
}

IoResult write_some(const Socket& s, const Bytes& buf, std::size_t& offset) {
  if (offset >= buf.size()) return IoResult::kOk;
  ssize_t n = ::send(s.fd(), buf.data() + offset, buf.size() - offset,
                     MSG_NOSIGNAL);
  if (n > 0) {
    offset += static_cast<std::size_t>(n);
    return IoResult::kOk;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return IoResult::kWouldBlock;
  }
  if (errno == ECONNRESET || errno == EPIPE) return IoResult::kClosed;
  return IoResult::kError;
}

int poll_fds(std::vector<PollFd>& fds, Duration timeout) {
  static_assert(sizeof(PollFd) == sizeof(pollfd) &&
                    offsetof(PollFd, fd) == offsetof(pollfd, fd) &&
                    offsetof(PollFd, events) == offsetof(pollfd, events) &&
                    offsetof(PollFd, revents) == offsetof(pollfd, revents),
                "PollFd must mirror struct pollfd");
  int timeout_ms =
      timeout.ns < 0
          ? -1
          : static_cast<int>((timeout.ns + 999'999) / 1'000'000);
  for (;;) {
    int rc = ::poll(reinterpret_cast<pollfd*>(fds.data()), fds.size(),
                    timeout_ms);
    if (rc >= 0) return rc;
    if (errno != EINTR) throw_errno("poll");
  }
}

Duration now_real() {
  timespec ts;
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return Duration::nanos(static_cast<std::int64_t>(ts.tv_sec) *
                             1'000'000'000 +
                         ts.tv_nsec);
}

void sleep_real(Duration d) {
  if (d.ns <= 0) return;
  timespec ts;
  ts.tv_sec = d.ns / 1'000'000'000;
  ts.tv_nsec = d.ns % 1'000'000'000;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace worm::common
