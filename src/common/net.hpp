// Minimal socket layer for the network front-end: RAII fds, non-blocking
// accept/connect over Unix-domain and loopback-TCP sockets, EINTR-safe
// poll(), and partial-read/-write primitives returning explicit IoResult
// states instead of errno spelunking at every call site.
//
// Real networking necessarily touches real kernel time (poll timeouts,
// connect backoff, I/O deadlines), which the repo otherwise bans in src/
// (worm-lint wall-clock rule: the *simulation* must never consult the host
// clock). The accommodation: timeouts are expressed as common::Duration and
// converted to poll()'s millisecond argument here, sleeps go through
// sleep_real()'s nanosleep, and deadline arithmetic uses now_real()'s
// monotonic stamp — which never flows into simulation logic, so a server
// process can block on I/O without the simulation observing wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/time.hpp"

namespace worm::common {

/// Move-only owner of a file descriptor. Closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { reset(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Listening Unix-domain socket at `path` (an existing socket file is
/// replaced). Throws NetError on failure.
[[nodiscard]] Socket listen_unix(const std::string& path, int backlog = 64);

/// Listening TCP socket on 127.0.0.1. `port` 0 picks an ephemeral port;
/// `bound_port` returns the actual one.
[[nodiscard]] Socket listen_tcp_loopback(std::uint16_t port,
                                         std::uint16_t* bound_port,
                                         int backlog = 64);

/// Accepts one pending connection, already non-blocking; invalid Socket when
/// none is pending (EAGAIN).
[[nodiscard]] Socket accept_connection(const Socket& listener);

/// Blocking connect (the client side); throws NetError on failure.
[[nodiscard]] Socket connect_unix(const std::string& path);
[[nodiscard]] Socket connect_tcp_loopback(std::uint16_t port);

void set_nonblocking(const Socket& s);

enum class IoResult : std::uint8_t {
  kOk = 0,      // >= 1 byte moved
  kWouldBlock,  // nothing to do right now (EAGAIN)
  kClosed,      // orderly EOF (read) or peer gone (EPIPE/ECONNRESET)
  kError,       // anything else
};

/// Appends up to `max_bytes` from the socket onto `buf`.
IoResult read_some(const Socket& s, Bytes& buf, std::size_t max_bytes);

/// Writes from buf[offset..]; advances `offset` by what the kernel took.
IoResult write_some(const Socket& s, const Bytes& buf, std::size_t& offset);

/// poll(2) with EINTR retry. Events/revents are POLLIN/POLLOUT masks.
struct PollFd {
  int fd = -1;
  short events = 0;
  short revents = 0;
};
/// Returns the number of fds with events (0 on timeout). Negative timeout
/// blocks indefinitely.
int poll_fds(std::vector<PollFd>& fds, Duration timeout);

/// Real-time sleep via nanosleep — for client backoff between connect
/// retries, never for simulation logic.
void sleep_real(Duration d);

/// Monotonic wall-time stamp (nanoseconds since an arbitrary epoch) for
/// bounding real I/O with absolute deadlines — e.g. a client capping a whole
/// request/response round trip rather than resetting its timeout on every
/// partial read. Never for simulation logic: simulated time stays with
/// SimClock.
[[nodiscard]] Duration now_real();

/// Exponential backoff schedule, the shape of ChannelRetryPolicy (PR 4)
/// applied to connect/busy retries: initial * factor^attempt, capped.
struct Backoff {
  Duration initial = Duration::millis(1);
  std::uint32_t factor = 2;
  Duration cap = Duration::millis(250);

  [[nodiscard]] Duration delay(std::uint32_t attempt) const {
    Duration d = initial;
    for (std::uint32_t i = 0; i < attempt && d < cap; ++i) d = d * factor;
    return d < cap ? d : cap;
  }
};

}  // namespace worm::common
