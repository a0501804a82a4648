#pragma once

// POSIX TCP sockets behind a small RAII surface (see net/frame.h for the
// src/net layering note). Everything is IPv4 + non-blocking: the event loop
// in tcp_transport.h multiplexes with an event engine, so no call here may
// ever block — connect() is the one exception (a client start-up, not a loop
// operation) and says so.

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/error.h"

struct iovec;  // <sys/uio.h>; forward-declared so this header stays OS-free

namespace ugc::net {

// Raised on socket/syscall failures (with errno text). Framing and codec
// violations have their own types; this one means the OS said no.
class SocketError : public Error {
 public:
  explicit SocketError(const std::string& what_arg) : Error(what_arg) {}
};

// Move-only owner of a file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

// Result of one non-blocking I/O attempt.
enum class IoStatus {
  kOk,           // made progress (see the byte count)
  kWouldBlock,   // no progress possible right now; wait for poll()
  kClosed,       // orderly EOF (read) — the peer is gone
  kError,        // connection-level failure; drop the peer
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

// Binds and listens on `host`:`port` (port 0 = ephemeral), returning a
// non-blocking listener. Throws SocketError on failure.
Socket tcp_listen(const std::string& host, std::uint16_t port,
                  int backlog = 64);

// The port a listener actually bound (resolves port 0).
std::uint16_t local_port(const Socket& socket);

// Accepts one pending connection as a non-blocking socket, or an invalid
// Socket when none can be taken now. That is either an empty queue or, with
// `*exhausted` set to true, a process out of descriptors or a kernel out of
// socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM): the connection stays
// queued for a later call. Throws SocketError on other failures.
Socket tcp_accept(const Socket& listener, bool* exhausted = nullptr);

// Connects to `host`:`port`. Blocks until established (this is client
// start-up, before the event loop runs), then switches the socket to
// non-blocking. Throws SocketError on failure.
Socket tcp_connect(const std::string& host, std::uint16_t port);

// Non-blocking read into the caller's buffer (no allocation: the event
// loop reuses one scratch buffer across every recv).
IoResult read_some(const Socket& socket, std::span<std::uint8_t> buffer);

// Non-blocking write of as much of `data` as the kernel accepts.
IoResult write_some(const Socket& socket, BytesView data);

// Non-blocking vectored write: one sendmsg over the iovec array, so a write
// queue of several frames reaches the kernel as a single syscall. Same
// semantics as write_some — partial acceptance reports kOk with the byte
// count, and the caller resumes from wherever the kernel stopped.
IoResult write_vec(const Socket& socket, const struct iovec* iov,
                   std::size_t count);

}  // namespace ugc::net
