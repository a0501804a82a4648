#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ugc::net {

namespace {

[[noreturn]] void fail(const char* what) {
  throw SocketError(concat(what, ": ", std::strerror(errno)));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw SocketError(concat("not an IPv4 address: '", host,
                             "' (src/net speaks numeric IPv4; resolve names "
                             "before calling)"));
  }
  return address;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(const std::string& host, std::uint16_t port,
                  int backlog) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    fail("socket");
  }
  const int one = 1;
  // Grid runs restart often (every test run); don't wait out TIME_WAIT.
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) < 0) {
    fail("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in address = make_address(host, port);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) < 0) {
    fail("bind");
  }
  if (::listen(socket.fd(), backlog) < 0) {
    fail("listen");
  }
  set_nonblocking(socket.fd());
  return socket;
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_in address{};
  socklen_t length = sizeof(address);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&address),
                    &length) < 0) {
    fail("getsockname");
  }
  return ntohs(address.sin_port);
}

Socket tcp_accept(const Socket& listener, bool* exhausted) {
  if (exhausted != nullptr) {
    *exhausted = false;
  }
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Socket();  // nothing to accept right now
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Out of descriptors or memory: the connection stays queued. Any
      // client can cause this by opening enough connections, so it is a
      // condition to wait out, not a failure of the listener.
      if (exhausted != nullptr) {
        *exhausted = true;
        return Socket();
      }
    }
    fail("accept");
  }
  Socket socket(fd);
  set_nonblocking(fd);
  const int one = 1;
  // Protocol turns are small request/response frames; never Nagle-delay
  // them.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Socket tcp_connect(const std::string& host, std::uint16_t port) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) {
    fail("socket");
  }
  const sockaddr_in address = make_address(host, port);
  for (;;) {
    if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    fail("connect");
  }
  set_nonblocking(socket.fd());
  const int one = 1;
  (void)::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
  return socket;
}

IoResult read_some(const Socket& socket, std::span<std::uint8_t> buffer) {
  const ssize_t n = ::recv(socket.fd(), buffer.data(), buffer.size(), 0);
  if (n > 0) {
    return {IoStatus::kOk, static_cast<std::size_t>(n)};
  }
  if (n == 0) {
    return {IoStatus::kClosed, 0};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return {IoStatus::kWouldBlock, 0};
  }
  return {IoStatus::kError, 0};
}

IoResult write_some(const Socket& socket, BytesView data) {
  if (data.empty()) {
    return {IoStatus::kOk, 0};
  }
  const ssize_t n =
      ::send(socket.fd(), data.data(), data.size(), MSG_NOSIGNAL);
  if (n >= 0) {
    return {IoStatus::kOk, static_cast<std::size_t>(n)};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return {IoStatus::kWouldBlock, 0};
  }
  return {IoStatus::kError, 0};
}

IoResult write_vec(const Socket& socket, const struct iovec* iov,
                   std::size_t count) {
  if (count == 0) {
    return {IoStatus::kOk, 0};
  }
  msghdr message{};
  message.msg_iov = const_cast<struct iovec*>(iov);  // sendmsg never writes it
  message.msg_iovlen = count;
  const ssize_t n = ::sendmsg(socket.fd(), &message, MSG_NOSIGNAL);
  if (n >= 0) {
    return {IoStatus::kOk, static_cast<std::size_t>(n)};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return {IoStatus::kWouldBlock, 0};
  }
  return {IoStatus::kError, 0};
}

}  // namespace ugc::net
