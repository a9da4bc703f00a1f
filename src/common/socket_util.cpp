#include "common/socket_util.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <mutex>

#include "common/error.h"

namespace pisces::net {

void IgnoreSigpipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa{};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
  });
}

ssize_t RecvRetry(int fd, void* buf, std::size_t n, int flags) {
  for (;;) {
    ssize_t r = ::recv(fd, buf, n, flags);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

ssize_t SendRetry(int fd, const void* buf, std::size_t n, int flags) {
  for (;;) {
    ssize_t w = ::send(fd, buf, n, flags | MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    return w;
  }
}

int AcceptRetry(int fd) {
  for (;;) {
    // CLOEXEC: connection fds must not leak into exec'd host processes
    // (the supervisor forks children from a process full of sockets).
    int c = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (c < 0 && errno == EINTR) continue;
    return c;
  }
}

int ConnectRetry(int fd, const struct sockaddr* addr, unsigned addrlen) {
  for (;;) {
    int rc = ::connect(fd, addr, addrlen);
    // A connect interrupted by a signal completes asynchronously (POSIX);
    // treat it like EINPROGRESS and let the caller observe completion.
    if (rc < 0 && errno == EINTR) {
      errno = EINPROGRESS;
      return -1;
    }
    return rc;
  }
}

void CloseQuiet(int fd) {
  if (fd >= 0) ::close(fd);
}

bool SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  return ::fcntl(fd, F_SETFL, flags) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int ListenLoopback(std::uint16_t port) {
  IgnoreSigpipe();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  Require(fd >= 0, "ListenLoopback: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    CloseQuiet(fd);
    throw Error("ListenLoopback: bind/listen failed (port in use?)");
  }
  return fd;
}

int ConnectLoopback(std::uint16_t port, bool nonblocking) {
  IgnoreSigpipe();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (nonblocking && !SetNonBlocking(fd, true)) {
    CloseQuiet(fd);
    return -1;
  }
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc = ConnectRetry(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    int saved = errno;
    CloseQuiet(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

int SocketError(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

}  // namespace pisces::net
