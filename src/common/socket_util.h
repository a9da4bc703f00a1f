// POSIX socket hygiene shared by every real-network component.
//
// Two classes of pitfalls are centralized here so no transport has to get
// them right independently:
//
//  * EINTR -- every blocking syscall in the net layer must retry on signal
//    interruption. The supervisor runs with SIGCHLD delivery enabled, so a
//    child reaping signal landing mid-read would otherwise surface as a bogus
//    transport error (or worse, a short write treated as success).
//  * SIGPIPE -- a peer dying mid-write must surface as a transport error
//    (EPIPE from send), never as process death. IgnoreSigpipe() is called by
//    every endpoint constructor; writes additionally pass MSG_NOSIGNAL as
//    belt-and-braces for fds that escape through other code paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sys/socket.h>
#include <sys/types.h>

namespace pisces::net {

// Installs SIG_IGN for SIGPIPE once per process (idempotent, thread-safe).
void IgnoreSigpipe();

// EINTR-retrying wrappers. Return what the syscall returns (with errno set on
// failure); they only hide the interruption case.
ssize_t RecvRetry(int fd, void* buf, std::size_t n, int flags);
ssize_t SendRetry(int fd, const void* buf, std::size_t n, int flags);
int AcceptRetry(int fd);
int ConnectRetry(int fd, const struct sockaddr* addr, unsigned addrlen);
// close() is NOT retried on EINTR (POSIX leaves the fd state unspecified and
// Linux always releases it); this wrapper just swallows the error.
void CloseQuiet(int fd);

// Sets O_NONBLOCK (true) or clears it (false). Returns false on fcntl error.
bool SetNonBlocking(int fd, bool nonblocking);
// Disables Nagle; best-effort.
void SetNoDelay(int fd);

// Creates a loopback TCP listener on `port` (SO_REUSEADDR, backlog 64).
// Returns the listening fd; throws Error on failure.
int ListenLoopback(std::uint16_t port);

// Creates a socket and starts a connect to 127.0.0.1:port. With
// `nonblocking`, returns the fd with the connect possibly still in flight
// (errno == EINPROGRESS); completion is observed via writability + SO_ERROR.
// Returns -1 on immediate failure (socket/connect error other than
// EINPROGRESS), with the fd closed.
int ConnectLoopback(std::uint16_t port, bool nonblocking);

// SO_ERROR of a socket whose non-blocking connect completed; 0 on success.
int SocketError(int fd);

}  // namespace pisces::net
