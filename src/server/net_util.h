#ifndef DIME_SERVER_NET_UTIL_H_
#define DIME_SERVER_NET_UTIL_H_

#include <string>
#include <string_view>

#include "src/common/status.h"

/// \file net_util.h
/// Shared socket plumbing for the serving layer: the blocking client
/// helpers (SendRequestLine below, SendHttpRequest in http.h)
/// and the non-blocking event-loop transport (event_loop.h) sit on the
/// same handful of primitives, so error handling (EINTR retries, short
/// writes, MSG_NOSIGNAL) lives exactly once.

namespace dime {

/// Sends all of `data`, handling short writes and EINTR. False on error
/// (errno is preserved). Uses MSG_NOSIGNAL so a dead peer is a return
/// code, never a SIGPIPE.
bool SendAll(int fd, std::string_view data);

/// SO_RCVTIMEO for blocking clients; <= 0 is a no-op.
void SetRecvTimeout(int fd, int timeout_ms);

/// O_NONBLOCK for event-loop sockets. False on fcntl failure.
bool SetNonBlocking(int fd);

/// Resolves host:port (numeric or DNS) and connects (blocking, with
/// `timeout_ms` as the receive timeout). -1 on failure.
int ConnectToHost(const std::string& host, int port, int timeout_ms);

/// Reads bytes until '\n' or EOF. True when a full line (without the
/// '\n') landed in *line; false on EOF, timeout, or a line past an
/// internal 64 MiB abuse cap.
bool RecvLine(int fd, std::string* line);

/// Client-side helper (dime_cli --client, tests, benches): connects to
/// host:port, sends `line` (a '\n' is appended when missing), reads one
/// response line. UNAVAILABLE when the server is unreachable, IO_ERROR /
/// DEADLINE_EXCEEDED on broken or timed-out reads.
StatusOr<std::string> SendRequestLine(const std::string& host, int port,
                                      const std::string& line,
                                      int timeout_ms = 30000);

/// The largest TCP port number.
inline constexpr int kMaxPort = 65535;

/// Creates, binds, and listens an IPv4 TCP socket. On success returns
/// the fd and writes the bound port (after an ephemeral port 0 bind) to
/// *bound_port. IO_ERROR / INVALID_ARGUMENT otherwise.
StatusOr<int> ListenTcp(const std::string& host, int port, int backlog,
                        int* bound_port);

}  // namespace dime

#endif  // DIME_SERVER_NET_UTIL_H_
