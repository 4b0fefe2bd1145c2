#include "src/server/net_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dime {

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SetRecvTimeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int ConnectToHost(const std::string& host, int port, int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    SetRecvTimeout(fd, timeout_ms);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  return fd;
}

bool RecvLine(int fd, std::string* line) {
  line->clear();
  char c;
  while (true) {
    ssize_t n = ::recv(fd, &c, 1, 0);
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // timeout or hard error
    }
    if (c == '\n') return true;
    line->push_back(c);
    // A line longer than any legal request is an abuse signal; cut the
    // connection instead of buffering without bound. 64 MiB comfortably
    // fits the largest inline group the engines could chew anyway.
    if (line->size() > (64u << 20)) return false;
  }
}

StatusOr<std::string> SendRequestLine(const std::string& host, int port,
                                      const std::string& line,
                                      int timeout_ms) {
  int fd = ConnectToHost(host, port, timeout_ms);
  if (fd < 0) {
    return UnavailableError("cannot connect to " + host + ":" +
                            std::to_string(port) + ": " +
                            std::strerror(errno));
  }
  std::string request = line;
  if (request.empty() || request.back() != '\n') request += '\n';
  if (!SendAll(fd, request)) {
    Status status = IoError(std::string("send: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  std::string response;
  bool ok = RecvLine(fd, &response);
  int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    if (saved_errno == EAGAIN || saved_errno == EWOULDBLOCK) {
      return DeadlineExceededError("timed out waiting for the response");
    }
    return IoError("connection closed before a response line arrived");
  }
  return response;
}

StatusOr<int> ListenTcp(const std::string& host, int port, int backlog,
                        int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("not an IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = IoError("bind " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace dime
