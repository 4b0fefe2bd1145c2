#include "perfbench/src/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `buffer` holds a '\n'; moves the first line into `line`.
bool ReadLine(int fd, std::string* buffer, std::string* line, int timeout_ms) {
  int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (true) {
    size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int r = ::poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char chunk[65536];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// Writes all of `bytes` to a file descriptor; gives up on an error.
void CopyAll(std::string_view bytes, int fd) {
  while (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

/// The generator busy-polls whenever its next send is due within this.
constexpr int64_t kSpinHorizonNs = 2000000;

}  // namespace

// ---------------------------------------------------------------------------
// ServerProcess

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, std::string* error) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  argv_storage.push_back("--port");
  argv_storage.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644);
  if (log_fd < 0) {
    *error = "cannot create " + log_path;
    return false;
  }
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(log_fd);
    *error = "pipe failed";
    return false;
  }
  // posix_spawn does not copy this process's page tables the way fork
  // does, so a start costs the same however much memory the benchmark holds.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDERR_FILENO);
  pid_t pid = -1;
  int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    ::close(log_fd);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    *error = "cannot start " + binary;
    return false;
  }
  ::close(out_pipe[1]);
  pid_ = pid;

  // Read the child's output here, in blocking calls, until the listen line:
  // start-up is seen the moment the server flushes it, with no polling
  // interval. A thread then copies the rest until the child closes the pipe.
  const int read_fd = out_pipe[0];
  const std::string marker = "dime_server listening on ";
  std::string head;
  size_t nl = std::string::npos;
  const int64_t deadline = NowNs() + int64_t{30} * 1000000000;
  while (nl == std::string::npos) {
    int left_ms = static_cast<int>((deadline - NowNs()) / 1000000);
    if (left_ms <= 0) break;
    pollfd p{read_fd, POLLIN, 0};
    int r = ::poll(&p, 1, left_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    char chunk[4096];
    ssize_t n = ::read(read_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    head.append(chunk, static_cast<size_t>(n));
    size_t at = head.find(marker);
    if (at != std::string::npos) nl = head.find('\n', at);
  }
  if (nl != std::string::npos) {
    port_ = std::atoi(head.c_str() + head.rfind(':', nl) + 1);
  }
  CopyAll(head, log_fd);
  log_thread_ = std::thread([read_fd, log_fd] {
    char chunk[4096];
    while (true) {
      ssize_t n = ::read(read_fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      CopyAll(std::string_view(chunk, static_cast<size_t>(n)), log_fd);
    }
    ::close(read_fd);
    ::close(log_fd);
  });
  if (port_ <= 0) {
    *error = nl == std::string::npos && NowNs() >= deadline
                 ? "server did not report its port within 30 s"
                 : "server exited during start-up (see " + log_path + ")";
    Stop();
    return false;
  }
  return true;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    if (port_ > 0) {
      std::string reply;
      RoundTrip(port_, "{\"type\":\"shutdown\"}\n", &reply, 5000);
    }
    int64_t deadline = NowNs() + int64_t{10} * 1000000000;
    int status = 0;
    while (true) {
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The child is gone, so its end of the pipe is closed and the copy ends.
  if (log_thread_.joinable()) log_thread_.join();
  pid_ = -1;
  port_ = 0;
}

double ServerProcess::CpuMs() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the line, in clock ticks.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool RoundTrip(int port, const std::string& line, std::string* reply,
               int timeout_ms) {
  BlockingConn conn;
  return conn.Connect(port) && conn.Call(line, reply, timeout_ms);
}

BlockingConn::~BlockingConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool BlockingConn::Connect(int port) {
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

bool BlockingConn::Call(const std::string& line, std::string* reply,
                        int timeout_ms) {
  return fd_ >= 0 && WriteAll(fd_, line) &&
         ReadLine(fd_, &buffer_, reply, timeout_ms);
}

// ---------------------------------------------------------------------------
// LoadGenerator

struct LoadGenerator::Conn {
  int fd = -1;
  Proto proto = Proto::kLine;
  bool want_write = false;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<size_t> inflight;  ///< plan indices, in send order
};

LoadGenerator::LoadGenerator(int port, std::vector<Proto> protos) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return;
  for (size_t i = 0; i < protos.size(); ++i) {
    auto conn = std::make_unique<Conn>();
    conn->proto = protos[i];
    conn->fd = ConnectLoopback(port);
    if (conn->fd < 0) return;
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event cev{};
    cev.events = EPOLLIN;
    cev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &cev);
    conns_.push_back(std::move(conn));
  }
  ok_ = true;
}

LoadGenerator::~LoadGenerator() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGenerator::SetWriteInterest(Conn& conn, bool want) {
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].get() == &conn) ev.data.u64 = i;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool LoadGenerator::Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    conn.out_off += static_cast<size_t>(n);
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1u << 20)) {
    conn.out.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  SetWriteInterest(conn, !conn.out.empty());
  return true;
}

bool LoadGenerator::ReadReplies(Conn& conn, std::vector<Completed>& out) {
  char chunk[65536];
  while (true) {
    ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    conn.in.append(chunk, static_cast<size_t>(n));
  }
  size_t pos = 0;
  while (!conn.inflight.empty()) {
    std::string_view body;
    int http_status = 200;
    size_t consumed = 0;
    std::string_view rest(conn.in.data() + pos, conn.in.size() - pos);
    if (conn.proto == Proto::kLine) {
      size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) break;
      body = rest.substr(0, nl);
      consumed = nl + 1;
    } else {
      size_t head_end = rest.find("\r\n\r\n");
      if (head_end == std::string_view::npos) break;
      std::string_view head = rest.substr(0, head_end);
      size_t sp = head.find(' ');
      http_status = sp == std::string_view::npos
                        ? 0
                        : std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
      size_t length = 0;
      size_t cl = head.find("Content-Length:");
      if (cl != std::string_view::npos) {
        length = std::strtoull(std::string(head.substr(cl + 15, 24)).c_str(),
                               nullptr, 10);
      }
      if (rest.size() < head_end + 4 + length) break;
      body = rest.substr(head_end + 4, length);
      consumed = head_end + 4 + length;
    }
    Completed& done = out[conn.inflight.front()];
    conn.inflight.pop_front();
    done.done_ns = NowNs();
    done.bytes_in = consumed;
    ReplyFields reply;
    done.ok = ParseReply(body, &reply) && http_status == 200 &&
              reply.status == "OK";
    done.cached = reply.cached;
    done.epoch = reply.epoch;
    done.digest = DecisionDigest(reply.partitions, reply.pivot_size,
                                 reply.flagged_per_prefix, reply.flagged);
    pos += consumed;
  }
  conn.in.erase(0, pos);
  return true;
}

std::vector<Completed> LoadGenerator::Run(const std::vector<Planned>& plan,
                                          const BodyFn& body, int64_t drain_ns,
                                          bool closed) {
  std::vector<Completed> out(plan.size());
  // A lost connection, or replies still owed at the deadline, leave the
  // generator unusable: the requests not yet answered, in this run and
  // every later one, stay failed.
  auto lost = [this, &out] {
    ok_ = false;
    for (auto& conn : conns_) conn->inflight.clear();
    return out;
  };
  if (!ok_) return out;
  size_t next = 0;
  int64_t drain_deadline = closed ? NowNs() + drain_ns : 0;
  epoll_event events[16];
  while (true) {
    int64_t now = NowNs();
    while (next < plan.size() && (closed || plan[next].due_ns <= now)) {
      const Planned& p = plan[next];
      size_t ci = p.conn % conns_.size();
      if (closed) {
        ci = 0;
        while (ci < conns_.size() && !conns_[ci]->inflight.empty()) ++ci;
        if (ci == conns_.size()) break;  // every connection is busy
      }
      Conn& conn = *conns_[ci];
      std::string members = body(p.key);
      size_t before = conn.out.size() - conn.out_off;
      if (conn.proto == Proto::kLine) {
        conn.out += "{\"type\":\"check\",";
        conn.out += members;
        conn.out += "}\n";
      } else {
        std::string json = "{" + members + "}";
        conn.out += "POST /v1/check HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\nContent-Length: ";
        conn.out += std::to_string(json.size());
        conn.out += "\r\n\r\n";
        conn.out += json;
      }
      Completed& c = out[next];
      c.due_ns = closed ? NowNs() : p.due_ns;
      c.conn = static_cast<uint32_t>(ci);
      c.key = p.key;
      c.bytes_out = conn.out.size() - conn.out_off - before;
      c.sent_ns = NowNs();
      conn.inflight.push_back(next);
      ++next;
      if (!Flush(conn)) return lost();
      now = NowNs();
    }
    size_t outstanding = 0;
    for (auto& conn : conns_) outstanding += conn->inflight.size();
    if (next == plan.size() && outstanding == 0) break;
    if (next == plan.size() && drain_deadline == 0) {
      drain_deadline = now + drain_ns;
    }
    // Replies still owed past the deadline would otherwise be matched to
    // the requests of a later run.
    if (drain_deadline != 0 && now >= drain_deadline) return lost();
    // Spin while the next send is close; otherwise sleep in whole ms,
    // waking at least kSpinHorizonNs before it. A closed run waits for a
    // reply.
    int64_t wake = next < plan.size() && !closed ? plan[next].due_ns
                                                 : drain_deadline;
    int timeout_ms = static_cast<int>(
        std::max<int64_t>(0, (wake - now - kSpinHorizonNs) / 1000000));
    int n = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    for (int i = 0; i < n; ++i) {
      Conn& conn = *conns_[events[i].data.u64];
      if ((events[i].events & EPOLLOUT) != 0 && !Flush(conn)) return lost();
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          !ReadReplies(conn, out)) {
        return lost();
      }
    }
  }
  return out;
}

}  // namespace perfbench
