#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/util.h"

/// \file client.h
/// The benchmark's side of the wire: a child `dime_server` process, a
/// blocking one-request connection for admin verbs, and the open-loop
/// load generator. The generator is one thread multiplexing a few
/// keep-alive connections; each request is sent at its due time whatever
/// the server is doing, several ride one connection at once (pipelined),
/// and every latency is measured from the due time. While a send is due
/// within 2 ms the generator busy-polls its sockets instead of sleeping: on a
/// virtual machine a sleeping thread can wake milliseconds late, which
/// would put the generator's own lag into sub-millisecond latencies. At
/// 500 req/s and above it therefore owns one core.

namespace perfbench {

/// A `dime_server` child. Stop() (also run by the destructor) asks for a
/// clean shutdown over the wire, then waits; it kills the child if it
/// does not exit in time. The child never outlives this object.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `args` plus `--port 0`, and reads the child's
  /// stdout and stderr until its "listening on" line, so it returns as
  /// soon as the server has flushed that line, with the port recorded. A
  /// thread copies all the output to `log_path`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  void Stop();

  int port() const { return port_; }
  /// Peak resident memory of the child (VmHWM), in MB; 0 if unreadable.
  double PeakRssMb() const {
    return pid_ > 0 ? perfbench::PeakRssMb(std::to_string(pid_)) : 0.0;
  }
  /// CPU time the child has used so far (user + system), in ms.
  double CpuMs() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::thread log_thread_;  ///< copies the child's output; ends at its EOF
};

/// Sends one line-protocol request and reads one reply line. Opens and
/// closes its own connection. False on any socket error or timeout.
bool RoundTrip(int port, const std::string& line, std::string* reply,
               int timeout_ms = 60000);

/// A connection kept open for repeated blocking round trips (the churn
/// writer's reload verb).
class BlockingConn {
 public:
  BlockingConn() = default;
  ~BlockingConn();
  BlockingConn(const BlockingConn&) = delete;
  BlockingConn& operator=(const BlockingConn&) = delete;
  bool Connect(int port);
  bool Call(const std::string& line, std::string* reply, int timeout_ms);

 private:
  int fd_ = -1;
  std::string buffer_;
};

enum class Proto { kLine, kHttp };

/// One request of a plan: when it is due, which connection carries it,
/// and a workload-defined key that names its content.
struct Planned {
  int64_t due_ns = 0;
  uint32_t conn = 0;
  uint64_t key = 0;
};

/// What happened to one planned request.
struct Completed {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;  ///< when the generator queued its bytes
  int64_t done_ns = 0;  ///< when its whole reply was read; 0 = never
  uint32_t conn = 0;
  uint64_t key = 0;
  bool ok = false;  ///< a reply arrived, parsed, and said OK (HTTP 200)
  bool cached = false;
  uint64_t epoch = 0;
  uint64_t digest = 0;  ///< DecisionDigest of the reply
  size_t bytes_out = 0;
  size_t bytes_in = 0;
};

class LoadGenerator {
 public:
  /// Opens one connection per entry of `protos` to 127.0.0.1:`port`.
  LoadGenerator(int port, std::vector<Proto> protos);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool ok() const { return ok_; }

  /// Builds the JSON members of a check request for `key` (no braces,
  /// e.g. `"group":"page_3"`).
  using BodyFn = std::function<std::string(uint64_t key)>;

  /// Sends every planned request at its due time (plan sorted by due),
  /// then waits for the outstanding replies, at most `drain_ns` after the
  /// last send. Returns one record per planned request, in plan order.
  /// With `closed`, due times and planned connections are ignored: each
  /// request goes out on the first idle connection, so exactly one request
  /// per connection is outstanding, and the whole run may take at most
  /// `drain_ns`. A run that ends with replies outstanding leaves the
  /// generator unusable.
  std::vector<Completed> Run(const std::vector<Planned>& plan,
                             const BodyFn& body, int64_t drain_ns,
                             bool closed = false);

 private:
  struct Conn;
  bool ReadReplies(Conn& conn, std::vector<Completed>& out);
  bool Flush(Conn& conn);
  void SetWriteInterest(Conn& conn, bool want);

  bool ok_ = false;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
