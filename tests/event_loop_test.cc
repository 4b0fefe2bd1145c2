// The epoll transport's behaviors that neither protocol suite covers:
// per-connection protocol sniffing (both protocols on ONE port),
// pipelining with in-order responses, the pipeline-depth pause/resume
// path, the connection-count ceiling shed, the idle sweep, partial-write
// resumption under client backpressure, 1024 concurrent keep-alive
// connections on both protocols — and the chaos leg: continuous
// snapshot swaps under concurrent line + HTTP socket clients with zero
// failed replies (the transport-level twin of chaos_swap_test, run under
// ASan+UBSan and TSan in CI).

#include "src/server/event_loop.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/string_util.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/server/net_util.h"
#include "src/server/wire.h"

namespace dime {
namespace {

constexpr int kVariants = 3;

/// Variant v of the serving corpus (chaos_swap_test's recipe): same
/// schema and group name, per-variant content, so a cross-epoch mixup
/// changes wire-visible decisions.
ServingCorpus MakeVariant(int v) {
  Corpus corpus = MakeDemoCorpus(0);
  ScholarGenOptions gen;
  gen.num_correct = 30;
  gen.seed = 500 + v * 31;
  gen.garbage_pubs = 2 + v;
  Group page = GenerateScholarGroup("Chaos Owner", gen);
  page.name = "page_0";
  corpus.groups.push_back(std::move(page));
  return PrepareCorpus(std::move(corpus));
}

JsonObject MustParse(const std::string& line) {
  std::string_view body(line);
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  auto parsed = ParseJsonObjectLine(body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in: " << line;
  return parsed.ok() ? *parsed : JsonObject{};
}

/// A keep-alive line-protocol client on a raw socket.
class LineClient {
 public:
  explicit LineClient(int port, int timeout_ms = 10000)
      : fd_(ConnectToHost("127.0.0.1", port, timeout_ms)) {}
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool Send(const std::string& line) { return SendAll(fd_, line + "\n"); }

  /// One request, one response; empty string on transport failure.
  std::string RoundTrip(const std::string& line) {
    if (!Send(line)) return "";
    std::string response;
    if (!RecvLine(fd_, &response)) return "";
    return response;
  }

 private:
  int fd_;
};

/// A keep-alive HTTP/1.1 client on a raw socket (SendHttpRequest closes
/// its connection after one exchange).
class HttpClient {
 public:
  HttpClient(int port, int timeout_ms)
      : fd_(ConnectToHost("127.0.0.1", port, timeout_ms)) {}
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool SendCheck(const std::string& body) {
    return SendAll(fd_,
                   "POST /v1/check HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body);
  }

  /// The body of the next response; empty on a transport failure or a
  /// status other than 200.
  std::string RecvBody() {
    std::string head;
    while (!EndsWith(head, "\r\n\r\n")) {
      char c;
      if (::recv(fd_, &c, 1, 0) != 1) return "";
      head.push_back(c);
    }
    constexpr std::string_view kLengthField = "\r\ncontent-length:";
    head = ToLower(head);
    const size_t at = head.find(kLengthField);
    if (!StartsWith(head, "http/1.1 200 ") || at == std::string::npos) {
      return "";
    }
    const char* length = head.c_str() + at + kLengthField.size();
    std::string body(std::strtoul(length, nullptr, 10), '\0');
    for (size_t got = 0; got < body.size();) {
      ssize_t n = ::recv(fd_, body.data() + got, body.size() - got, 0);
      if (n <= 0) return "";
      got += static_cast<size_t>(n);
    }
    return body;
  }

 private:
  int fd_;
};

class EventLoopTest : public ::testing::Test {
 protected:
  void StartServer(EventLoopServerOptions options = {}) {
    service_ = std::make_unique<DimeService>(MakeVariant(0),
                                             ServiceOptions{});
    server_ = std::make_unique<EventLoopServer>(service_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (service_ != nullptr) service_->Shutdown();
  }

  int port() const { return server_->port(); }

  std::unique_ptr<DimeService> service_;
  std::unique_ptr<EventLoopServer> server_;
};

TEST_F(EventLoopTest, BothProtocolsShareOnePort) {
  StartServer();
  // Per-connection sniffing: a line-JSON client and an HTTP client land
  // on the same listener, and each gets its own framing back.
  LineClient line(port());
  ASSERT_TRUE(line.ok());
  JsonObject from_line = MustParse(line.RoundTrip(R"({"type":"ping"})"));
  EXPECT_EQ(from_line.at("status").string_value, "OK");

  int http_status = 0;
  StatusOr<std::string> from_http = SendHttpRequest(
      "127.0.0.1", port(), "GET", "/v1/ping", "", 10000, &http_status);
  ASSERT_TRUE(from_http.ok()) << from_http.status().ToString();
  EXPECT_EQ(http_status, 200);
  EXPECT_EQ(MustParse(*from_http).at("status").string_value, "OK");

  // The line connection is still keep-alive after the HTTP interlude.
  EXPECT_EQ(MustParse(line.RoundTrip(R"({"type":"stats"})"))
                .at("status")
                .string_value,
            "OK");
}

TEST_F(EventLoopTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  LineClient client(port());
  ASSERT_TRUE(client.ok());
  constexpr int kDepth = 10;
  // One write carrying every request: the transport must frame them all
  // and flush the responses in request order (serials, not luck).
  std::string burst;
  for (int i = 0; i < kDepth; ++i) {
    burst += R"({"type":"ping","id":"p)" + std::to_string(i) + "\"}\n";
  }
  ASSERT_TRUE(SendAll(client.fd(), burst));
  for (int i = 0; i < kDepth; ++i) {
    std::string response;
    ASSERT_TRUE(RecvLine(client.fd(), &response)) << "response " << i;
    EXPECT_EQ(MustParse(response).at("id").string_value,
              "p" + std::to_string(i));
  }
}

TEST_F(EventLoopTest, PipelineDepthCapPausesAndResumesReads) {
  EventLoopServerOptions options;
  options.max_pipeline_depth = 1;  // every burst overruns the cap
  StartServer(options);
  LineClient client(port());
  ASSERT_TRUE(client.ok());
  constexpr int kDepth = 16;
  std::string burst;
  for (int i = 0; i < kDepth; ++i) {
    burst += R"({"type":"ping","id":"q)" + std::to_string(i) + "\"}\n";
  }
  ASSERT_TRUE(SendAll(client.fd(), burst));
  // With depth 1, responses 1..15 only arrive through the unpause path
  // (FlushReady re-arming reads and re-framing the buffered inbox).
  for (int i = 0; i < kDepth; ++i) {
    std::string response;
    ASSERT_TRUE(RecvLine(client.fd(), &response)) << "response " << i;
    EXPECT_EQ(MustParse(response).at("id").string_value,
              "q" + std::to_string(i));
  }
}

TEST_F(EventLoopTest, ConnectionCeilingShedsWithCleanError) {
  EventLoopServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  // Fill the ceiling; the pings prove both connections are registered
  // (not still in the accept backlog) before the third arrives.
  auto first = std::make_unique<LineClient>(port());
  auto second = std::make_unique<LineClient>(port());
  ASSERT_TRUE(first->ok());
  ASSERT_TRUE(second->ok());
  ASSERT_FALSE(first->RoundTrip(R"({"type":"ping"})").empty());
  ASSERT_FALSE(second->RoundTrip(R"({"type":"ping"})").empty());

  // The third connection is shed: one RESOURCE_EXHAUSTED line, then EOF.
  {
    LineClient shed(port());
    ASSERT_TRUE(shed.ok());
    std::string notice;
    ASSERT_TRUE(RecvLine(shed.fd(), &notice)) << "shed notice missing";
    EXPECT_EQ(MustParse(notice).at("status").string_value,
              "RESOURCE_EXHAUSTED");
    std::string nothing;
    EXPECT_FALSE(RecvLine(shed.fd(), &nothing)) << "expected EOF after shed";
  }
  EXPECT_GE(server_->connections_shed(), 1u);

  // Survivors are untouched, and a freed slot is reusable: close one,
  // then retry until the server notices the EOF and admits a new client.
  EXPECT_EQ(MustParse(first->RoundTrip(R"({"type":"ping"})"))
                .at("status")
                .string_value,
            "OK");
  second.reset();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool readmitted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    LineClient retry(port());
    if (retry.ok()) {
      JsonObject response = MustParse(retry.RoundTrip(R"({"type":"ping"})"));
      if (response.at("status").string_value == "OK") {
        readmitted = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(readmitted) << "freed connection slot was never reusable";
}

TEST_F(EventLoopTest, IdleConnectionsAreSweptOut) {
  EventLoopServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  LineClient idle(port(), /*timeout_ms=*/5000);
  ASSERT_TRUE(idle.ok());
  // Active first: the sweep must not cut a connection doing work.
  EXPECT_EQ(MustParse(idle.RoundTrip(R"({"type":"ping"})"))
                .at("status")
                .string_value,
            "OK");
  // Then silence: the sweep closes it (EOF well before the 5s client
  // timeout would fire).
  auto before = std::chrono::steady_clock::now();
  std::string nothing;
  EXPECT_FALSE(RecvLine(idle.fd(), &nothing));
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::seconds(4));
  EXPECT_EQ(server_->open_connections(), 0u);
}

TEST_F(EventLoopTest, PartialWritesResumeUnderClientBackpressure) {
  StartServer();
  LineClient client(port());
  ASSERT_TRUE(client.ok());
  // A response far past any socket buffer: the echo of a 4 MiB id. The
  // client does not read until after the server has necessarily hit
  // EAGAIN, so the flush MUST take the EPOLLOUT resumption path.
  const std::string big_id(4u << 20, 'x');
  ASSERT_TRUE(
      client.Send(R"({"type":"ping","id":")" + big_id + "\"}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::string response;
  ASSERT_TRUE(RecvLine(client.fd(), &response));
  JsonObject parsed = MustParse(response);
  EXPECT_EQ(parsed.at("status").string_value, "OK");
  EXPECT_EQ(parsed.at("id").string_value, big_id);
  // The connection survived the stall.
  EXPECT_EQ(MustParse(client.RoundTrip(R"({"type":"ping"})"))
                .at("status")
                .string_value,
            "OK");
}

TEST_F(EventLoopTest, ThousandKeepAliveConnectionsOnBothProtocols) {
  // dime_server --demo --demo-pages 4 --workers 8 at 1024 connections:
  // half line protocol, half HTTP, all open at once. Every connection
  // sends a cached check; every 8th also sends a no_cache check, which
  // runs the engine. Nothing may be shed, cut or answered wrongly.
  constexpr int kConnections = 1024;
  constexpr int kPages = 4;
  constexpr int kTimeoutMs = 120000;  // generous for sanitizer builds

  // Each connection holds two descriptors in this process, one per end.
  constexpr rlim_t kDescriptorsNeeded = 2 * kConnections + 150;
  struct rlimit limit;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < kDescriptorsNeeded) {
    if (limit.rlim_max != RLIM_INFINITY &&
        limit.rlim_max < kDescriptorsNeeded) {
      GTEST_SKIP() << "RLIMIT_NOFILE hard limit " << limit.rlim_max
                   << " is below the " << kDescriptorsNeeded
                   << " descriptors this test needs";
    }
    limit.rlim_cur = kDescriptorsNeeded;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit), 0);
  }

  ServiceOptions service_options;
  service_options.num_workers = 8;
  service_options.queue_capacity = 8192;
  service_options.cache_capacity = 256;
  service_ =
      std::make_unique<DimeService>(PrepareCorpus(MakeDemoCorpus(kPages)),
                                    service_options);
  server_ = std::make_unique<EventLoopServer>(service_.get(),
                                              EventLoopServerOptions{});
  ASSERT_TRUE(server_->Start().ok());

  auto page_of = [](int c) { return (c / 2) % kPages; };
  auto line_check = [](int page, bool no_cache) {
    return R"({"type":"check","group":"page_)" + std::to_string(page) +
           (no_cache ? R"(","no_cache":true})" : R"("})");
  };
  auto http_check = [](int page, bool no_cache) {
    return R"({"group":"page_)" + std::to_string(page) +
           (no_cache ? R"(","no_cache":true})" : R"("})");
  };

  // One connection alone sets each page's expected flagged set and warms
  // the cache, so the crowd's cached checks are hits.
  auto reference = std::make_unique<LineClient>(port(), kTimeoutMs);
  ASSERT_TRUE(reference->ok());
  std::vector<std::string> flagged(kPages);
  for (int page = 0; page < kPages; ++page) {
    JsonObject reply =
        MustParse(reference->RoundTrip(line_check(page, false)));
    ASSERT_EQ(reply["status"].string_value, "OK") << "page " << page;
    flagged[static_cast<size_t>(page)] = reply["flagged"].string_value;
  }

  std::vector<std::unique_ptr<LineClient>> line(kConnections / 2);
  std::vector<std::unique_ptr<HttpClient>> http(kConnections / 2);
  for (int c = 0; c < kConnections; ++c) {
    const size_t slot = static_cast<size_t>(c / 2);
    if (c % 2 == 0) {
      line[slot] = std::make_unique<LineClient>(port(), kTimeoutMs);
      ASSERT_TRUE(line[slot]->ok()) << "connection " << c;
    } else {
      http[slot] = std::make_unique<HttpClient>(port(), kTimeoutMs);
      ASSERT_TRUE(http[slot]->ok()) << "connection " << c;
    }
  }

  // Sends one check on every selected connection, then reads and checks
  // every reply: all requests are in flight at once.
  auto round = [&](bool no_cache, auto selected) {
    for (int c = 0; c < kConnections; ++c) {
      if (!selected(c)) continue;
      const size_t slot = static_cast<size_t>(c / 2);
      const bool sent =
          c % 2 == 0 ? line[slot]->Send(line_check(page_of(c), no_cache))
                     : http[slot]->SendCheck(http_check(page_of(c), no_cache));
      ASSERT_TRUE(sent) << "connection " << c;
    }
    for (int c = 0; c < kConnections; ++c) {
      if (!selected(c)) continue;
      const size_t slot = static_cast<size_t>(c / 2);
      std::string body;
      if (c % 2 == 0) {
        ASSERT_TRUE(RecvLine(line[slot]->fd(), &body)) << "connection " << c;
      } else {
        body = http[slot]->RecvBody();
      }
      ASSERT_FALSE(body.empty()) << "connection " << c;
      JsonObject reply = MustParse(body);
      ASSERT_EQ(reply["status"].string_value, "OK") << "connection " << c;
      EXPECT_EQ(reply["cached"].bool_value, !no_cache) << "connection " << c;
      EXPECT_EQ(reply["flagged"].string_value,
                flagged[static_cast<size_t>(page_of(c))])
          << "connection " << c;
    }
  };
  ASSERT_NO_FATAL_FAILURE(round(false, [](int) { return true; }));
  EXPECT_EQ(server_->open_connections(),
            static_cast<size_t>(kConnections + 1));
  // Connections 0-7, 64-71, ...: both protocols and every page.
  ASSERT_NO_FATAL_FAILURE(round(true, [](int c) { return (c / 8) % 8 == 0; }));
  EXPECT_EQ(server_->connections_shed(), 0u);

  line.clear();
  http.clear();
  reference.reset();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->open_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->open_connections(), 0u);
}

// ---------------------------------------------------------------------------
// The chaos leg: swaps every ~50ms under 8 concurrent socket clients —
// 4 line-protocol keep-alive, 4 HTTP — with ZERO failed replies, and
// every reply's decisions byte-identical to the single-epoch golden of
// whichever epoch served it.

TEST(ChaosEventLoopTest, ContinuousSwapUnderLineAndHttpClients) {
  constexpr int kLineClients = 4;
  constexpr int kHttpClients = 4;
  constexpr auto kDuration = std::chrono::milliseconds(2000);
  constexpr auto kSwapInterval = std::chrono::milliseconds(50);

  // Wire-level goldens: for each variant, the reply a single-epoch
  // server serializes. Comparing serialized fields (not DimeResult
  // internals) makes the check transport-faithful.
  std::vector<JsonObject> golden;
  for (int v = 0; v < kVariants; ++v) {
    DimeService solo(MakeVariant(v), ServiceOptions{});
    golden.push_back(MustParse(
        DispatchLine(&solo, DispatchHooks{},
                     R"({"type":"check","group":"page_0","no_cache":true})")
            .line));
    ASSERT_EQ(golden.back().at("status").string_value, "OK") << v;
    solo.Shutdown();
  }
  auto expect_matches_golden = [&golden](const JsonObject& reply,
                                         const char* who) {
    ASSERT_EQ(reply.at("status").string_value, "OK") << who;
    int variant = static_cast<int>(
        (static_cast<uint64_t>(reply.at("epoch").number_value) - 1) %
        kVariants);
    const JsonObject& want = golden[static_cast<size_t>(variant)];
    ASSERT_EQ(reply.at("partitions").number_value,
              want.at("partitions").number_value)
        << who << " variant " << variant;
    ASSERT_EQ(reply.at("pivot_size").number_value,
              want.at("pivot_size").number_value)
        << who << " variant " << variant;
    ASSERT_EQ(reply.at("flagged").string_value,
              want.at("flagged").string_value)
        << who << " variant " << variant;
  };

  ServiceOptions service_options;
  service_options.num_workers = 4;
  // Roomy queue: zero failed replies means admission control must never
  // be the reason one went missing.
  service_options.queue_capacity = 4096;
  service_options.cache_capacity = 64;  // fingerprint safety under fire
  DimeService service(MakeVariant(0), service_options);
  EventLoopServer server(&service, EventLoopServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> replies{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kLineClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client(port);
      ASSERT_TRUE(client.ok());
      // Half bypass the cache: engine path and cache path both on fire.
      const std::string request =
          (c % 2 == 0)
              ? R"({"type":"check","group":"page_0","no_cache":true})"
              : R"({"type":"check","group":"page_0"})";
      while (!stop.load(std::memory_order_relaxed)) {
        std::string response = client.RoundTrip(request);
        ASSERT_FALSE(response.empty()) << "line client " << c;
        expect_matches_golden(MustParse(response), "line");
        replies.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < kHttpClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string body = (c % 2 == 0)
                                   ? R"({"group":"page_0","no_cache":true})"
                                   : R"({"group":"page_0"})";
      while (!stop.load(std::memory_order_relaxed)) {
        int http_status = 0;
        StatusOr<std::string> response =
            SendHttpRequest("127.0.0.1", port, "POST", "/v1/check", body,
                            10000, &http_status);
        ASSERT_TRUE(response.ok())
            << "http client " << c << ": " << response.status().ToString();
        ASSERT_EQ(http_status, 200) << "http client " << c;
        expect_matches_golden(MustParse(*response), "http");
        replies.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The swapper: a new epoch roughly every 50ms for the whole run.
  uint64_t next_sequence = 2;
  auto deadline = std::chrono::steady_clock::now() + kDuration;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(kSwapInterval);
    int variant = static_cast<int>((next_sequence - 1) % kVariants);
    ReloadOutcome outcome = service.InstallCorpus(MakeVariant(variant));
    ASSERT_EQ(outcome.sequence, next_sequence);
    ++next_sequence;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_GE(next_sequence - 1, 20u) << "the swapper fell badly behind";
  EXPECT_GE(replies.load(),
            static_cast<uint64_t>(kLineClients + kHttpClients))
      << "clients barely ran";
  StatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected, 0u) << "the roomy queue should never shed";

  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace dime
