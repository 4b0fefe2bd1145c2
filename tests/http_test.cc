// The HTTP/1.1 front door: parser units (fail-closed grammar), the
// malformed-input table over real sockets (connection cut, server stays
// up — run under ASan+UBSan in CI), routing, keep-alive, and the
// SendHttpRequest client helper. The transport under test is the same
// event-loop server the line protocol rides; cross-protocol behavior
// (sniffing, shed, chaos) lives in event_loop_test.cc.

#include "src/server/http.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/server/event_loop.h"
#include "src/server/net_util.h"
#include "src/server/wire.h"

namespace dime {
namespace {

ServingCorpus MakeTestCorpus() {
  Corpus corpus = MakeDemoCorpus(0);
  ScholarGenOptions gen;
  gen.num_correct = 40;
  gen.seed = 77;
  Group page = GenerateScholarGroup("Owner", gen);
  page.name = "page_0";
  corpus.groups.push_back(std::move(page));
  return PrepareCorpus(std::move(corpus));
}

JsonObject MustParseBody(const std::string& line) {
  std::string_view body(line);
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  auto parsed = ParseJsonObjectLine(body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in: " << line;
  return parsed.ok() ? *parsed : JsonObject{};
}

// ---------------------------------------------------------------------------
// Parser units (no sockets).

HttpParseResult Parse(std::string_view buffer, HttpRequest* out,
                      HttpLimits limits = HttpLimits{}) {
  return ParseHttpRequest(buffer, limits, out);
}

TEST(HttpParseTest, SimpleGetParses) {
  HttpRequest request;
  const std::string_view raw = "GET /v1/ping HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpParseResult result = Parse(raw, &request);
  ASSERT_EQ(result.outcome, HttpParseOutcome::kOk);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/v1/ping");
  EXPECT_TRUE(request.keep_alive);
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpParseTest, PostWithContentLengthCarriesBody) {
  HttpRequest request;
  const std::string_view raw =
      "POST /v1/check HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpParseResult result = Parse(raw, &request);
  ASSERT_EQ(result.outcome, HttpParseOutcome::kOk);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(request.body, "hello");
}

TEST(HttpParseTest, IncrementalFeedNeedsMoreUntilComplete) {
  const std::string raw =
      "POST /v1/check HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  // Every strict prefix is kNeedMore; the full buffer parses.
  for (size_t cut = 0; cut < raw.size(); ++cut) {
    HttpRequest request;
    HttpParseResult result = Parse(std::string_view(raw).substr(0, cut),
                                   &request);
    EXPECT_EQ(result.outcome, HttpParseOutcome::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
  HttpRequest request;
  EXPECT_EQ(Parse(raw, &request).outcome, HttpParseOutcome::kOk);
}

TEST(HttpParseTest, PipelinedSecondRequestIsNotConsumed) {
  HttpRequest request;
  const std::string one = "GET /v1/ping HTTP/1.1\r\n\r\n";
  const std::string two = one + "GET /v1/stats HTTP/1.1\r\n\r\n";
  HttpParseResult result = Parse(two, &request);
  ASSERT_EQ(result.outcome, HttpParseOutcome::kOk);
  EXPECT_EQ(result.consumed, one.size());
  EXPECT_EQ(request.target, "/v1/ping");
}

TEST(HttpParseTest, ConnectionCloseAndHttp10DisableKeepAlive) {
  HttpRequest request;
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &request)
                .outcome,
            HttpParseOutcome::kOk);
  EXPECT_FALSE(request.keep_alive);
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\n\r\n", &request).outcome,
            HttpParseOutcome::kOk);
  EXPECT_FALSE(request.keep_alive);
  ASSERT_EQ(
      Parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", &request)
          .outcome,
      HttpParseOutcome::kOk);
  EXPECT_TRUE(request.keep_alive);
}

/// The fail-closed grammar table: every hostile head is kBad with the
/// documented status, never a guess, never an over-read.
TEST(HttpParseTest, MalformedHeadTable) {
  struct Case {
    const char* name;
    std::string raw;
    int expected_status;
  };
  HttpLimits limits;
  limits.max_request_line_bytes = 128;
  limits.max_header_bytes = 512;
  limits.max_headers = 4;
  limits.max_body_bytes = 1024;
  const Case cases[] = {
      {"bare-LF request line", "GET /v1/ping HTTP/1.1\n\r\n\r\n", 400},
      {"one-token request line", "GARBAGE\r\n\r\n", 400},
      {"two-token request line", "GET /v1/ping\r\n\r\n", 400},
      {"double space", "GET  /v1/ping HTTP/1.1\r\n\r\n", 400},
      {"lowercase method", "get /v1/ping HTTP/1.1\r\n\r\n", 400},
      {"non-origin target", "GET v1/ping HTTP/1.1\r\n\r\n", 400},
      {"wrong version", "GET /v1/ping HTTP/2.0\r\n\r\n", 505},
      {"nul in head",
       std::string("GET /v1/ping HTTP/1.1\r\nX: a\0b\r\n\r\n", 33), 400},
      {"folded header", "GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
      {"space in header name", "GET / HTTP/1.1\r\nBad Name: 1\r\n\r\n", 400},
      {"headerless colonless line", "GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
      {"non-numeric content-length",
       "POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400},
      {"negative content-length",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"conflicting content-lengths",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
       400},
      {"content-length over cap",
       "POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n", 413},
      {"transfer-encoding refused",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"request line over cap",
       "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n", 431},
      {"header bomb over cap",
       "GET / HTTP/1.1\r\nX: " + std::string(600, 'h') + "\r\n\r\n", 431},
      {"too many headers",
       "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\n\r\n", 431},
  };
  for (const Case& c : cases) {
    HttpRequest request;
    HttpParseResult result = ParseHttpRequest(c.raw, limits, &request);
    EXPECT_EQ(result.outcome, HttpParseOutcome::kBad) << c.name;
    EXPECT_EQ(result.error_status, c.expected_status) << c.name;
    EXPECT_FALSE(result.error.empty()) << c.name;
  }
}

TEST(HttpParseTest, NulByteIsBadEvenInAPartialHead) {
  // The smuggling check cannot wait for the full head: a NUL is hostile
  // the moment it appears.
  HttpRequest request;
  HttpParseResult result =
      Parse(std::string_view("GET /\0", 6), &request);
  EXPECT_EQ(result.outcome, HttpParseOutcome::kBad);
  EXPECT_EQ(result.error_status, 400);
}

TEST(HttpParseTest, OversizedRequestLineIsBadBeforeItCompletes) {
  HttpLimits limits;
  limits.max_request_line_bytes = 64;
  HttpRequest request;
  // No CRLF yet — but the line already blew the cap, so fail now instead
  // of buffering a line that can never become legal.
  std::string raw = "GET /" + std::string(100, 'a');
  HttpParseResult result = ParseHttpRequest(raw, limits, &request);
  EXPECT_EQ(result.outcome, HttpParseOutcome::kBad);
  EXPECT_EQ(result.error_status, 431);
}

TEST(HttpSniffTest, LooksLikeHttpSeparatesProtocols) {
  EXPECT_TRUE(LooksLikeHttp("GET /v1/ping HTTP/1.1\r\n"));
  EXPECT_TRUE(LooksLikeHttp("POST"));
  EXPECT_FALSE(LooksLikeHttp("{\"type\":\"ping\"}"));
  EXPECT_FALSE(LooksLikeHttp("garbage"));  // lowercase: not a method
}

TEST(HttpStatusTest, StatusMappingMatchesContract) {
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kParseError), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kSchemaMismatch), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kResourceExhausted), 503);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnavailable), 503);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kIoError), 500);
}

TEST(HttpSerializeTest, ResponseCarriesFramingHeaders) {
  std::string response = SerializeHttpResponse(200, "{\"a\":1}\n", true);
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 8\r\n"), std::string::npos);
  EXPECT_EQ(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 8), "{\"a\":1}\n");

  std::string closing = SerializeHttpResponse(503, "{}\n", false);
  EXPECT_NE(closing.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Socket-level tests: the real event-loop transport on an ephemeral
// port, driven by SendHttpRequest and by raw sockets for hostile input.

class HttpSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<DimeService>(MakeTestCorpus(),
                                             ServiceOptions{});
    server_ = std::make_unique<EventLoopServer>(service_.get(),
                                                EventLoopServerOptions{});
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    server_->Stop();
    service_->Shutdown();
  }

  int port() const { return server_->port(); }

  /// Raw connection for hostile bytes; reads until EOF. The send may
  /// legitimately fail mid-flight (the server cut an abusive connection
  /// with unread input queued, which RSTs), so its result is advisory.
  std::string RawRoundTrip(const std::string& bytes) {
    int fd = ConnectToHost("127.0.0.1", port(), /*timeout_ms=*/10000);
    EXPECT_GE(fd, 0);
    if (fd < 0) return "";
    (void)SendAll(fd, bytes);  // lint: unchecked-status-ok(RST mid-send is a legal server response to abuse)
    ::shutdown(fd, SHUT_WR);  // EOF tells the server no more is coming
    std::string response;
    char buf[4096];
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  }

  std::unique_ptr<DimeService> service_;
  std::unique_ptr<EventLoopServer> server_;
};

TEST_F(HttpSocketTest, PingRoundTrip) {
  int http_status = 0;
  StatusOr<std::string> body = SendHttpRequest(
      "127.0.0.1", port(), "GET", "/v1/ping", "", 10000, &http_status);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(http_status, 200);
  JsonObject response = MustParseBody(*body);
  EXPECT_EQ(response.at("status").string_value, "OK");
}

TEST_F(HttpSocketTest, CheckNamedGroupMatchesLineProtocolReply) {
  int http_status = 0;
  StatusOr<std::string> body =
      SendHttpRequest("127.0.0.1", port(), "POST", "/v1/check",
                      R"({"group":"page_0","id":"h1"})", 10000, &http_status);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(http_status, 200);
  // One schema across protocols: the HTTP body IS a line-protocol reply.
  StatusOr<std::string> line = SendRequestLine(
      "127.0.0.1", port(), R"({"type":"check","group":"page_0","id":"h1"})");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  JsonObject from_http = MustParseBody(*body);
  JsonObject from_line = MustParseBody(*line);
  EXPECT_EQ(from_http.at("flagged").string_value,
            from_line.at("flagged").string_value);
  EXPECT_EQ(from_http.at("partitions").number_value,
            from_line.at("partitions").number_value);
}

TEST_F(HttpSocketTest, StatsAndErrorsMapToHttpStatuses) {
  int http_status = 0;
  StatusOr<std::string> stats = SendHttpRequest(
      "127.0.0.1", port(), "GET", "/v1/stats", "", 10000, &http_status);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(http_status, 200);

  // Unknown group: 404 with the error body.
  StatusOr<std::string> missing =
      SendHttpRequest("127.0.0.1", port(), "POST", "/v1/check",
                      R"({"group":"nope"})", 10000, &http_status);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(http_status, 404);
  EXPECT_EQ(MustParseBody(*missing).at("status").string_value, "NOT_FOUND");

  // Unknown route: 404. Wrong method on a known route: 405.
  StatusOr<std::string> unknown_route = SendHttpRequest(
      "127.0.0.1", port(), "GET", "/v2/nope", "", 10000, &http_status);
  ASSERT_TRUE(unknown_route.ok());
  EXPECT_EQ(http_status, 404);
  StatusOr<std::string> wrong_method = SendHttpRequest(
      "127.0.0.1", port(), "GET", "/v1/check", "", 10000, &http_status);
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(http_status, 405);

  // Reload without a configured source: 400 INVALID_ARGUMENT.
  StatusOr<std::string> reload = SendHttpRequest(
      "127.0.0.1", port(), "POST", "/v1/reload", "{}", 10000, &http_status);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(http_status, 400);
}

TEST_F(HttpSocketTest, KeepAliveServesManyRequestsOnOneConnection) {
  int fd = ConnectToHost("127.0.0.1", port(), 10000);
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(SendAll(fd, "GET /v1/ping HTTP/1.1\r\n\r\n"));
    std::string head;
    char c = 0;
    // Read the response head, then its body by Content-Length.
    while (head.find("\r\n\r\n") == std::string::npos) {
      ASSERT_EQ(::read(fd, &c, 1), 1) << "iteration " << i;
      head.push_back(c);
    }
    EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
    size_t cl_at = head.find("Content-Length: ");
    ASSERT_NE(cl_at, std::string::npos);
    size_t body_len = std::stoul(head.substr(cl_at + 16));
    std::string body(body_len, '\0');
    size_t got = 0;
    while (got < body_len) {
      ssize_t n = ::read(fd, body.data() + got, body_len - got);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    EXPECT_EQ(MustParseBody(body).at("status").string_value, "OK");
  }
  ::close(fd);
}

/// The malformed-HTTP table over real sockets: every hostile request is
/// answered with its documented status (when a response is possible at
/// all), the CONNECTION is cut, and the server keeps serving.
TEST_F(HttpSocketTest, MalformedRequestsCutTheConnectionNotTheServer) {
  struct Case {
    const char* name;
    std::string bytes;
    const char* expected_head;  ///< nullptr: any response (or none)
  };
  const Case cases[] = {
      {"truncated request line then close", "GET /v1/pi", nullptr},
      {"bare-LF line endings", "GET /v1/ping HTTP/1.1\n\r\n\r\n",
       "HTTP/1.1 400 "},
      {"two-token request line", "GET /v1/ping\r\n\r\n", "HTTP/1.1 400 "},
      {"wrong version", "GET /v1/ping HTTP/9.9\r\n\r\n", "HTTP/1.1 505 "},
      {"nul bytes in head",
       std::string("GET /v1/ping HTTP/1.1\r\nX: a\0b\r\n\r\n", 33),
       "HTTP/1.1 400 "},
      {"non-numeric content-length",
       "POST /v1/check HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
       "HTTP/1.1 400 "},
      {"oversized content-length",
       "POST /v1/check HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
       "HTTP/1.1 413 "},
      {"chunked refused",
       "POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       "HTTP/1.1 501 "},
      // The header bomb: the server fails at the 32 KiB cap while the
      // flood may still be in flight, so the cut can RST the 431 away —
      // the assertable contract is "connection cut, server alive".
      {"header bomb past the cap",
       "GET /v1/ping HTTP/1.1\r\nX-Bomb: " + std::string(40 << 10, 'b') +
           "\r\n\r\n",
       nullptr},
      {"pipelined garbage after a good request",
       "GET /v1/ping HTTP/1.1\r\n\r\n@@@not-http@@@\r\n\r\n", nullptr},
  };
  for (const Case& c : cases) {
    std::string response = RawRoundTrip(c.bytes);  // read-to-EOF: cut
    if (c.expected_head != nullptr) {
      EXPECT_EQ(response.find(c.expected_head), 0u)
          << c.name << " got: " << response.substr(0, 64);
    }
    // The server survived: a well-formed request on a NEW connection
    // still answers.
    int http_status = 0;
    StatusOr<std::string> alive = SendHttpRequest(
        "127.0.0.1", port(), "GET", "/v1/ping", "", 10000, &http_status);
    ASSERT_TRUE(alive.ok()) << "after " << c.name << ": "
                            << alive.status().ToString();
    EXPECT_EQ(http_status, 200) << "after " << c.name;
  }
}

TEST_F(HttpSocketTest, PipelinedGoodRequestAnswersBeforeTheBadOneCuts) {
  // One write: a valid ping, then garbage. The ping's response must
  // arrive (serial ordering), THEN the connection is cut with a 400.
  std::string response =
      RawRoundTrip("GET /v1/ping HTTP/1.1\r\n\r\nGARBAGE~~~\r\n\r\n");
  EXPECT_EQ(response.find("HTTP/1.1 200 OK"), 0u)
      << response.substr(0, 64);
  EXPECT_NE(response.find("HTTP/1.1 400 "), std::string::npos)
      << response.substr(0, 200);
}

TEST(HttpReloadTest, FingerprintInTheBodyReachesTheHandler) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  EventLoopServerOptions options;
  std::string seen_fingerprint;
  options.hooks.reload_handler =
      [&seen_fingerprint](
          const std::string& fingerprint) -> StatusOr<ReloadOutcome> {
    seen_fingerprint = fingerprint;
    ReloadOutcome outcome;
    outcome.sequence = 1;
    outcome.groups = 1;
    outcome.noop = true;
    return outcome;
  };
  EventLoopServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  const std::string fp(32, 'b');
  int http_status = 0;
  StatusOr<std::string> body = SendHttpRequest(
      "127.0.0.1", server.port(), "POST", "/v1/reload",
      R"({"fingerprint":")" + fp + "\"}", 10000, &http_status);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(http_status, 200);
  EXPECT_EQ(seen_fingerprint, fp);
  JsonObject response = MustParseBody(*body);
  EXPECT_EQ(response.at("status").string_value, "OK");
  EXPECT_TRUE(response.at("noop").bool_value);
  server.Stop();
  service.Shutdown();
}

TEST_F(HttpSocketTest, ShutdownVerbDrainsExactlyLikeTheLineProtocol) {
  int http_status = 0;
  StatusOr<std::string> body = SendHttpRequest(
      "127.0.0.1", port(), "POST", "/v1/shutdown", "", 10000, &http_status);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(http_status, 200);
  EXPECT_EQ(MustParseBody(*body).at("status").string_value, "OK");
  // The ack unblocked Wait() — the owner's drain path, same as the wire
  // verb on the line protocol.
  server_->Wait();
  EXPECT_TRUE(server_->shutdown_requested());
}

}  // namespace
}  // namespace dime
