#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/entity/entity.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/server/dispatch.h"
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

JsonObject MustParse(const std::string& line) {
  std::string_view body(line);
  if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
  auto parsed = ParseJsonObjectLine(body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << " in: " << line;
  return parsed.ok() ? *parsed : JsonObject{};
}

// ---------------------------------------------------------------------------
// Dispatch-level protocol tests (no sockets): transport behavior minus
// the TCP plumbing, fast enough for every CI leg.

std::string Dispatch(DimeService* service, const DispatchHooks& hooks,
                     const std::string& line) {
  return DispatchLine(service, hooks, line).line;
}

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest() : service_(MakeTestCorpus(), ServiceOptions{}) {}

  std::string Dispatch(const std::string& line) {
    return dime::Dispatch(&service_, DispatchHooks{}, line);
  }

  DimeService service_;
};

TEST_F(DispatchTest, Ping) {
  JsonObject response = MustParse(Dispatch(R"({"type":"ping"})"));
  EXPECT_EQ(response.at("status").string_value, "OK");
}

TEST_F(DispatchTest, CheckPreloadedGroupTwiceSecondIsCached) {
  const std::string request = R"({"type":"check","group":"page_0"})";
  JsonObject first = MustParse(Dispatch(request));
  EXPECT_EQ(first.at("status").string_value, "OK");
  EXPECT_FALSE(first.at("cached").bool_value);
  EXPECT_GT(first.at("partitions").number_value, 0.0);

  JsonObject second = MustParse(Dispatch(request));
  EXPECT_EQ(second.at("status").string_value, "OK");
  EXPECT_TRUE(second.at("cached").bool_value);
}

TEST_F(DispatchTest, CheckInlineGroupTsv) {
  // Round-trip an existing group through its TSV serialization.
  std::string tsv =
      GroupToTsv(service_.CurrentEpoch()->corpus().groups[0]->group());
  WireRequest request;
  request.type = WireRequest::Type::kCheck;
  request.id = "inline-1";
  request.group_tsv = tsv;
  JsonObject response = MustParse(Dispatch(SerializeRequest(request)));
  EXPECT_EQ(response.at("status").string_value, "OK");
  EXPECT_EQ(response.at("id").string_value, "inline-1");
}

TEST_F(DispatchTest, StatsReflectsTraffic) {
  Dispatch(R"({"type":"check","group":"page_0"})");
  Dispatch(R"({"type":"check","group":"page_0"})");
  JsonObject stats = MustParse(Dispatch(R"({"type":"stats"})"));
  EXPECT_EQ(stats.at("status").string_value, "OK");
  EXPECT_EQ(stats.at("accepted").number_value, 2.0);
  EXPECT_EQ(stats.at("cache_hits").number_value, 1.0);
  EXPECT_EQ(stats.at("cache_misses").number_value, 1.0);
}

TEST_F(DispatchTest, UnknownGroupIsNotFound) {
  JsonObject response =
      MustParse(Dispatch(R"({"type":"check","group":"nope"})"));
  EXPECT_EQ(response.at("status").string_value, "NOT_FOUND");
}

TEST_F(DispatchTest, BadEngineNameIsInvalidArgument) {
  // "parallel" and "sharded" named engines that no longer exist.
  for (const char* engine : {"warp", "parallel", "sharded"}) {
    const std::string line =
        std::string(R"({"type":"check","group":"page_0","engine":")") +
        engine + "\"}";
    JsonObject response = MustParse(Dispatch(line));
    EXPECT_EQ(response.at("status").string_value, "INVALID_ARGUMENT")
        << engine;
    EXPECT_NE(response.at("error").string_value.find("unknown engine"),
              std::string::npos)
        << engine;
  }
}

TEST_F(DispatchTest, MalformedLineIsParseError) {
  JsonObject response = MustParse(Dispatch("this is not json"));
  EXPECT_EQ(response.at("status").string_value, "PARSE_ERROR");
}

TEST_F(DispatchTest, MalformedGroupTsvIsError) {
  WireRequest request;
  request.type = WireRequest::Type::kCheck;
  request.group_tsv = "not\ta\tvalid\theader for this corpus schema\nx\n";
  JsonObject response = MustParse(Dispatch(SerializeRequest(request)));
  EXPECT_NE(response.at("status").string_value, "OK");
}

TEST_F(DispatchTest, IdIsEchoedOnErrors) {
  JsonObject response = MustParse(Dispatch(
      R"({"type":"check","group":"nope","id":"err-7"})"));
  EXPECT_EQ(response.at("id").string_value, "err-7");
}

/// The malformed-input table: every hostile request line fails closed —
/// a single error response, never a crash, never a partial apply — and
/// the server keeps answering afterwards.
TEST_F(DispatchTest, MalformedWireInputTable) {
  struct Case {
    const char* name;
    std::string line;
    const char* expected_status;
  };
  const Case cases[] = {
      {"truncated json", R"({"type":"check","group":"page_)",
       "PARSE_ERROR"},
      {"unterminated string", R"({"type":"check","group":"page_0)",
       "PARSE_ERROR"},
      {"nul bytes", std::string("\0\0\0\0", 4), "PARSE_ERROR"},
      {"embedded nul after json",
       std::string(R"({"type":"ping"})") + std::string("\0garbage", 8),
       "PARSE_ERROR"},
      {"garbage verb", R"({"type":"frobnicate"})", "INVALID_ARGUMENT"},
      {"wrong-typed verb", R"({"type":17})", "INVALID_ARGUMENT"},
      {"missing verb", R"({"group":"page_0"})", "INVALID_ARGUMENT"},
      {"trailing garbage", R"({"type":"ping"} and then some)",
       "PARSE_ERROR"},
      {"not an object", R"(["type","ping"])", "PARSE_ERROR"},
  };
  for (const Case& c : cases) {
    JsonObject response = MustParse(Dispatch(c.line));
    EXPECT_EQ(response.at("status").string_value, c.expected_status)
        << c.name;
    // The service is untouched: a well-formed request still works.
    JsonObject ping = MustParse(Dispatch(R"({"type":"ping"})"));
    EXPECT_EQ(ping.at("status").string_value, "OK") << "after " << c.name;
  }
}

TEST_F(DispatchTest, ReloadWithoutHandlerIsInvalidArgument) {
  JsonObject response =
      MustParse(Dispatch(R"({"type":"reload","id":"r1"})"));
  EXPECT_EQ(response.at("status").string_value, "INVALID_ARGUMENT");
  EXPECT_EQ(response.at("id").string_value, "r1");
}

TEST(DispatchReloadTest, ReloadHandlerOutcomeIsSerialized) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  DispatchHooks hooks;
  hooks.reload_handler =
      [&service](const std::string&) -> StatusOr<ReloadOutcome> {
    return service.InstallCorpus(MakeTestCorpus());
  };
  JsonObject response = MustParse(
      Dispatch(&service, hooks, R"({"type":"reload","id":"r2"})"));
  EXPECT_EQ(response.at("status").string_value, "OK");
  EXPECT_EQ(response.at("id").string_value, "r2");
  EXPECT_EQ(response.at("epoch").number_value, 2.0);
  EXPECT_EQ(response.at("groups").number_value, 1.0);
  EXPECT_FALSE(response.at("fingerprint").string_value.empty());
  // The swap took: checks now run against epoch 2.
  JsonObject check = MustParse(
      Dispatch(&service, hooks, R"({"type":"check","group":"page_0"})"));
  EXPECT_EQ(check.at("epoch").number_value, 2.0);
}

TEST(DispatchReloadTest, FingerprintFlowsToTheHandlerAndNoopFlowsBack) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  DispatchHooks hooks;
  std::string seen_fingerprint;
  hooks.reload_handler =
      [&seen_fingerprint](
          const std::string& fingerprint) -> StatusOr<ReloadOutcome> {
    seen_fingerprint = fingerprint;
    // The service-side gate matched: report the serving epoch untouched.
    ReloadOutcome outcome;
    outcome.sequence = 1;
    outcome.groups = 1;
    outcome.noop = true;
    return outcome;
  };
  const std::string fp(32, 'a');
  JsonObject response = MustParse(Dispatch(
      &service, hooks,
      R"({"type":"reload","id":"r3","fingerprint":")" + fp + "\"}"));
  EXPECT_EQ(seen_fingerprint, fp);
  EXPECT_EQ(response.at("status").string_value, "OK");
  EXPECT_TRUE(response.at("noop").bool_value);
  EXPECT_EQ(response.at("epoch").number_value, 1.0);
  // An unconditional reload hands the handler an empty gate.
  MustParse(Dispatch(&service, hooks, R"({"type":"reload"})"));
  EXPECT_TRUE(seen_fingerprint.empty());
}

TEST(DispatchReloadTest, ReloadHandlerErrorPropagates) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  DispatchHooks hooks;
  hooks.reload_handler =
      [](const std::string&) -> StatusOr<ReloadOutcome> {
    return UnavailableError("injected reload failure");
  };
  JsonObject response =
      MustParse(Dispatch(&service, hooks, R"({"type":"reload"})"));
  EXPECT_EQ(response.at("status").string_value, "UNAVAILABLE");
  // Serving is untouched by the failed reload.
  JsonObject check = MustParse(
      Dispatch(&service, hooks, R"({"type":"check","group":"page_0"})"));
  EXPECT_EQ(check.at("status").string_value, "OK");
  EXPECT_EQ(check.at("epoch").number_value, 1.0);
}

// ---------------------------------------------------------------------------
// Socket-level tests: a real server on an ephemeral port, driven by the
// same SendRequestLine helper the CLI client uses.

class SocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<DimeService>(MakeTestCorpus(),
                                             ServiceOptions{});
    server_ = std::make_unique<EventLoopServer>(service_.get(),
                                                EventLoopServerOptions{});
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);  // ephemeral port was bound
  }

  void TearDown() override {
    server_->Stop();
    service_->Shutdown();
  }

  std::string MustSend(const std::string& line) {
    StatusOr<std::string> response =
        SendRequestLine("127.0.0.1", server_->port(), line);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : std::string();
  }

  std::unique_ptr<DimeService> service_;
  std::unique_ptr<EventLoopServer> server_;
};

TEST_F(SocketTest, PingRoundTrip) {
  std::string response = MustSend(R"({"type":"ping","id":"p1"})");
  EXPECT_TRUE(StatusFromResponseLine(response).ok());
  EXPECT_EQ(MustParse(response).at("id").string_value, "p1");
}

TEST_F(SocketTest, CheckThenCachedCheckThenStats) {
  const std::string check = R"({"type":"check","group":"page_0"})";
  JsonObject first = MustParse(MustSend(check));
  EXPECT_EQ(first.at("status").string_value, "OK");
  EXPECT_FALSE(first.at("cached").bool_value);

  JsonObject second = MustParse(MustSend(check));
  EXPECT_TRUE(second.at("cached").bool_value);

  JsonObject stats = MustParse(MustSend(R"({"type":"stats"})"));
  EXPECT_EQ(stats.at("cache_hits").number_value, 1.0);
}

TEST_F(SocketTest, ParallelClientsAllGetAnswers) {
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &responses] {
      StatusOr<std::string> response = SendRequestLine(
          "127.0.0.1", server_->port(),
          R"({"type":"check","group":"page_0"})");
      if (response.ok()) responses[c] = *response;
    });
  }
  for (auto& t : clients) t.join();
  for (const std::string& response : responses) {
    ASSERT_FALSE(response.empty());
    EXPECT_TRUE(StatusFromResponseLine(response).ok());
  }
}

TEST_F(SocketTest, MalformedLineGetsErrorResponseNotDisconnect) {
  std::string response = MustSend("{broken");
  EXPECT_EQ(StatusFromResponseLine(response).code(),
            StatusCode::kParseError);
}

TEST_F(SocketTest, ShutdownRequestUnblocksWait) {
  std::thread waiter([this] { server_->Wait(); });
  std::string ack = MustSend(R"({"type":"shutdown"})");
  EXPECT_TRUE(StatusFromResponseLine(ack).ok());
  waiter.join();  // Wait() returned because shutdown was requested
  EXPECT_TRUE(server_->shutdown_requested());
}

TEST_F(SocketTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
}

TEST_F(SocketTest, RequestShutdownFromAnotherThreadUnblocksWait) {
  // The signal path: server_main's SIGTERM helper thread calls
  // RequestShutdown() instead of a wire request arriving.
  std::thread waiter([this] { server_->Wait(); });
  server_->RequestShutdown();
  waiter.join();
  EXPECT_TRUE(server_->shutdown_requested());
  // The server still answers until the owner actually Stop()s it.
  std::string response = MustSend(R"({"type":"ping"})");
  EXPECT_TRUE(StatusFromResponseLine(response).ok());
}

TEST_F(SocketTest, NulBytesOnTheWireFailClosedServerStaysUp) {
  std::string hostile("\0\0{\"type\":\"ping\"}\0", 18);
  StatusOr<std::string> response =
      SendRequestLine("127.0.0.1", server_->port(), hostile);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(StatusFromResponseLine(*response).code(),
            StatusCode::kParseError);
  // A fresh connection still works.
  EXPECT_TRUE(StatusFromResponseLine(MustSend(R"({"type":"ping"})")).ok());
}

TEST(TransportLimitsTest, OversizedLineCutsTheConnectionNotTheServer) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  EventLoopServerOptions options;
  options.max_line_bytes = 1024;  // small cap for the test
  EventLoopServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  // 4 KiB of request against a 1 KiB cap: the connection is cut without
  // buffering the flood (fails closed — no response line).
  std::string flood = R"({"type":"check","group_tsv":")";
  flood.append(4096, 'x');
  flood += "\"}";
  StatusOr<std::string> response =
      SendRequestLine("127.0.0.1", server.port(), flood, /*timeout_ms=*/5000);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kIoError);

  // The listener survives the abusive client.
  StatusOr<std::string> ping =
      SendRequestLine("127.0.0.1", server.port(), R"({"type":"ping"})");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(StatusFromResponseLine(*ping).ok());

  server.Stop();
  service.Shutdown();
}

TEST(TransportLifecycleTest, ConnectAfterStopIsUnavailable) {
  DimeService service(MakeTestCorpus(), ServiceOptions{});
  int port = 0;
  {
    EventLoopServer server(&service, EventLoopServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    server.Stop();
  }
  StatusOr<std::string> response =
      SendRequestLine("127.0.0.1", port, R"({"type":"ping"})",
                      /*timeout_ms=*/2000);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dime
