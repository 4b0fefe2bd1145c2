#include "src/server/wire.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "src/entity/entity.h"

namespace dime {
namespace {

// ---------------------------------------------------------------------------
// JSON object parsing

TEST(JsonParseTest, FlatObjectAllScalarKinds) {
  auto parsed = ParseJsonObjectLine(
      R"({"s":"hello","n":42,"neg":-3.5,"t":true,"f":false,"z":null})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonObject& obj = *parsed;
  ASSERT_EQ(obj.size(), 6u);
  EXPECT_EQ(obj.at("s").kind, JsonValue::Kind::kString);
  EXPECT_EQ(obj.at("s").string_value, "hello");
  EXPECT_EQ(obj.at("n").kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(obj.at("n").number_value, 42.0);
  EXPECT_EQ(obj.at("neg").number_value, -3.5);
  EXPECT_EQ(obj.at("t").kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(obj.at("t").bool_value);
  EXPECT_FALSE(obj.at("f").bool_value);
  EXPECT_EQ(obj.at("z").kind, JsonValue::Kind::kNull);
}

TEST(JsonParseTest, EscapesDecoded) {
  auto parsed = ParseJsonObjectLine(
      R"({"s":"a\"b\\c\/d\n\t\r\b\f"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("s").string_value, "a\"b\\c/d\n\t\r\b\f");
}

TEST(JsonParseTest, UnicodeEscapes) {
  // é = é (2-byte UTF-8), 中 = 中 (3-byte), and the surrogate
  // pair 😀 = 😀 (4-byte).
  auto parsed = ParseJsonObjectLine(
      R"({"s":"café 中 😀"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("s").string_value,
            "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80");
}

TEST(JsonParseTest, NestedValuesCapturedRaw) {
  auto parsed = ParseJsonObjectLine(
      R"({"arr":[1,2,3],"obj":{"k":"v"},"after":"x"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("arr").kind, JsonValue::Kind::kRaw);
  EXPECT_EQ(parsed->at("arr").string_value, "[1,2,3]");
  EXPECT_EQ(parsed->at("obj").kind, JsonValue::Kind::kRaw);
  EXPECT_EQ(parsed->at("obj").string_value, R"({"k":"v"})");
  // Parsing continues correctly past the raw capture.
  EXPECT_EQ(parsed->at("after").string_value, "x");
}

TEST(JsonParseTest, WhitespaceTolerated) {
  auto parsed = ParseJsonObjectLine("  { \"a\" : 1 , \"b\" : \"x\" }  ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("a").number_value, 1.0);
}

TEST(JsonParseTest, MalformedInputsAreParseErrors) {
  for (const char* bad :
       {"", "{", "}", "{\"a\":}", "{\"a\" 1}", "{\"a\":1,}", "not json",
        "{\"a\":1} trailing", "[1,2]", "{\"a\":\"unterminated}",
        "{\"a\":1 \"b\":2}", "{\"s\":\"bad \\u12 escape\"}"}) {
    auto parsed = ParseJsonObjectLine(bad);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(JsonEscapeTest, RoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 ok";
  std::string line = "{\"k\":\"" + JsonEscape(nasty) + "\"}";
  auto parsed = ParseJsonObjectLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("k").string_value, nasty);
}

// ---------------------------------------------------------------------------
// JsonLineWriter

TEST(JsonLineWriterTest, BuildsSingleTerminatedLine) {
  JsonLineWriter writer;
  writer.AddString("type", "check");
  writer.AddInt("n", -5);
  writer.AddUint("u", 7);
  writer.AddBool("b", true);
  std::string line = writer.Finish();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  // The writer's output parses back with our own parser.
  auto parsed = ParseJsonObjectLine(
      std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("type").string_value, "check");
  EXPECT_EQ(parsed->at("n").number_value, -5.0);
  EXPECT_EQ(parsed->at("u").number_value, 7.0);
  EXPECT_TRUE(parsed->at("b").bool_value);
}

TEST(JsonLineWriterTest, ArraysCaptureAsRaw) {
  JsonLineWriter writer;
  writer.AddCountArray("counts", {3, 0, 12});
  writer.AddStringArray("names", {"a\"b", "c"});
  std::string line = writer.Finish();
  auto parsed = ParseJsonObjectLine(
      std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("counts").kind, JsonValue::Kind::kRaw);
  EXPECT_EQ(parsed->at("counts").string_value, "[3,0,12]");
  EXPECT_EQ(parsed->at("names").kind, JsonValue::Kind::kRaw);
}

// ---------------------------------------------------------------------------
// Requests

TEST(WireRequestTest, SerializeParseRoundTrip) {
  WireRequest request;
  request.type = WireRequest::Type::kCheck;
  request.id = "req-1";
  request.group_name = "page_0";
  request.deadline_ms = 250;
  request.engine = "naive";
  request.no_cache = true;
  auto parsed = ParseRequestLine(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, WireRequest::Type::kCheck);
  EXPECT_EQ(parsed->id, "req-1");
  EXPECT_EQ(parsed->group_name, "page_0");
  EXPECT_EQ(parsed->deadline_ms, 250);
  EXPECT_EQ(parsed->engine, "naive");
  EXPECT_TRUE(parsed->no_cache);
}

TEST(WireRequestTest, GroupTsvRoundTripsWithEmbeddedEscapes) {
  WireRequest request;
  request.type = WireRequest::Type::kCheck;
  request.group_tsv = "id\ttitle\nr1\tA \"quoted\" title\n";
  auto parsed = ParseRequestLine(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->group_tsv, request.group_tsv);
}

TEST(WireRequestTest, AllTypesRoundTrip) {
  for (WireRequest::Type type :
       {WireRequest::Type::kCheck, WireRequest::Type::kStats,
        WireRequest::Type::kPing, WireRequest::Type::kShutdown,
        WireRequest::Type::kReload}) {
    WireRequest request;
    request.type = type;
    auto parsed = ParseRequestLine(SerializeRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->type, type);
  }
}

TEST(WireRequestTest, UnknownFieldsIgnored) {
  auto parsed = ParseRequestLine(
      R"({"type":"ping","future_field":"whatever","another":123})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, WireRequest::Type::kPing);
}

TEST(WireRequestTest, MissingTypeIsInvalidArgument) {
  auto parsed = ParseRequestLine(R"({"group":"page_0"})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, UnknownTypeIsInvalidArgument) {
  auto parsed = ParseRequestLine(R"({"type":"frobnicate"})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, WrongTypedKnownFieldIsInvalidArgument) {
  // deadline_ms must be an integer in [0, 2^31 - 1]; anything else is
  // refused before it is cast (1e300 would overflow the cast). The two
  // bounds themselves are accepted.
  struct Case {
    const char* value;
    bool ok;
  };
  for (const Case& c : {Case{"\"soon\"", false}, Case{"1e300", false},
                        Case{"-1", false}, Case{"2.5", false},
                        Case{"2147483648", false}, Case{"0", true},
                        Case{"2147483647", true}}) {
    const std::string line =
        std::string(R"({"type":"check","deadline_ms":)") + c.value + "}";
    auto parsed = ParseRequestLine(line);
    if (c.ok) {
      ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
      EXPECT_EQ(std::to_string(parsed->deadline_ms), c.value);
      continue;
    }
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.status().message().find("deadline_ms"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(WireRequestTest, MalformedJsonIsParseError) {
  auto parsed = ParseRequestLine("{\"type\":\"check\"");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Responses

TEST(WireResponseTest, PingAndShutdownCarryOkStatus) {
  EXPECT_TRUE(StatusFromResponseLine(SerializePingResponse("p1")).ok());
  EXPECT_TRUE(StatusFromResponseLine(SerializeShutdownResponse("")).ok());
  auto parsed = ParseJsonObjectLine(SerializePingResponse("p1").substr(
      0, SerializePingResponse("p1").size() - 1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("id").string_value, "p1");
}

TEST(WireResponseTest, ErrorResponseRoundTripsStatus) {
  Status original =
      ResourceExhaustedError("request queue full (capacity 4); retry later");
  std::string line = SerializeErrorResponse("r9", original);
  Status decoded = StatusFromResponseLine(line);
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(decoded.message().find("queue full"), std::string::npos);
}

TEST(WireResponseTest, EveryStatusCodeSurvivesTheWire) {
  for (int code = static_cast<int>(StatusCode::kCancelled);
       code <= static_cast<int>(StatusCode::kUnavailable); ++code) {
    Status original(static_cast<StatusCode>(code), "msg");
    Status decoded =
        StatusFromResponseLine(SerializeErrorResponse("", original));
    EXPECT_EQ(decoded.code(), original.code())
        << StatusCodeName(original.code());
  }
}

TEST(WireResponseTest, CheckResponseCarriesScrollbarShape) {
  Group group;
  group.schema = Schema({"id", "title"});
  for (int i = 0; i < 4; ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    e.values = {{e.id}, {"t"}};
    group.entities.push_back(std::move(e));
  }
  auto result = std::make_shared<DimeResult>();
  result->partitions = {{0, 1, 2}, {3}};
  result->pivot = 0;
  result->flagged_by_prefix = {{3}};
  CheckReply reply;
  reply.result = result;
  reply.cache_hit = true;

  std::string line = SerializeCheckResponse("c1", group, reply);
  EXPECT_TRUE(StatusFromResponseLine(line).ok());
  auto parsed =
      ParseJsonObjectLine(std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("id").string_value, "c1");
  EXPECT_EQ(parsed->at("status").string_value, "OK");
  EXPECT_TRUE(parsed->at("cached").bool_value);
  EXPECT_EQ(parsed->at("pivot_size").number_value, 3.0);
  // Arrays arrive as raw captures; the flagged entity id is in there.
  EXPECT_NE(parsed->at("flagged").string_value.find("e3"), std::string::npos);
}

TEST(WireResponseTest, TruncatedCheckResponseKeepsPartialsAndStatus) {
  Group group;
  group.schema = Schema({"id"});
  Entity e;
  e.id = "only";
  e.values = {{"only"}};
  group.entities.push_back(std::move(e));
  auto result = std::make_shared<DimeResult>();
  result->status = DeadlineExceededError("deadline expired at partition 1");
  result->partitions = {{0}};
  result->pivot = 0;
  CheckReply reply;
  reply.result = result;

  std::string line = SerializeCheckResponse("", group, reply);
  Status decoded = StatusFromResponseLine(line);
  EXPECT_EQ(decoded.code(), StatusCode::kDeadlineExceeded);
  auto parsed =
      ParseJsonObjectLine(std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok());
  // Partial scrollbar still present alongside the non-OK status.
  EXPECT_EQ(parsed->at("pivot_size").number_value, 1.0);
}

TEST(WireResponseTest, StatsResponseCarriesCounters) {
  StatsSnapshot stats;
  stats.accepted = 10;
  stats.rejected = 2;
  stats.completed = 9;
  stats.cache_hits = 4;
  stats.cache_misses = 6;
  stats.queue_capacity = 64;
  stats.workers = 8;
  stats.pairs_skipped_by_transitivity = 123;
  stats.kernel_early_exits = 456;
  stats.p50_ms = 1.024;
  stats.p99_ms = 16.384;
  std::string line = SerializeStatsResponse("s1", stats);
  EXPECT_TRUE(StatusFromResponseLine(line).ok());
  auto parsed =
      ParseJsonObjectLine(std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("accepted").number_value, 10.0);
  EXPECT_EQ(parsed->at("rejected").number_value, 2.0);
  EXPECT_EQ(parsed->at("cache_hits").number_value, 4.0);
  EXPECT_EQ(parsed->at("cache_misses").number_value, 6.0);
  EXPECT_EQ(parsed->at("workers").number_value, 8.0);
  EXPECT_EQ(parsed->at("pairs_skipped_by_transitivity").number_value, 123.0);
  EXPECT_EQ(parsed->at("kernel_early_exits").number_value, 456.0);
  EXPECT_GT(parsed->at("p99_ms").number_value, 0.0);
}

TEST(WireResponseTest, ReloadResponseCarriesEpochAndFingerprint) {
  ReloadOutcome outcome;
  outcome.sequence = 7;
  outcome.fingerprint_lo = 0x0123456789abcdefULL;
  outcome.fingerprint_hi = 0xfedcba9876543210ULL;
  outcome.groups = 3;
  outcome.delta_records = 12;
  outcome.groups_prepared = 2;
  std::string line = SerializeReloadResponse("r1", outcome);
  EXPECT_TRUE(StatusFromResponseLine(line).ok());
  auto parsed =
      ParseJsonObjectLine(std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("id").string_value, "r1");
  EXPECT_EQ(parsed->at("epoch").number_value, 7.0);
  // hi word first — the order every log line and dime_snapshot print,
  // so operators can paste a logged fingerprint into a gated reload.
  EXPECT_EQ(parsed->at("fingerprint").string_value,
            "fedcba98765432100123456789abcdef");
  EXPECT_EQ(parsed->at("groups").number_value, 3.0);
  EXPECT_EQ(parsed->at("delta_records").number_value, 12.0);
  // What the merge cost, next to what it applied.
  EXPECT_EQ(parsed->at("groups_prepared").number_value, 2.0);
  EXPECT_NE(line.find("\"delta_records\":12,\"groups_prepared\":2"),
            std::string::npos);
  // torn_tail is emitted only when true, to keep the happy path terse.
  EXPECT_EQ(parsed->count("torn_tail"), 0u);

  outcome.torn_tail = true;
  std::string torn = SerializeReloadResponse("", outcome);
  auto reparsed =
      ParseJsonObjectLine(std::string_view(torn.data(), torn.size() - 1));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->at("torn_tail").bool_value);
}

TEST(WireRequestTest, ReloadFingerprintRoundTrips) {
  WireRequest request;
  request.type = WireRequest::Type::kReload;
  request.id = "r9";
  request.fingerprint = "0123456789abcdeffedcba9876543210";
  auto parsed = ParseRequestLine(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, WireRequest::Type::kReload);
  EXPECT_EQ(parsed->fingerprint, request.fingerprint);
  // Unconditional reloads stay terse: no fingerprint field at all.
  WireRequest plain;
  plain.type = WireRequest::Type::kReload;
  EXPECT_EQ(SerializeRequest(plain).find("fingerprint"), std::string::npos);
  auto reparsed = ParseRequestLine(SerializeRequest(plain));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->fingerprint.empty());
}

TEST(WireRequestTest, WrongTypedFingerprintIsInvalidArgument) {
  auto parsed = ParseRequestLine(R"({"type":"reload","fingerprint":17})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireResponseTest, NoopReloadResponseSaysSo) {
  ReloadOutcome outcome;
  outcome.sequence = 4;
  outcome.groups = 2;
  std::string line = SerializeReloadResponse("", outcome);
  auto parsed =
      ParseJsonObjectLine(std::string_view(line.data(), line.size() - 1));
  ASSERT_TRUE(parsed.ok());
  // Like torn_tail, noop is emitted only when it happened.
  EXPECT_EQ(parsed->count("noop"), 0u);

  outcome.noop = true;
  std::string noop_line = SerializeReloadResponse("", outcome);
  auto reparsed = ParseJsonObjectLine(
      std::string_view(noop_line.data(), noop_line.size() - 1));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->at("noop").bool_value);
  EXPECT_EQ(reparsed->at("epoch").number_value, 4.0);
}

TEST(WireResponseTest, NonResponseLineIsParseError) {
  EXPECT_EQ(StatusFromResponseLine("garbage").code(),
            StatusCode::kParseError);
  // A well-formed object without "status" is not a response.
  EXPECT_EQ(StatusFromResponseLine(R"({"id":"x"})").code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace dime
