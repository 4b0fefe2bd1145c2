#ifndef DIME_SERVER_WIRE_H_
#define DIME_SERVER_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/server/service.h"

/// \file wire.h
/// The server's wire protocol: line-delimited JSON over a byte stream.
/// One request per line, one response line per request, in order. The
/// grammar is deliberately tiny (see DESIGN.md "Serving layer"):
///
///   request  := '{' members '}' '\n'        (a FLAT json object: values
///                                            are strings, numbers, bools
///                                            or null — never nested)
///   fields   := "type"        "check" | "stats" | "ping" | "shutdown"
///                             | "reload"
///               "id"          echoed verbatim in the response (optional)
///               -- check only:
///               "group"       name of a preloaded corpus group
///               "group_tsv"   inline group in GroupToTsv format
///               "deadline_ms" integer in [0, 2^31 - 1]; 0/absent =
///                             server default
///               "engine"      "naive" | "plus" (the server runs "plus"
///                             on its engine pool from 8192 entities)
///               "no_cache"    bool; true bypasses the result cache
///
/// "reload" asks the server to re-read its corpus source (the snapshot
/// it was started from, plus any pending delta log) and swap the result
/// in as a new epoch; the server decides the paths, never the client.
/// Servers without a reloadable source answer INVALID_ARGUMENT. An
/// optional "fingerprint" field (32 wire-hex digits, exactly as a reload
/// response reports it) makes the swap coordinated: already-matching
/// servers answer OK with "noop":true without reloading, and a snapshot
/// whose fingerprint differs from the requested one is refused
/// INVALID_ARGUMENT instead of installed (see
/// DimeService::ReloadFromSnapshot).
///
/// Responses are also single-line JSON objects; every one carries
/// "status" (a StatusCode name, "OK" on success) and echoes "id". Arrays
/// appear only in responses, so the request parser stays flat; the
/// parser still captures nested values as raw text (kRaw) so a client
/// can parse a response with the same function.
///
/// Unknown request fields are ignored (forward compatibility); unknown
/// "type" values are answered with INVALID_ARGUMENT.

namespace dime {

/// One parsed JSON scalar. kRaw holds the unparsed text of a nested
/// array/object value (responses only; requests never nest).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kRaw };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;  ///< decoded for kString; verbatim for kRaw
};

/// A flat JSON object (field order is irrelevant to the protocol).
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// Parses one line holding exactly one JSON object. PARSE_ERROR on
/// malformed input or trailing garbage.
StatusOr<JsonObject> ParseJsonObjectLine(std::string_view line);

/// JSON string escaping of `s` (no surrounding quotes).
std::string JsonEscape(std::string_view s);

/// Builds one single-line JSON object; Finish() terminates it with '\n'
/// (the line delimiter IS the message delimiter).
class JsonLineWriter {
 public:
  JsonLineWriter() : out_("{") {}
  void AddString(std::string_view key, std::string_view value);
  void AddInt(std::string_view key, int64_t value);
  void AddUint(std::string_view key, uint64_t value);
  void AddDouble(std::string_view key, double value);
  void AddBool(std::string_view key, bool value);
  void AddCountArray(std::string_view key, const std::vector<size_t>& values);
  void AddStringArray(std::string_view key,
                      const std::vector<std::string>& values);
  std::string Finish();

 private:
  void Key(std::string_view key);
  std::string out_;
  bool first_ = true;
};

/// A decoded request.
struct WireRequest {
  enum class Type { kCheck, kStats, kPing, kShutdown, kReload };
  Type type = Type::kCheck;
  std::string id;
  std::string group_name;
  std::string group_tsv;
  int64_t deadline_ms = 0;
  std::string engine;  ///< empty = server default
  bool no_cache = false;
  /// reload only: expected content fingerprint (32 wire-hex digits, as a
  /// prior reload response reported). Empty = unconditional reload.
  std::string fingerprint;
};

/// Decodes a request line. PARSE_ERROR for malformed JSON,
/// INVALID_ARGUMENT for a well-formed object with a missing/unknown
/// "type" or a wrong-typed known field.
StatusOr<WireRequest> ParseRequestLine(std::string_view line);

/// Decodes the request FIELDS of `object` under an externally-decided
/// type, with exactly ParseRequestLine's validation. This is how the
/// HTTP front door reuses the grammar: there the verb comes from the
/// route (POST /v1/check), not from a "type" field in the body.
StatusOr<WireRequest> RequestFromJson(const JsonObject& object,
                                      WireRequest::Type type);

/// Encodes a request (the client side of ParseRequestLine).
std::string SerializeRequest(const WireRequest& request);

/// Response serializers (each returns one '\n'-terminated line).
std::string SerializeErrorResponse(const std::string& id,
                                   const Status& status);
/// `group` must be the group the reply was computed on (entity ids).
std::string SerializeCheckResponse(const std::string& id, const Group& group,
                                   const CheckReply& reply);
std::string SerializeStatsResponse(const std::string& id,
                                   const StatsSnapshot& stats);
std::string SerializePingResponse(const std::string& id);
std::string SerializeShutdownResponse(const std::string& id);
/// Successful corpus swap: the new epoch's sequence, fingerprint (hex),
/// group count, applied delta records and the groups the swap prepared.
std::string SerializeReloadResponse(const std::string& id,
                                    const ReloadOutcome& outcome);

/// Client-side helper: the Status encoded in a response line — OK when
/// "status" is "OK", the decoded code + "error" message otherwise, and
/// PARSE_ERROR when the line is not a valid response at all.
Status StatusFromResponseLine(std::string_view line);

}  // namespace dime

#endif  // DIME_SERVER_WIRE_H_
