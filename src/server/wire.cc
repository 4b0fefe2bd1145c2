#include "src/server/wire.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/string_util.h"

namespace dime {
namespace {

/// Recursive-descent parser over a single line. Positions are byte
/// offsets; the grammar is ASCII, string contents may be any UTF-8.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonObject> ParseObjectLine() {
    SkipWs();
    JsonObject object;
    DIME_RETURN_IF_ERROR(ParseObjectInto(&object));
    SkipWs();
    if (pos_ != text_.size()) {
      return ParseError("trailing bytes after JSON object");
    }
    return object;
  }

 private:
  Status ParseObjectInto(JsonObject* object) {
    DIME_RETURN_IF_ERROR(Expect('{'));
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return OkStatus();
    }
    while (true) {
      SkipWs();
      std::string key;
      DIME_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      DIME_RETURN_IF_ERROR(Expect(':'));
      SkipWs();
      JsonValue value;
      DIME_RETURN_IF_ERROR(ParseValue(&value));
      (*object)[std::move(key)] = std::move(value);
      SkipWs();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return OkStatus();
      }
      return ParseError("expected ',' or '}' in object");
    }
  }

  Status ParseValue(JsonValue* out) {
    char c = Peek();
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == '[' || c == '{') {
      // Nested values are captured verbatim (kRaw): requests never nest,
      // and response clients only need the raw text or the scalars.
      out->kind = JsonValue::Kind::kRaw;
      return CaptureBalanced(&out->string_value);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      if (text_.substr(pos_, 4) == "true") {
        out->bool_value = true;
        pos_ += 4;
        return OkStatus();
      }
      if (text_.substr(pos_, 5) == "false") {
        out->bool_value = false;
        pos_ += 5;
        return OkStatus();
      }
      return ParseError("bad literal");
    }
    if (c == 'n') {
      if (text_.substr(pos_, 4) == "null") {
        out->kind = JsonValue::Kind::kNull;
        pos_ += 4;
        return OkStatus();
      }
      return ParseError("bad literal");
    }
    return ParseNumber(out);
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return ParseError("expected a JSON value");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value =
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr);
    return OkStatus();
  }

  Status ParseString(std::string* out) {
    DIME_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return OkStatus();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          DIME_RETURN_IF_ERROR(ParseHex4(&code));
          // Surrogate pair -> one code point.
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            DIME_RETURN_IF_ERROR(ParseHex4(&low));
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return ParseError("bad surrogate pair");
            }
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return ParseError("bad escape");
      }
    }
    return ParseError("unterminated string");
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return ParseError("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return ParseError("bad \\u escape");
    }
    *out = v;
    return OkStatus();
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Captures a balanced [...] or {...} (strings respected) verbatim.
  Status CaptureBalanced(std::string* out) {
    size_t start = pos_;
    int depth = 0;
    bool in_string = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (in_string) {
        if (c == '\\') {
          ++pos_;  // skip the escaped char too
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          ++pos_;
          *out = std::string(text_.substr(start, pos_ - start));
          return OkStatus();
        }
      }
      ++pos_;
    }
    return ParseError("unterminated array/object");
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Expect(char c) {
    if (Peek() != c) {
      return ParseError(std::string("expected '") + c + "'");
    }
    ++pos_;
    return OkStatus();
  }

  Status ParseError(std::string what) {
    return dime::ParseError("json: " + what + " at byte " +
                            std::to_string(pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

const JsonValue* Find(const JsonObject& object, std::string_view key) {
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

}  // namespace

StatusOr<JsonObject> ParseJsonObjectLine(std::string_view line) {
  return JsonParser(line).ParseObjectLine();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

void JsonLineWriter::Key(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
}

void JsonLineWriter::AddString(std::string_view key, std::string_view value) {
  Key(key);
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
}

void JsonLineWriter::AddInt(std::string_view key, int64_t value) {
  Key(key);
  out_ += std::to_string(value);
}

void JsonLineWriter::AddUint(std::string_view key, uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
}

void JsonLineWriter::AddDouble(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no inf/nan
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonLineWriter::AddBool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
}

void JsonLineWriter::AddCountArray(std::string_view key,
                                   const std::vector<size_t>& values) {
  Key(key);
  out_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out_ += ',';
    out_ += std::to_string(values[i]);
  }
  out_ += ']';
}

void JsonLineWriter::AddStringArray(std::string_view key,
                                    const std::vector<std::string>& values) {
  Key(key);
  out_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out_ += ',';
    out_ += '"';
    out_ += JsonEscape(values[i]);
    out_ += '"';
  }
  out_ += ']';
}

std::string JsonLineWriter::Finish() {
  out_ += "}\n";
  return std::move(out_);
}

StatusOr<WireRequest> RequestFromJson(const JsonObject& object,
                                      WireRequest::Type type) {
  WireRequest request;
  request.type = type;

  // A helper per field type; wrong-typed known fields are rejected rather
  // than silently zeroed, unknown fields are ignored.
  auto get_string = [&](const char* key, std::string* out) -> Status {
    const JsonValue* v = Find(object, key);
    if (v == nullptr) return OkStatus();
    if (v->kind != JsonValue::Kind::kString) {
      return InvalidArgumentError(std::string("field \"") + key +
                                  "\" must be a string");
    }
    *out = v->string_value;
    return OkStatus();
  };
  DIME_RETURN_IF_ERROR(get_string("id", &request.id));
  DIME_RETURN_IF_ERROR(get_string("group", &request.group_name));
  DIME_RETURN_IF_ERROR(get_string("group_tsv", &request.group_tsv));
  DIME_RETURN_IF_ERROR(get_string("engine", &request.engine));
  DIME_RETURN_IF_ERROR(get_string("fingerprint", &request.fingerprint));

  if (const JsonValue* v = Find(object, "deadline_ms")) {
    // Range-check before the cast: converting an out-of-range double
    // (1e300) to an integer is undefined behaviour. The bound is the one
    // --default-deadline-ms takes.
    const double ms = v->number_value;
    if (v->kind != JsonValue::Kind::kNumber || !(ms >= 0) ||
        ms > static_cast<double>(kMaxFlagMillis) || ms != std::floor(ms)) {
      return InvalidArgumentError(
          "field \"deadline_ms\" must be an integer in [0, " +
          std::to_string(kMaxFlagMillis) + "]");
    }
    request.deadline_ms = static_cast<int64_t>(ms);
  }
  if (const JsonValue* v = Find(object, "no_cache")) {
    if (v->kind != JsonValue::Kind::kBool) {
      return InvalidArgumentError("field \"no_cache\" must be a bool");
    }
    request.no_cache = v->bool_value;
  }
  return request;
}

StatusOr<WireRequest> ParseRequestLine(std::string_view line) {
  DIME_ASSIGN_OR_RETURN(JsonObject object, ParseJsonObjectLine(line));

  const JsonValue* type = Find(object, "type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) {
    return InvalidArgumentError("request needs a string \"type\" field");
  }
  WireRequest::Type parsed_type;
  if (type->string_value == "check") {
    parsed_type = WireRequest::Type::kCheck;
  } else if (type->string_value == "stats") {
    parsed_type = WireRequest::Type::kStats;
  } else if (type->string_value == "ping") {
    parsed_type = WireRequest::Type::kPing;
  } else if (type->string_value == "shutdown") {
    parsed_type = WireRequest::Type::kShutdown;
  } else if (type->string_value == "reload") {
    parsed_type = WireRequest::Type::kReload;
  } else {
    return InvalidArgumentError("unknown request type '" +
                                type->string_value + "'");
  }
  return RequestFromJson(object, parsed_type);
}

std::string SerializeRequest(const WireRequest& request) {
  JsonLineWriter w;
  switch (request.type) {
    case WireRequest::Type::kCheck: w.AddString("type", "check"); break;
    case WireRequest::Type::kStats: w.AddString("type", "stats"); break;
    case WireRequest::Type::kPing: w.AddString("type", "ping"); break;
    case WireRequest::Type::kShutdown: w.AddString("type", "shutdown"); break;
    case WireRequest::Type::kReload: w.AddString("type", "reload"); break;
  }
  if (!request.id.empty()) w.AddString("id", request.id);
  if (!request.group_name.empty()) w.AddString("group", request.group_name);
  if (!request.group_tsv.empty()) w.AddString("group_tsv", request.group_tsv);
  if (request.deadline_ms > 0) w.AddInt("deadline_ms", request.deadline_ms);
  if (!request.engine.empty()) w.AddString("engine", request.engine);
  if (request.no_cache) w.AddBool("no_cache", true);
  if (!request.fingerprint.empty()) {
    w.AddString("fingerprint", request.fingerprint);
  }
  return w.Finish();
}

std::string SerializeErrorResponse(const std::string& id,
                                   const Status& status) {
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", StatusCodeName(status.code()));
  w.AddString("error", status.message());
  return w.Finish();
}

std::string SerializeCheckResponse(const std::string& id, const Group& group,
                                   const CheckReply& reply) {
  const DimeResult& result = *reply.result;
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", StatusCodeName(result.status.code()));
  if (!result.status.ok()) w.AddString("error", result.status.message());
  w.AddBool("cached", reply.cache_hit);
  if (reply.epoch != nullptr) w.AddUint("epoch", reply.epoch->sequence());
  w.AddUint("partitions", result.partitions.size());
  w.AddUint("pivot_size", result.PivotEntities().size());
  std::vector<size_t> per_prefix;
  per_prefix.reserve(result.flagged_by_prefix.size());
  for (const auto& flagged : result.flagged_by_prefix) {
    per_prefix.push_back(flagged.size());
  }
  w.AddCountArray("flagged_per_prefix", per_prefix);
  std::vector<std::string> flagged_ids;
  flagged_ids.reserve(result.flagged().size());
  for (int e : result.flagged()) {
    flagged_ids.push_back(group.entities[static_cast<size_t>(e)].id);
  }
  w.AddStringArray("flagged", flagged_ids);
  return w.Finish();
}

std::string SerializeStatsResponse(const std::string& id,
                                   const StatsSnapshot& stats) {
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", "OK");
  w.AddUint("accepted", stats.accepted);
  w.AddUint("rejected", stats.rejected);
  w.AddUint("completed", stats.completed);
  w.AddUint("cache_hits", stats.cache_hits);
  w.AddUint("cache_misses", stats.cache_misses);
  w.AddUint("cache_size", stats.cache_size);
  w.AddUint("cache_capacity", stats.cache_capacity);
  w.AddUint("queue_depth", stats.queue_depth);
  w.AddUint("queue_capacity", stats.queue_capacity);
  w.AddUint("workers", stats.workers);
  w.AddUint("epoch", stats.epoch_sequence);
  w.AddUint("epochs_installed", stats.epochs_installed);
  w.AddUint("epochs_retired", stats.epochs_retired);
  w.AddUint("delta_records_applied", stats.delta_records_applied);
  w.AddUint("pairs_skipped_by_transitivity",
            stats.pairs_skipped_by_transitivity);
  w.AddUint("kernel_early_exits", stats.kernel_early_exits);
  w.AddDouble("p50_ms", stats.p50_ms);
  w.AddDouble("p99_ms", stats.p99_ms);
  return w.Finish();
}

std::string SerializePingResponse(const std::string& id) {
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", "OK");
  w.AddString("pong", "dime_server");
  return w.Finish();
}

std::string SerializeShutdownResponse(const std::string& id) {
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", "OK");
  w.AddBool("shutting_down", true);
  return w.Finish();
}

std::string SerializeReloadResponse(const std::string& id,
                                    const ReloadOutcome& outcome) {
  JsonLineWriter w;
  if (!id.empty()) w.AddString("id", id);
  w.AddString("status", "OK");
  w.AddUint("epoch", outcome.sequence);
  w.AddString("fingerprint", FingerprintToWireHex(outcome.fingerprint_lo,
                                                  outcome.fingerprint_hi));
  w.AddUint("groups", outcome.groups);
  w.AddUint("delta_records", outcome.delta_records);
  w.AddUint("groups_prepared", outcome.groups_prepared);
  if (outcome.torn_tail) w.AddBool("torn_tail", true);
  if (outcome.noop) w.AddBool("noop", true);
  return w.Finish();
}

Status StatusFromResponseLine(std::string_view line) {
  StatusOr<JsonObject> parsed = ParseJsonObjectLine(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* status = Find(*parsed, "status");
  if (status == nullptr || status->kind != JsonValue::Kind::kString) {
    return dime::ParseError("response has no string \"status\" field");
  }
  StatusCode code;
  if (!StatusCodeFromName(status->string_value, &code)) {
    return dime::ParseError("response has unknown status '" +
                            status->string_value + "'");
  }
  if (code == StatusCode::kOk) return OkStatus();
  std::string message;
  if (const JsonValue* error = Find(*parsed, "error");
      error != nullptr && error->kind == JsonValue::Kind::kString) {
    message = error->string_value;
  }
  return Status(code, std::move(message));
}

}  // namespace dime
