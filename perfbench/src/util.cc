#include "perfbench/src/util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  void SkipSpace() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  char Peek() {
    SkipSpace();
    return i_ < s_.size() ? s_[i_] : '\0';
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      char e = s_[i_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16));
          i_ += 4;
          // Ids in this benchmark are ASCII; other code points are kept as
          // a marker so a mismatch still shows.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return false;
  }
  /// A scalar that is not a string: number, true, false or null.
  bool Bare(std::string_view* out) {
    SkipSpace();
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
           s_[i_] != ']' && s_[i_] != ' ') {
      ++i_;
    }
    *out = s_.substr(start, i_ - start);
    return i_ > start;
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

uint64_t ToU64(std::string_view v) {
  return std::strtoull(std::string(v).c_str(), nullptr, 10);
}

}  // namespace

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool ResetPeakRss(const std::string& pid) {
  std::ofstream clear("/proc/" + pid + "/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

bool ParseReply(std::string_view text, ReplyFields* out) {
  *out = ReplyFields();
  Reader r(text);
  if (!r.Eat('{')) return false;
  if (r.Eat('}')) return true;
  std::string key;
  std::string str;
  do {
    if (!r.String(&key) || !r.Eat(':')) return false;
    char c = r.Peek();
    if (c == '"') {
      if (!r.String(&str)) return false;
      if (key == "status") out->status = str;
    } else if (c == '[') {
      r.Eat('[');
      std::vector<uint64_t> numbers;
      std::vector<std::string> strings;
      if (!r.Eat(']')) {
        do {
          if (r.Peek() == '"') {
            if (!r.String(&str)) return false;
            strings.push_back(str);
          } else {
            std::string_view v;
            if (!r.Bare(&v)) return false;
            numbers.push_back(ToU64(v));
          }
        } while (r.Eat(','));
        if (!r.Eat(']')) return false;
      }
      if (key == "flagged_per_prefix") out->flagged_per_prefix = numbers;
      if (key == "flagged") out->flagged = strings;
    } else {
      std::string_view v;
      if (!r.Bare(&v)) return false;
      if (key == "epoch") out->epoch = ToU64(v);
      else if (key == "cached") out->cached = v == "true";
      else if (key == "partitions") out->partitions = ToU64(v);
      else if (key == "pivot_size") out->pivot_size = ToU64(v);
      else if (key == "delta_records") out->delta_records = ToU64(v);
      else if (key == "cache_hits") out->cache_hits = ToU64(v);
      else if (key == "cache_misses") out->cache_misses = ToU64(v);
      else if (key == "accepted") out->accepted = ToU64(v);
      else if (key == "rejected") out->rejected = ToU64(v);
      else if (key == "epochs_installed") out->epochs_installed = ToU64(v);
      else if (key == "epochs_retired") out->epochs_retired = ToU64(v);
    }
  } while (r.Eat(','));
  return r.Eat('}');
}

uint64_t DecisionDigest(uint64_t partitions, uint64_t pivot_size,
                        const std::vector<uint64_t>& flagged_per_prefix,
                        const std::vector<std::string>& flagged) {
  std::string bytes = std::to_string(partitions) + "|" +
                      std::to_string(pivot_size) + "|";
  for (uint64_t n : flagged_per_prefix) bytes += std::to_string(n) + ",";
  bytes += "|";
  for (const std::string& id : flagged) {
    bytes += id;
    bytes.push_back('\x1f');
  }
  return Fnv1a(bytes);
}

}  // namespace perfbench
