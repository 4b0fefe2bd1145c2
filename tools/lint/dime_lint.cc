// dime_lint — the project-invariant static analyzer.
//
// A token/line-level scanner over the repo's own sources (no libclang, so
// it builds and runs in every CI leg) that machine-checks the conventions
// the tree otherwise keeps only by review discipline:
//
//   unchecked-status    no ignored Status/StatusOr returns, no bare
//                       `(void)` discards of a call result (the compiler
//                       half is [[nodiscard]] on Status/StatusOr plus
//                       -Werror=unused-result; the lint half catches the
//                       `(void)` escape hatch and cross-checks bare calls
//                       to known Status-returning APIs)
//   include-layering    the declared module DAG below; an #include that
//                       jumps "up" the layering is an error
//   failpoint-registry  every failpoint call site names a constant from
//                       dime::failpoints (src/common/fault_injection.h),
//                       every registered constant is exercised by at
//                       least one test, and the doc list in the header
//                       matches the registry exactly
//   raw-concurrency     std::mutex / std::lock_guard / std::unique_lock /
//                       std::condition_variable / ... outside
//                       src/common/mutex.h; plus a Mutex member declared
//                       in a file with no DIME_GUARDED_BY anywhere
//   banned-functions    sprintf / strcpy / strtok / rand(), and
//                       fprintf(stderr, ...) in library code outside the
//                       mutex-guarded logging sink
//   raw-intrinsics      <immintrin.h>-family includes outside src/sim/,
//                       and __builtin_cpu_supports outside the dispatch
//                       TU (src/sim/simd_dispatch.*) — SIMD stays behind
//                       the sim layer's dispatch seam so the scalar-twin
//                       contract and DIME_FORCE_SCALAR keep holding
//
// Waivers: a finding is suppressed by a comment on the same line or the
// line immediately above:
//
//     // lint: <rule>-ok(<reason>)
//
// The reason is mandatory — a waiver without one is itself a finding, as
// is a waiver naming an unknown rule.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
// Usage:
//   dime_lint --root <repo-root> [path ...]   default paths: src tools
//                                             tests bench examples
//   dime_lint --list-rules
//   dime_lint --rule <name> ...               run a single rule

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// The declared module DAG.
//
// Derived from the architecture in DESIGN.md §7.6: the data model and the
// leaf utilities sit at the bottom, the engines in the middle, the serving
// stack on top. Each entry lists the modules a module's headers and
// sources may #include (its own module is always allowed). `*_main.cc`
// files and examples/ are CLI glue ("bin") and may reach anything, as may
// tools/, tests/ and bench/.
const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"entity", {"common"}},
      {"sim", {"common"}},
      {"text", {"common"}},
      {"ontology", {"common", "text"}},
      {"index", {"common", "sim"}},
      {"rules", {"common", "entity", "sim"}},
      {"core",
       {"common", "entity", "sim", "text", "index", "ontology", "rules"}},
      {"topicmodel", {"common", "text", "ontology"}},
      {"rulegen",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core"}},
      {"store",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core"}},
      {"baselines",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core", "rulegen"}},
      {"datagen",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core"}},
      {"exec",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core"}},
      {"server",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core", "store", "exec"}},
      // The research harness (dime_repro): the experiment setups may use
      // every serving module and the baselines, rule generation and LDA.
      {"repro",
       {"common", "entity", "sim", "text", "index", "ontology", "rules",
        "core", "store", "exec", "server", "datagen", "rulegen", "baselines",
        "topicmodel"}},
  };
  return kAllowed;
}

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "unchecked-status", "include-layering", "failpoint-registry",
      "raw-concurrency", "banned-functions", "raw-intrinsics"};
  return kRules;
}

struct Finding {
  std::string file;  // root-relative
  int line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string rel_path;             // root-relative, '/' separators
  std::string module;               // "common", ..., "bin", "top"
  std::vector<std::string> raw;     // original lines
  std::vector<std::string> code;    // lines with comments/strings blanked
  // Rules waived per line (1-based), from `// lint: <rule>-ok(reason)`
  // on the line itself or the line above.
  std::vector<std::set<std::string>> waived;
};

// ---------------------------------------------------------------------------
// File classification.

bool IsSourceFile(const fs::path& p) {
  auto ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

// Module of a root-relative path: "src/<mod>/..." → <mod>; `*_main.cc`
// under src/ and everything under examples/ → "bin"; tools/, tests/,
// bench/ → "top" (unconstrained by layering).
std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) == 0) {
    auto rest = rel.substr(4);
    auto slash = rest.find('/');
    if (slash == std::string::npos) return "bin";
    const std::string base = rest.substr(rest.rfind('/') + 1);
    if (base.size() > 8 &&
        base.compare(base.size() - 8, 8, "_main.cc") == 0) {
      return "bin";
    }
    return rest.substr(0, slash);
  }
  if (rel.rfind("examples/", 0) == 0) return "bin";
  return "top";
}

// ---------------------------------------------------------------------------
// Lexing: blank out comments, string and char literals so token rules
// never fire on prose. Keeps line lengths identical (columns stable).
// Handles // and /* */ comments and plain "..."/'...' literals; raw
// strings are treated as plain strings (good enough for this tree, where
// they are banned by style anyway).

std::vector<std::string> BlankCommentsAndStrings(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block_comment = false;
  for (const std::string& line : lines) {
    std::string code(line.size(), ' ');
    size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) break;  // rest is comment
      if (line.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (line[i] == '"' || line[i] == '\'') {
        char quote = line[i];
        code[i] = quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            code[i] = quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = line[i];
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Waiver parsing.

const std::regex kWaiverRe(R"(//\s*lint:\s*([a-z][a-z-]*)-ok\(([^)]*)\))");

void ParseWaivers(SourceFile* f, std::vector<Finding>* findings) {
  f->waived.assign(f->raw.size() + 1, {});
  for (size_t i = 0; i < f->raw.size(); ++i) {
    auto begin = std::sregex_iterator(f->raw[i].begin(), f->raw[i].end(),
                                      kWaiverRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string rule = (*it)[1];
      const std::string reason = (*it)[2];
      if (!KnownRules().count(rule)) {
        findings->push_back({f->rel_path, static_cast<int>(i + 1),
                             "waiver",
                             "waiver names unknown rule '" + rule + "'"});
        continue;
      }
      if (reason.find_first_not_of(" \t") == std::string::npos) {
        findings->push_back({f->rel_path, static_cast<int>(i + 1),
                             "waiver",
                             "waiver for '" + rule +
                                 "' has no reason; write // lint: " + rule +
                                 "-ok(<why>)"});
        continue;
      }
      // An inline waiver covers its own line. A waiver in a comment-only
      // line covers everything through the next code line, so a waiver
      // comment may run to several lines before the statement it shields.
      f->waived[i].insert(rule);
      const bool comment_only =
          f->code[i].find_first_not_of(" \t") == std::string::npos;
      if (comment_only) {
        for (size_t j = i + 1; j < f->raw.size(); ++j) {
          f->waived[j].insert(rule);
          if (f->code[j].find_first_not_of(" \t") != std::string::npos) {
            break;  // reached the shielded code line
          }
        }
      }
    }
  }
}

bool Waived(const SourceFile& f, size_t line_index, const std::string& rule) {
  return line_index < f.waived.size() && f.waived[line_index].count(rule) > 0;
}

void Report(const SourceFile& f, size_t line_index, const std::string& rule,
            std::string message, std::vector<Finding>* findings) {
  if (Waived(f, line_index, rule)) return;
  findings->push_back(
      {f.rel_path, static_cast<int>(line_index + 1), rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// Rule: include-layering.

const std::regex kIncludeRe(R"(^\s*#\s*include\s+\"src/([A-Za-z0-9_]+)/)");

void CheckIncludeLayering(const SourceFile& f, std::vector<Finding>* findings) {
  if (f.module == "top" || f.module == "bin") return;
  auto it = AllowedDeps().find(f.module);
  for (size_t i = 0; i < f.raw.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.raw[i], m, kIncludeRe)) continue;
    const std::string dep = m[1];
    if (dep == f.module) continue;
    if (it == AllowedDeps().end()) {
      Report(f, i, "include-layering",
             "module '" + f.module +
                 "' is not in the declared dependency DAG (tools/lint/"
                 "dime_lint.cc AllowedDeps)",
             findings);
      return;  // once per file is enough
    }
    if (!it->second.count(dep)) {
      Report(f, i, "include-layering",
             "module '" + f.module + "' may not include 'src/" + dep +
                 "/' (allowed: own module + {" +
                 [&] {
                   std::string s;
                   for (const auto& d : it->second)
                     s += (s.empty() ? "" : ", ") + d;
                   return s;
                 }() +
                 "})",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-status.

// Collects names of functions declared in src/ headers returning Status /
// StatusOr by value. Declaration shapes matched (line granularity):
//   Status Foo(...            StatusOr<T> Foo(...
//   static Status Foo(...     [[nodiscard]] Status Foo(...
const std::regex kStatusDeclRe(
    R"(^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)?(?:::)?(?:dime::)?Status(?:Or<[^;=]*>)?\s+([A-Za-z_][A-Za-z0-9_]*)\s*\()");

// A name is only usable for the bare-call check if NO declaration in the
// scanned tree gives it a non-Status return type — overload/homonym
// ambiguity (e.g. a test helper `void Open()` next to DeltaLogWriter's
// `StatusOr<...> Open(...)`) would otherwise flag void calls. The
// compiler's [[nodiscard]] remains the complete check; this scan is the
// greppable cross-check, so shrinking it on ambiguity is safe.
const std::regex kOtherDeclRe(
    R"(^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+|inline\s+)?(?:void|bool|int|size_t|auto|double|float|uint32_t|uint64_t|int64_t|std::string)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\()");

std::set<std::string> CollectStatusReturningNames(
    const std::vector<SourceFile>& files) {
  std::set<std::string> names;
  std::set<std::string> ambiguous;
  for (const auto& f : files) {
    for (const auto& line : f.code) {
      std::smatch m;
      if (f.rel_path.rfind("src/", 0) == 0 &&
          std::regex_search(line, m, kStatusDeclRe)) {
        const std::string name = m[1];
        // Skip control-flow lookalikes and constructors-by-convention.
        if (name == "if" || name == "while" || name == "for" ||
            name == "switch" || name == "return") {
          continue;
        }
        names.insert(name);
      }
      if (std::regex_search(line, m, kOtherDeclRe)) {
        ambiguous.insert(m[1]);
      }
    }
  }
  for (const auto& name : ambiguous) names.erase(name);
  return names;
}

// A `(void)` cast of a call result: the sanctioned-but-waiver-required
// discard. `(void)identifier;` (unused-parameter silencing) has no '('
// in the operand and is fine.
const std::regex kVoidCastRe(R"(\(\s*void\s*\)\s*([^;]*))");

// A bare call statement `obj.Name(...)` / `Name(...)` / `ptr->Name(...)`
// that opens at the start of the statement. Only single-line statements
// are matched — the compiler's [[nodiscard]] is the complete check; this
// is the greppable cross-check.
std::string BareCallRegexFor(const std::string& name) {
  return R"(^\s*(?:[A-Za-z_][A-Za-z0-9_]*(?:\.|->|::))*)" + name +
         R"(\s*\(.*\)\s*;\s*$)";
}

// True when line i starts a new statement: the previous non-blank code
// line ended one (';', '{', '}', a label, or a preprocessor line). A
// continuation line of a multi-line expression (previous line ends with
// '=', '(', ',', an operator, ...) is never a bare call.
bool StartsStatement(const SourceFile& f, size_t i) {
  for (size_t j = i; j > 0; --j) {
    const std::string& prev = f.code[j - 1];
    size_t last = prev.find_last_not_of(" \t");
    if (last == std::string::npos) continue;  // blank / comment-only line
    char c = prev[last];
    if (c == ';' || c == '{' || c == '}' || c == ':') return true;
    if (prev.find('#') != std::string::npos &&
        prev.find_first_not_of(" \t") == prev.find('#')) {
      return true;
    }
    return false;
  }
  return true;  // first line of the file
}

void CheckUncheckedStatus(const SourceFile& f,
                          const std::vector<std::regex>& bare_call_res,
                          const std::vector<std::string>& status_name_list,
                          std::vector<Finding>* findings) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::smatch m;
    if (std::regex_search(line, m, kVoidCastRe)) {
      const std::string operand = m[1];
      if (operand.find('(') != std::string::npos) {
        Report(f, i, "unchecked-status",
               "`(void)` discard of a call result; check it, or waive "
               "with // lint: unchecked-status-ok(<why>)",
               findings);
        continue;
      }
    }
    if (line.find('(') == std::string::npos) continue;
    for (size_t k = 0; k < bare_call_res.size(); ++k) {
      if (line.find(status_name_list[k]) == std::string::npos) continue;
      if (std::regex_search(line, bare_call_res[k]) &&
          StartsStatement(f, i)) {
        Report(f, i, "unchecked-status",
               "result of Status-returning '" + status_name_list[k] +
                   "' is ignored",
               findings);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: failpoint-registry.

struct FailpointRegistry {
  std::map<std::string, std::string> constants;  // kIoRead -> io/read
  std::set<std::string> documented;              // names in the doc list
  std::string header_rel;                        // where the registry lives
  bool loaded = false;
};

const std::regex kRegistryConstRe(
    R"(^\s*inline\s+constexpr\s+char\s+(k[A-Za-z0-9_]+)\[\]\s*=\s*\"([^\"]+)\";)");
const std::regex kRegistryDocRe(R"(^///\s{3}\"([^\"]+)\")");

FailpointRegistry LoadRegistry(const std::vector<SourceFile>& files) {
  FailpointRegistry reg;
  for (const auto& f : files) {
    if (f.rel_path != "src/common/fault_injection.h") continue;
    reg.header_rel = f.rel_path;
    reg.loaded = true;
    bool in_failpoints_ns = false;
    for (size_t i = 0; i < f.raw.size(); ++i) {
      const std::string& raw = f.raw[i];
      std::smatch m;
      if (std::regex_search(raw, m, kRegistryDocRe)) {
        reg.documented.insert(m[1]);
      }
      if (raw.find("namespace failpoints") != std::string::npos) {
        in_failpoints_ns = true;
      }
      if (in_failpoints_ns &&
          std::regex_search(raw, m, kRegistryConstRe)) {
        reg.constants[m[1]] = m[2];
      }
    }
  }
  return reg;
}

// Call sites that must name a registry constant.
const std::regex kFailpointCallRe(
    R"((DIME_FAULT_POINT|FaultInjection::Arm|FaultInjection::Disarm|FaultInjection::Remaining|ScopedFailpoint(?:\s+[A-Za-z_][A-Za-z0-9_]*)?)\s*\(\s*([^,)]*))");
const std::regex kFailpointConstRe(
    R"((?:::)?(?:dime::)?failpoints::(k[A-Za-z0-9_]+))");

void CheckFailpointRegistry(const std::vector<SourceFile>& files,
                            const FailpointRegistry& reg,
                            std::vector<Finding>* findings) {
  if (!reg.loaded) return;  // registry header not in scan set

  // (a) Doc list in the header comment == registry, exactly.
  std::set<std::string> names;
  for (const auto& [konst, name] : reg.constants) names.insert(name);
  for (const auto& name : names) {
    if (!reg.documented.count(name)) {
      findings->push_back({reg.header_rel, 1, "failpoint-registry",
                           "registered failpoint \"" + name +
                               "\" is missing from the doc list in "
                               "fault_injection.h"});
    }
  }
  for (const auto& name : reg.documented) {
    if (!names.count(name)) {
      findings->push_back({reg.header_rel, 1, "failpoint-registry",
                           "doc list entry \"" + name +
                               "\" has no registered constant in "
                               "dime::failpoints"});
    }
  }

  // (b) Call sites reference a registered constant, never a literal.
  bool scanned_tests = false;
  std::set<std::string> constants_seen_in_tests;
  for (const auto& f : files) {
    if (f.rel_path == "src/common/fault_injection.h" ||
        f.rel_path == "src/common/fault_injection.cc") {
      continue;
    }
    const bool is_test = f.rel_path.rfind("tests/", 0) == 0;
    if (is_test) scanned_tests = true;
    for (size_t i = 0; i < f.code.size(); ++i) {
      // Collect constant references (also outside call expressions, e.g.
      // helper tables in tests).
      auto cbegin = std::sregex_iterator(f.code[i].begin(), f.code[i].end(),
                                         kFailpointConstRe);
      for (auto it = cbegin; it != std::sregex_iterator(); ++it) {
        const std::string konst = (*it)[1];
        if (!reg.constants.count(konst)) {
          Report(f, i, "failpoint-registry",
                 "failpoints::" + konst +
                     " is not registered in fault_injection.h",
                 findings);
        } else if (is_test) {
          constants_seen_in_tests.insert(konst);
        }
      }
      std::smatch m;
      // Use the raw line so a string-literal argument is visible.
      if (std::regex_search(f.raw[i], m, kFailpointCallRe)) {
        const std::string arg = m[2];
        if (arg.find('"') != std::string::npos) {
          Report(f, i, "failpoint-registry",
                 "failpoint call site uses a string literal; name a "
                 "dime::failpoints constant so the registry stays the "
                 "single source of truth",
                 findings);
        }
      }
    }
  }

  // (c) Every registered constant fires in at least one test. Only
  // meaningful when tests/ is part of the scan.
  if (scanned_tests) {
    for (const auto& [konst, name] : reg.constants) {
      if (!constants_seen_in_tests.count(konst)) {
        findings->push_back({reg.header_rel, 1, "failpoint-registry",
                             "registered failpoint \"" + name + "\" (" +
                                 konst +
                                 ") is never exercised by any test"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-concurrency.

const std::regex kRawPrimitiveRe(
    R"(std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b)");
const std::regex kMutexMemberRe(
    R"(^\s*(?:mutable\s+)?(?:dime::)?Mutex\s+[A-Za-z_][A-Za-z0-9_]*\s*;)");

void CheckRawConcurrency(const SourceFile& f,
                         std::vector<Finding>* findings) {
  if (f.rel_path == "src/common/mutex.h") return;  // the sanctioned wrapper
  int first_mutex_member_line = -1;
  bool has_guarded_by = false;
  for (size_t i = 0; i < f.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(f.code[i], m, kRawPrimitiveRe)) {
      Report(f, i, "raw-concurrency",
             "raw std::" + std::string(m[1]) +
                 "; use the annotated primitives from src/common/mutex.h "
                 "so the Clang TSA leg sees it",
             findings);
    }
    if (first_mutex_member_line < 0 &&
        std::regex_search(f.code[i], kMutexMemberRe)) {
      first_mutex_member_line = static_cast<int>(i);
    }
    if (f.code[i].find("DIME_GUARDED_BY") != std::string::npos ||
        f.code[i].find("DIME_PT_GUARDED_BY") != std::string::npos) {
      has_guarded_by = true;
    }
  }
  if (first_mutex_member_line >= 0 && !has_guarded_by) {
    Report(f, static_cast<size_t>(first_mutex_member_line), "raw-concurrency",
           "Mutex member declared but no field in this file carries "
           "DIME_GUARDED_BY; annotate what the mutex protects",
           findings);
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-functions.

const std::regex kBannedFnRe(R"(\b(sprintf|strcpy|strtok)\s*\()");
const std::regex kRandRe(R"((?:\bstd::rand\b|[^a-zA-Z0-9_:]rand\s*\(\s*\)))");
const std::regex kStderrRe(R"(\bfprintf\s*\(\s*stderr\b)");

void CheckBannedFunctions(const SourceFile& f,
                          std::vector<Finding>* findings) {
  const bool library_code =
      f.rel_path.rfind("src/", 0) == 0 && f.module != "bin";
  for (size_t i = 0; i < f.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(f.code[i], m, kBannedFnRe)) {
      Report(f, i, "banned-functions",
             std::string(m[1]) +
                 " is banned (unbounded/not reentrant); use std::string, "
                 "snprintf or the tokenizer utilities",
             findings);
    }
    if (std::regex_search(f.code[i], m, kRandRe)) {
      Report(f, i, "banned-functions",
             "rand() is banned (hidden global state breaks reproducible "
             "decisions); use dime::Random (src/common/random.h)",
             findings);
    }
    // Unlocked stderr writes interleave mid-line under concurrency; the
    // logging sink (src/common/logging.cc) serializes them. CLI glue
    // (bin/top layers) is single-threaded usage/diagnostic output.
    if (library_code && f.rel_path != "src/common/logging.cc" &&
        std::regex_search(f.code[i], m, kStderrRe)) {
      Report(f, i, "banned-functions",
             "fprintf(stderr, ...) in library code bypasses the "
             "mutex-guarded logging sink; use DIME_LOG",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-intrinsics.
//
// SIMD lives behind the sim layer's dispatch seam (src/sim/simd_dispatch.h):
// vector kernels and their intrinsics stay in src/sim/, CPU-feature probing
// stays in the dispatch TU, and everything else branches on
// ActiveSimdLevel(). An intrinsics include or a raw CPUID probe anywhere
// else would bypass the DIME_FORCE_SCALAR escape hatch and the
// bit-identical scalar-twin contract the golden tests pin.

const std::regex kIntrinsicsIncludeRe(
    R"(^\s*#\s*include\s*[<"](?:[a-z0-9]*intrin|arm_neon|arm_sve)\.h[>"])");

void CheckRawIntrinsics(const SourceFile& f,
                        std::vector<Finding>* findings) {
  const bool in_sim = f.rel_path.rfind("src/sim/", 0) == 0;
  const bool is_dispatch = f.rel_path == "src/sim/simd_dispatch.h" ||
                           f.rel_path == "src/sim/simd_dispatch.cc";
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (!in_sim && std::regex_search(f.raw[i], kIntrinsicsIncludeRe)) {
      Report(f, i, "raw-intrinsics",
             "intrinsics header outside src/sim/; put vector kernels in "
             "the sim layer behind simd_dispatch.h so the scalar-twin "
             "contract and DIME_FORCE_SCALAR keep holding",
             findings);
    }
    if (!is_dispatch &&
        f.code[i].find("__builtin_cpu_supports") != std::string::npos) {
      Report(f, i, "raw-intrinsics",
             "__builtin_cpu_supports outside src/sim/simd_dispatch.*; ask "
             "ActiveSimdLevel() instead so the probe is made once, cached, "
             "and overridable for tests",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.

struct Options {
  fs::path root = ".";
  std::vector<std::string> paths;  // root-relative
  std::set<std::string> rules;     // empty = all
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root <dir>] [--rule <name>]... [path ...]\n"
               "       %s --list-rules\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) return Usage(argv[0]);
      opt.root = argv[i];
    } else if (arg == "--rule") {
      if (++i >= argc) return Usage(argv[0]);
      if (!KnownRules().count(argv[i])) {
        std::fprintf(stderr, "dime_lint: unknown rule '%s'\n", argv[i]);
        return 2;
      }
      opt.rules.insert(argv[i]);
    } else if (arg == "--list-rules") {
      for (const auto& r : KnownRules()) std::printf("%s\n", r.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.paths.empty()) {
    opt.paths = {"src", "tools", "tests", "bench", "examples"};
  }

  std::error_code ec;
  fs::path root = fs::canonical(opt.root, ec);
  if (ec) {
    std::fprintf(stderr, "dime_lint: cannot resolve root '%s'\n",
                 opt.root.string().c_str());
    return 2;
  }

  // Gather files.
  std::vector<fs::path> file_paths;
  for (const auto& rel : opt.paths) {
    fs::path p = root / rel;
    if (fs::is_regular_file(p)) {
      if (IsSourceFile(p)) file_paths.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) continue;  // optional scan dirs may be absent
    for (auto it = fs::recursive_directory_iterator(
             p, fs::directory_options::skip_permission_denied);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        file_paths.push_back(it->path());
      }
    }
  }
  std::sort(file_paths.begin(), file_paths.end());
  file_paths.erase(std::unique(file_paths.begin(), file_paths.end()),
                   file_paths.end());

  std::vector<Finding> findings;
  std::vector<SourceFile> files;
  files.reserve(file_paths.size());
  for (const auto& p : file_paths) {
    SourceFile f;
    f.rel_path = fs::relative(p, root, ec).generic_string();
    if (ec) f.rel_path = p.generic_string();
    // The lint's own fixtures are intentionally-dirty mini trees; scanning
    // them with the real tree would make it permanently red. (Relative to
    // the scan root, so a fixture scanned AS a root is still visible.)
    if (f.rel_path.rfind("tools/lint/testdata/", 0) == 0) continue;
    f.module = ModuleOf(f.rel_path);
    std::ifstream in(p);
    if (!in) {
      std::fprintf(stderr, "dime_lint: cannot read %s\n",
                   p.string().c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      f.raw.push_back(line);
    }
    f.code = BlankCommentsAndStrings(f.raw);
    ParseWaivers(&f, &findings);
    files.push_back(std::move(f));
  }

  auto enabled = [&](const char* rule) {
    return opt.rules.empty() || opt.rules.count(rule) > 0;
  };

  if (enabled("unchecked-status")) {
    std::set<std::string> status_names = CollectStatusReturningNames(files);
    std::vector<std::string> name_list(status_names.begin(),
                                       status_names.end());
    std::vector<std::regex> bare_res;
    bare_res.reserve(name_list.size());
    for (const auto& n : name_list) {
      bare_res.emplace_back(BareCallRegexFor(n));
    }
    for (const auto& f : files) {
      CheckUncheckedStatus(f, bare_res, name_list, &findings);
    }
  }
  if (enabled("include-layering")) {
    for (const auto& f : files) CheckIncludeLayering(f, &findings);
  }
  if (enabled("failpoint-registry")) {
    CheckFailpointRegistry(files, LoadRegistry(files), &findings);
  }
  if (enabled("raw-concurrency")) {
    for (const auto& f : files) CheckRawConcurrency(f, &findings);
  }
  if (enabled("banned-functions")) {
    for (const auto& f : files) CheckBannedFunctions(f, &findings);
  }
  if (enabled("raw-intrinsics")) {
    for (const auto& f : files) CheckRawIntrinsics(f, &findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  for (const auto& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("dime_lint: %zu finding%s in %zu file%s scanned\n",
                findings.size(), findings.size() == 1 ? "" : "s",
                files.size(), files.size() == 1 ? "" : "s");
    return 1;
  }
  std::printf("dime_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
