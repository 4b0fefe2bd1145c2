#include "src/exec/engine.h"

#include "src/core/dime_plus.h"

namespace dime {
namespace {

constexpr EngineKind kEngineKinds[] = {EngineKind::kNaive, EngineKind::kPlus,
                                       EngineKind::kSharded};

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kPlus:
      return "plus";
    case EngineKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

bool EngineKindFromName(std::string_view name, EngineKind* kind) {
  for (EngineKind candidate : kEngineKinds) {
    if (name == EngineKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::string EngineKindNames(std::string_view separator) {
  std::string names;
  for (EngineKind kind : kEngineKinds) {
    if (!names.empty()) names += separator;
    names += EngineKindName(kind);
  }
  return names;
}

namespace exec {

DimeResult RunEngine(EngineKind kind, const PreparedGroup& pg,
                     const std::vector<PositiveRule>& positive,
                     const std::vector<NegativeRule>& negative,
                     const ShardedOptions& options, const RunControl& control) {
  switch (kind) {
    case EngineKind::kNaive:
      return RunDime(pg, positive, negative, control);
    case EngineKind::kPlus:
      return RunDimePlus(pg, positive, negative, control);
    case EngineKind::kSharded:
      return RunDimePlusSharded(pg, positive, negative, options, control);
  }
  return RunDimePlus(pg, positive, negative, control);
}

}  // namespace exec
}  // namespace dime
