#include "src/exec/engine.h"

#include "src/core/dime_plus.h"
#include "src/core/preprocess.h"

namespace dime {
namespace {

constexpr EngineKind kEngineKinds[] = {EngineKind::kNaive, EngineKind::kPlus};

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kPlus:
      return "plus";
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
  if (kind == EngineKind::kNaive) {
    return RunDime(pg, positive, negative, control);
  }
  if (pg.size() < kPrepareChunkEntities) {
    return RunDimePlus(pg, positive, negative, control);
  }
  return RunDimePlusSharded(pg, positive, negative, options, control);
}

}  // namespace exec
}  // namespace dime
