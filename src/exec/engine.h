#ifndef DIME_EXEC_ENGINE_H_
#define DIME_EXEC_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/deadline.h"
#include "src/core/dime.h"
#include "src/exec/sharded_dime.h"

/// \file engine.h
/// The engine choice every front end offers (dime_server, the wire
/// "engine" field, dime_cli --engine): Algorithm 1 as the reference
/// oracle and Algorithm 2 as the fast path. Both give bit-identical
/// decisions; they differ in speed only.

namespace dime {

/// Which engine executes a check.
enum class EngineKind { kNaive, kPlus };

/// "naive" / "plus".
const char* EngineKindName(EngineKind kind);
/// False (and *kind untouched) for any other name.
bool EngineKindFromName(std::string_view name, EngineKind* kind);
/// Every engine name joined by `separator`, in declaration order — for
/// usage strings, so they cannot drift from EngineKindFromName.
std::string EngineKindNames(std::string_view separator);

namespace exec {

/// Runs `pg` through `kind`. kPlus runs RunDimePlus, on one executor,
/// below kPrepareChunkEntities entities (the size at which PrepareGroup
/// goes parallel too), and RunDimePlusSharded with `options` from there
/// up.
DimeResult RunEngine(EngineKind kind, const PreparedGroup& pg,
                     const std::vector<PositiveRule>& positive,
                     const std::vector<NegativeRule>& negative,
                     const ShardedOptions& options, const RunControl& control);

}  // namespace exec
}  // namespace dime

#endif  // DIME_EXEC_ENGINE_H_
