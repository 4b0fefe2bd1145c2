#ifndef DIME_STORE_SNAPSHOT_INTERNAL_H_
#define DIME_STORE_SNAPSHOT_INTERNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/store/mapped_file.h"
#include "src/store/snapshot.h"

/// \file snapshot_internal.h
/// Pieces shared between the snapshot writer, loader and verifier (not
/// part of the public API; tests may include it).

namespace dime {
namespace snapshot_internal {

/// A snapshot file whose envelope (header, tail, table, tail_crc) has
/// been validated; section payloads are untouched unless
/// `check_section_crcs` was set at open.
struct RawSnapshot {
  std::shared_ptr<MappedFile> file;
  uint32_t version = 0;
  uint64_t fingerprint_lo = 0;
  uint64_t fingerprint_hi = 0;
  std::vector<SnapshotInfo::Section> sections;
};

/// Opens `path` and validates the envelope. With `check_section_crcs`,
/// also verifies every section's CRC-32 (DATA_LOSS on mismatch).
StatusOr<RawSnapshot> OpenRaw(const std::string& path,
                              const SnapshotLoadOptions& options,
                              bool check_section_crcs);

/// First section with this (id, index), or null.
const SnapshotInfo::Section* FindSection(const RawSnapshot& raw, uint32_t id,
                                         uint32_t index);

/// Full parse of an already opened+checked snapshot.
StatusOr<LoadedSnapshot> LoadFromRaw(RawSnapshot raw);

/// Deterministic prepared-section serializer (also used by deep
/// verification: identical prepared state must yield identical bytes).
std::string SerializePreparedSection(const PreparedGroup& pg);

}  // namespace snapshot_internal
}  // namespace dime

#endif  // DIME_STORE_SNAPSHOT_INTERNAL_H_
