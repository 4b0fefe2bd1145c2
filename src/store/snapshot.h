#ifndef DIME_STORE_SNAPSHOT_H_
#define DIME_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/entity/entity.h"
#include "src/core/preprocess.h"
#include "src/rules/rule.h"

/// \file snapshot.h
/// Versioned binary corpus snapshots: the offline/online split for
/// serving. `WriteSnapshot` runs full preparation (rank columns, masses,
/// q-gram runs, ontology node maps) once and persists the result;
/// `LoadSnapshot` maps it back with the rank arenas *borrowed* from the
/// mapping — a warm start does no tokenization and no sorting, and
/// shares its read-only pages with every other process serving the same
/// snapshot. Signatures and inverted indexes are not stored: the engines
/// build them on demand, as for any other group. See snapshot_format.h
/// for the layout and DESIGN.md §7.4 for lifetime rules.
///
/// Error taxonomy on load:
///   NOT_FOUND    the file cannot be opened
///   IO_ERROR     open succeeded, reading/mapping failed
///   PARSE_ERROR  not a snapshot (bad magic), truncated, endianness
///                mismatch, or a format version other than this binary's
///   DATA_LOSS    checksum mismatch or internally inconsistent section —
///                the file was a valid snapshot once and is damaged now
/// Loaders never crash on hostile bytes: every section parse is
/// bounds-checked, and nothing is trusted before its CRC passes.

namespace dime {

/// What to persist. Pointers are borrowed for the duration of the call.
struct SnapshotWriteRequest {
  const std::vector<Group>* groups = nullptr;
  const std::vector<PositiveRule>* positive = nullptr;
  const std::vector<NegativeRule>* negative = nullptr;
  const DimeContext* context = nullptr;
};

/// Serializes the fully prepared corpus into an in-memory snapshot image.
StatusOr<std::string> SerializeSnapshot(const SnapshotWriteRequest& request);

/// SerializeSnapshot + atomic-ish write to `path` (write then flush; no
/// rename dance — snapshots are build artifacts, not live-updated state).
Status WriteSnapshot(const SnapshotWriteRequest& request,
                     const std::string& path);

struct SnapshotLoadOptions {
  /// Prefer mmap; the read()-into-buffer fallback is automatic when mmap
  /// is unavailable (failpoint "store/mmap" forces it).
  bool prefer_mmap = true;
};

/// A loaded snapshot. `prepared[i]` is parallel to `groups[i]` and
/// borrows its arenas from `backing` — keep `backing` and `groups` alive
/// for as long as any engine touches the prepared groups (each prepared
/// group's context owns its ontology trees). The struct is movable;
/// moving preserves all internal pointers (vector storage moves
/// wholesale), but `groups` must not be resized afterwards.
struct LoadedSnapshot {
  Schema schema;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  /// Refs naming one stored tree share one parsed Ontology.
  DimeContext context;
  std::vector<Group> groups;
  /// Fully prepared groups, rank arenas borrowed from `backing`;
  /// prepared[i]->group == &groups[i]. Owned by the caller, which
  /// re-points `group` when it moves the groups elsewhere
  /// (CorpusFromSnapshot does).
  std::vector<std::shared_ptr<PreparedGroup>> prepared;
  /// Content fingerprint from the snapshot tail (128-bit FNV-1a over the
  /// section payloads): the identity of this build of the corpus.
  uint64_t fingerprint_lo = 0;
  uint64_t fingerprint_hi = 0;
  /// True when served from an mmap (false on the read() fallback).
  bool mapped = false;
  /// Keep-alive for the bytes everything above borrows from.
  std::shared_ptr<const void> backing;
};

/// Opens, checks (magic, version, CRCs) and fully parses a snapshot.
StatusOr<LoadedSnapshot> LoadSnapshot(
    const std::string& path,
    const SnapshotLoadOptions& options = SnapshotLoadOptions());

/// Directory-level metadata for `dime_snapshot inspect`: validates the
/// header, tail and table (including tail_crc) but does not checksum or
/// parse section payloads.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t file_size = 0;
  uint64_t fingerprint_lo = 0;
  uint64_t fingerprint_hi = 0;
  struct Section {
    uint32_t id = 0;
    uint32_t index = 0;  ///< group ordinal for per-group sections
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc32 = 0;
  };
  std::vector<Section> sections;
};
StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Integrity check: verifies every section CRC and fully parses the file
/// (everything LoadSnapshot would reject, this rejects). With `deep`, it
/// additionally re-prepares every group from its embedded entities and
/// requires the freshly serialized prepared section to be byte-identical
/// to the stored one — a behavioral round-trip proof.
Status VerifySnapshot(const std::string& path, bool deep = false);

}  // namespace dime

#endif  // DIME_STORE_SNAPSHOT_H_
