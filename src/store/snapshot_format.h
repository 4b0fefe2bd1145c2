#ifndef DIME_STORE_SNAPSHOT_FORMAT_H_
#define DIME_STORE_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>

/// \file snapshot_format.h
/// On-disk layout of DIME corpus snapshots (shared by the writer and the
/// loader; see DESIGN.md §7.4 for the rationale):
///
///   +--------------------------------------------------------------+
///   | header (16 B): magic "DIMESNP\n" | u32 version | u8 endian |0|
///   +--------------------------------------------------------------+
///   | section payloads, each starting on an 8-byte file offset     |
///   |   kMeta, kRules, kOntologies,                                |
///   |   then per group i: kGroup[i], kPrepared[i]                  |
///   +--------------------------------------------------------------+
///   | section table: section_count x 32 B entries                  |
///   |   u32 id | u32 index | u64 offset | u64 length | u32 crc32   |
///   |   | u32 zero                                                 |
///   +--------------------------------------------------------------+
///   | tail (48 B): u64 table_offset | u32 section_count |          |
///   |   u32 version | u64 fingerprint_lo | u64 fingerprint_hi |    |
///   |   u32 tail_crc | u32 zero | u64 tail_magic "DIMETAIL"        |
///   +--------------------------------------------------------------+
///
/// Every section payload carries its own CRC-32 in the table; `tail_crc`
/// covers the table plus the tail fields before it, so a truncated or
/// patched directory is caught before any section is trusted. The
/// fingerprint is a 128-bit FNV-1a over the concatenated section
/// payloads in table order — the content identity that reloads report
/// and fingerprint-gated reloads compare.
///
/// A snapshot holds only what serving reads. Signatures and inverted
/// indexes are a deterministic function of the prepared group, the rules
/// and the signature options, so the engines build them on demand.
///
/// Versioning policy: `version` bumps on any layout change, and a loader
/// reads exactly its own version. Any other version, older or newer, is
/// PARSE_ERROR naming the version; snapshots are build outputs, so the
/// fix is to rebuild with `dime_snapshot build`. Integers are stored
/// native-endian with an explicit marker byte; a marker mismatch is
/// rejected rather than swapped, because the mmap zero-copy path cannot
/// byte-swap read-only pages.

namespace dime {

inline constexpr char kSnapshotMagic[8] = {'D', 'I', 'M', 'E',
                                           'S', 'N', 'P', '\n'};
inline constexpr uint64_t kSnapshotTailMagic =
    0x4C494154454D4944ULL;  // "DIMETAIL" little-endian
inline constexpr uint32_t kSnapshotFormatVersion = 3;

inline constexpr size_t kSnapshotHeaderSize = 16;
inline constexpr size_t kSnapshotTailSize = 48;
inline constexpr size_t kSnapshotSectionEntrySize = 32;

/// Section ids (append-only; unknown ids are skipped by loaders, giving
/// forward room for same-version additive sections). Ids 6 and 7 are
/// retired: version 1 used them for per-group rule artifacts (frozen
/// indexes and negative signatures) and token dictionaries. Never reuse
/// them.
enum class SnapshotSectionId : uint32_t {
  kMeta = 1,        ///< group count, schema
  kRules = 2,       ///< RuleSetToText of the rule set
  kOntologies = 3,  ///< each distinct tree's text, then per ref: index, mode
  kGroup = 4,       ///< per group: name + schema + framed entities
  kPrepared = 5,    ///< per group: PreparedAttr columns (zero-copy)
};

const char* SnapshotSectionIdName(uint32_t id);

/// The byte the header's endian marker must hold on this machine.
inline uint8_t SnapshotNativeEndianMarker() {
  const uint16_t probe = 1;
  uint8_t first;
  std::memcpy(&first, &probe, 1);
  return first == 1 ? 1 : 2;  // 1 = little, 2 = big
}

/// 128-bit FNV-1a streamed over byte ranges (the snapshot content
/// fingerprint). Independent of the serving layer's request fingerprint;
/// only stability matters.
struct SnapshotFingerprint {
  uint64_t lo = 0xcbf29ce484222325ULL;
  uint64_t hi = 0x6c62272e07bb0142ULL;

  void Update(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      lo = (lo ^ p[i]) * 0x100000001b3ULL;
      hi = (hi ^ p[i]) * 0x10000000233ULL;
    }
  }
};

}  // namespace dime

#endif  // DIME_STORE_SNAPSHOT_FORMAT_H_
