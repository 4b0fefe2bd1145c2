#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/checksum.h"
#include "src/entity/entity.h"
#include "src/core/preprocess.h"
#include "src/ontology/ontology.h"
#include "src/rules/rule_io.h"
#include "src/store/bytes.h"
#include "src/store/snapshot.h"
#include "src/store/snapshot_format.h"
#include "src/store/snapshot_internal.h"

namespace dime {
namespace snapshot_internal {
namespace {

using Section = SnapshotInfo::Section;

std::string SectionLabel(const Section& sec) {
  std::string label = SnapshotSectionIdName(sec.id);
  label += "[";
  label += std::to_string(sec.index);
  label += "]";
  return label;
}

Status Malformed(const Section& sec, const char* what) {
  return DataLossError("snapshot section " + SectionLabel(sec) +
                       " is inconsistent: " + what);
}

/// Validates that a borrowed CSR offsets array is usable as-is: starts at
/// zero, never decreases, and ends exactly at the arena length. Without
/// this a crafted (or bit-rotted but CRC-colliding) file could make
/// view() read out of bounds.
bool OffsetsWellFormed(const uint64_t* offsets, uint64_t rows,
                       uint64_t arena_len) {
  if (offsets == nullptr) return false;
  if (offsets[0] != 0 || offsets[rows] != arena_len) return false;
  for (uint64_t e = 0; e < rows; ++e) {
    if (offsets[e] > offsets[e + 1]) return false;
  }
  return true;
}

Status ParseRankColumn(ByteReader* reader, const Section& sec, uint64_t rows,
                       RankColumn* out) {
  uint64_t stored_rows;
  if (!reader->U64(&stored_rows)) return Malformed(sec, "truncated column");
  if (stored_rows != rows) return Malformed(sec, "column row count");
  const uint64_t* offsets = nullptr;
  uint64_t offsets_len = 0;
  const uint32_t* arena = nullptr;
  uint64_t arena_len = 0;
  if (!reader->BorrowArray(&offsets, &offsets_len) ||
      !reader->BorrowArray(&arena, &arena_len)) {
    return Malformed(sec, "truncated column arrays");
  }
  if (offsets_len != rows + 1 ||
      !OffsetsWellFormed(offsets, rows, arena_len)) {
    return Malformed(sec, "column offsets");
  }
  out->BorrowStorage(arena, offsets, rows);
  return OkStatus();
}

Status ParseDoubles(ByteReader* reader, const Section& sec,
                    std::vector<double>* out) {
  if (!reader->ReadArray(out)) return Malformed(sec, "truncated doubles");
  return OkStatus();
}

/// kPrepared: everything but the group pointer and context.
Status ParsePreparedSection(const Section& sec, ByteReader reader,
                            uint64_t expected_entities, size_t schema_size,
                            size_t num_ontologies, PreparedGroup* pg) {
  uint64_t n, n_attrs;
  if (!reader.U64(&n) || !reader.U64(&n_attrs)) {
    return Malformed(sec, "truncated header");
  }
  if (n != expected_entities) return Malformed(sec, "entity count");
  if (n_attrs != schema_size) return Malformed(sec, "attribute count");
  pg->attrs.resize(n_attrs);
  for (PreparedAttr& attr : pg->attrs) {
    uint32_t flags, pad;
    if (!reader.U32(&flags) || !reader.U32(&pad)) {
      return Malformed(sec, "truncated attribute flags");
    }
    attr.has_value_list = (flags & 1) != 0;
    attr.has_words = (flags & 2) != 0;
    attr.has_text = (flags & 4) != 0;
    if (attr.has_value_list) {
      DIME_RETURN_IF_ERROR(
          ParseRankColumn(&reader, sec, n, &attr.value_ranks));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.value_weights));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.value_mass));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.value_sqnorm));
      if (attr.value_mass.size() != n || attr.value_sqnorm.size() != n) {
        return Malformed(sec, "mass array size");
      }
    }
    if (attr.has_words) {
      DIME_RETURN_IF_ERROR(ParseRankColumn(&reader, sec, n, &attr.word_ranks));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.word_weights));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.word_mass));
      DIME_RETURN_IF_ERROR(ParseDoubles(&reader, sec, &attr.word_sqnorm));
      if (attr.word_mass.size() != n || attr.word_sqnorm.size() != n) {
        return Malformed(sec, "mass array size");
      }
    }
    if (attr.has_text) {
      uint64_t n_text;
      if (!reader.U64(&n_text)) return Malformed(sec, "truncated text");
      if (n_text != n) return Malformed(sec, "text count");
      attr.text.resize(n_text);
      for (std::string& t : attr.text) {
        if (!reader.String(&t)) return Malformed(sec, "truncated text");
      }
      if (!reader.Align8()) return Malformed(sec, "truncated text padding");
      DIME_RETURN_IF_ERROR(
          ParseRankColumn(&reader, sec, n, &attr.qgram_ranks));
    }
    uint64_t n_nodes;
    if (!reader.U64(&n_nodes)) return Malformed(sec, "truncated node maps");
    for (uint64_t k = 0; k < n_nodes; ++k) {
      uint64_t onto_index;
      if (!reader.U64(&onto_index)) return Malformed(sec, "truncated nodes");
      if (onto_index >= num_ontologies) {
        return Malformed(sec, "ontology index out of range");
      }
      std::vector<int> nodes;
      if (!reader.ReadArray(&nodes)) return Malformed(sec, "truncated nodes");
      if (nodes.size() != n) return Malformed(sec, "node list size");
      attr.nodes.emplace(static_cast<int>(onto_index), std::move(nodes));
    }
  }
  if (!reader.done()) return Malformed(sec, "trailing bytes");
  return OkStatus();
}

}  // namespace

StatusOr<RawSnapshot> OpenRaw(const std::string& path,
                              const SnapshotLoadOptions& options,
                              bool check_section_crcs) {
  MappedFile::Options file_options;
  file_options.prefer_mmap = options.prefer_mmap;
  StatusOr<MappedFile> opened = MappedFile::Open(path, file_options);
  if (!opened.ok()) return opened.status();
  RawSnapshot raw;
  raw.file = std::make_shared<MappedFile>(std::move(opened).value());
  const uint8_t* data = raw.file->data();
  const size_t size = raw.file->size();

  if (size < kSnapshotHeaderSize + kSnapshotTailSize) {
    return ParseError(path + ": truncated snapshot (" +
                      std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return ParseError(path + ": not a DIME snapshot (bad magic)");
  }
  uint32_t version;
  std::memcpy(&version, data + 8, sizeof(version));
  if (version != kSnapshotFormatVersion) {
    return ParseError(path + ": snapshot format version " +
                      std::to_string(version) +
                      " is not supported (this binary reads version " +
                      std::to_string(kSnapshotFormatVersion) +
                      "); rebuild it with `dime_snapshot build`");
  }
  if (data[12] != SnapshotNativeEndianMarker()) {
    return ParseError(path +
                      ": snapshot was written on a machine with different "
                      "endianness");
  }
  raw.version = version;

  // Tail, from the back.
  const uint8_t* tail = data + size - kSnapshotTailSize;
  uint64_t table_offset, tail_magic;
  uint32_t section_count, tail_version, tail_crc;
  std::memcpy(&table_offset, tail, 8);
  std::memcpy(&section_count, tail + 8, 4);
  std::memcpy(&tail_version, tail + 12, 4);
  std::memcpy(&raw.fingerprint_lo, tail + 16, 8);
  std::memcpy(&raw.fingerprint_hi, tail + 24, 8);
  std::memcpy(&tail_crc, tail + 32, 4);
  std::memcpy(&tail_magic, tail + 40, 8);
  if (tail_magic != kSnapshotTailMagic) {
    return ParseError(path + ": snapshot footer missing (truncated file?)");
  }
  if (tail_version != version) {
    return ParseError(path + ": header/footer version mismatch");
  }
  const uint64_t table_len =
      static_cast<uint64_t>(section_count) * kSnapshotSectionEntrySize;
  if (table_offset < kSnapshotHeaderSize ||
      table_offset > size - kSnapshotTailSize ||
      table_len != size - kSnapshotTailSize - table_offset) {
    return ParseError(path + ": snapshot section table out of bounds");
  }
  // tail_crc covers the table and the tail fields before the crc itself;
  // checking it first means a corrupted directory is never walked.
  const uint32_t expect_crc =
      Crc32(data + table_offset, table_len + 32);
  if (expect_crc != tail_crc) {
    return DataLossError(path + ": snapshot directory checksum mismatch");
  }

  raw.sections.resize(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    const uint8_t* entry = data + table_offset +
                           static_cast<size_t>(s) * kSnapshotSectionEntrySize;
    Section& sec = raw.sections[s];
    std::memcpy(&sec.id, entry, 4);
    std::memcpy(&sec.index, entry + 4, 4);
    std::memcpy(&sec.offset, entry + 8, 8);
    std::memcpy(&sec.length, entry + 16, 8);
    std::memcpy(&sec.crc32, entry + 24, 4);
    if (sec.offset < kSnapshotHeaderSize || sec.offset % 8 != 0 ||
        sec.offset > table_offset || sec.length > table_offset - sec.offset) {
      return DataLossError(path + ": snapshot section " + SectionLabel(sec) +
                           " out of bounds");
    }
    if (check_section_crcs &&
        Crc32(data + sec.offset, sec.length) != sec.crc32) {
      return DataLossError(path + ": snapshot section " + SectionLabel(sec) +
                           " checksum mismatch");
    }
  }
  return raw;
}

const Section* FindSection(const RawSnapshot& raw, uint32_t id,
                           uint32_t index) {
  for (const Section& sec : raw.sections) {
    if (sec.id == id && sec.index == index) return &sec;
  }
  return nullptr;
}

StatusOr<LoadedSnapshot> LoadFromRaw(RawSnapshot raw) {
  const uint8_t* data = raw.file->data();
  auto section_reader = [&](const Section& sec) {
    return ByteReader(data + sec.offset, sec.length);
  };
  auto require = [&](SnapshotSectionId id,
                     uint32_t index) -> StatusOr<const Section*> {
    const Section* sec = FindSection(raw, static_cast<uint32_t>(id), index);
    if (sec == nullptr) {
      return ParseError(std::string("snapshot is missing section ") +
                        SnapshotSectionIdName(static_cast<uint32_t>(id)) +
                        "[" + std::to_string(index) + "]");
    }
    return sec;
  };

  LoadedSnapshot loaded;
  loaded.fingerprint_lo = raw.fingerprint_lo;
  loaded.fingerprint_hi = raw.fingerprint_hi;
  loaded.mapped = raw.file->mapped();

  // meta
  DIME_ASSIGN_OR_RETURN(const Section* meta_sec,
                        require(SnapshotSectionId::kMeta, 0));
  uint64_t group_count, attr_count;
  {
    ByteReader meta = section_reader(*meta_sec);
    if (!meta.U64(&group_count) || !meta.U64(&attr_count)) {
      return Malformed(*meta_sec, "truncated header");
    }
    std::vector<std::string> names(attr_count);
    for (std::string& name : names) {
      if (!meta.String(&name)) return Malformed(*meta_sec, "truncated name");
    }
    loaded.schema = Schema(std::move(names));
    if (group_count == 0) return Malformed(*meta_sec, "zero groups");
  }

  // ontologies (before rules: ValidateRules needs them in context)
  DIME_ASSIGN_OR_RETURN(const Section* onto_sec,
                        require(SnapshotSectionId::kOntologies, 0));
  {
    ByteReader onto = section_reader(*onto_sec);
    // A tree costs at least its u64 text length, so a count past
    // remaining() / 8 cannot be honest; each ref is exactly 8 bytes.
    uint64_t n_trees, n_refs;
    std::vector<std::shared_ptr<const Ontology>> trees;
    if (!onto.U64(&n_trees) || n_trees > onto.remaining() / 8) {
      return Malformed(*onto_sec, "truncated tree table");
    }
    for (uint64_t t = 0; t < n_trees; ++t) {
      std::string text;
      auto tree = std::make_shared<Ontology>();
      if (!onto.String(&text) || !Ontology::FromText(text, tree.get()).ok()) {
        return Malformed(*onto_sec, "ontology text does not parse");
      }
      trees.push_back(std::move(tree));
    }
    if (!onto.U64(&n_refs) || onto.remaining() % 8 != 0 ||
        n_refs != onto.remaining() / 8) {
      return Malformed(*onto_sec, "ref table size");
    }
    for (uint64_t r = 0; r < n_refs; ++r) {
      uint32_t tree_index = 0, mode = 0;
      if (!onto.U32(&tree_index) || !onto.U32(&mode) ||
          tree_index >= trees.size() ||
          mode > static_cast<uint32_t>(MapMode::kFuzzyName)) {
        return Malformed(*onto_sec, "ref names no stored tree or map mode");
      }
      loaded.context.ontologies.push_back(
          OntologyRef{trees[tree_index], static_cast<MapMode>(mode)});
    }
  }

  // rules
  DIME_ASSIGN_OR_RETURN(const Section* rules_sec,
                        require(SnapshotSectionId::kRules, 0));
  {
    std::string text(reinterpret_cast<const char*>(data + rules_sec->offset),
                     rules_sec->length);
    std::string error;
    if (!RuleSetFromText(text, loaded.schema, &loaded.positive,
                         &loaded.negative, &error)) {
      return Malformed(*rules_sec, "rule set does not parse");
    }
    if (!ValidateRules(loaded.schema, loaded.positive, loaded.negative,
                       loaded.context)
             .empty()) {
      return Malformed(*rules_sec, "rule set does not validate");
    }
  }

  // groups + prepared
  loaded.groups.resize(group_count);
  std::vector<std::shared_ptr<PreparedGroup>> prepared(group_count);
  for (uint64_t i = 0; i < group_count; ++i) {
    const uint32_t index = static_cast<uint32_t>(i);
    DIME_ASSIGN_OR_RETURN(const Section* group_sec,
                          require(SnapshotSectionId::kGroup, index));
    {
      ByteReader rd = section_reader(*group_sec);
      Group& group = loaded.groups[i];
      uint64_t attr_count = 0;
      if (!rd.String(&group.name) || !rd.U64(&attr_count)) {
        return Malformed(*group_sec, "truncated group");
      }
      if (attr_count != loaded.schema.size()) {
        return Malformed(*group_sec, "group schema disagrees with meta");
      }
      for (uint64_t a = 0; a < attr_count; ++a) {
        std::string attr_name;
        if (!rd.String(&attr_name)) {
          return Malformed(*group_sec, "truncated group schema");
        }
        if (attr_name != loaded.schema.AttributeName(static_cast<int>(a))) {
          return Malformed(*group_sec, "group schema disagrees with meta");
        }
      }
      group.schema = loaded.schema;
      uint32_t has_truth = 0, pad = 0;
      uint64_t entity_count = 0;
      if (!rd.U32(&has_truth) || !rd.U32(&pad) || !rd.U64(&entity_count) ||
          has_truth > 1 || pad != 0) {
        return Malformed(*group_sec, "bad group header");
      }
      // Every entity costs at least one u64 (its id length) plus one u64
      // per attribute, so a count past this bound cannot be honest.
      if (entity_count > rd.remaining() / ((attr_count + 1) * 8)) {
        return Malformed(*group_sec, "entity count exceeds section");
      }
      group.entities.resize(static_cast<size_t>(entity_count));
      for (Entity& entity : group.entities) {
        if (!rd.String(&entity.id)) {
          return Malformed(*group_sec, "truncated entity");
        }
        entity.values.resize(static_cast<size_t>(attr_count));
        for (AttributeValue& value : entity.values) {
          uint64_t value_count = 0;
          if (!rd.U64(&value_count) ||
              value_count > rd.remaining() / 8) {
            return Malformed(*group_sec, "truncated entity");
          }
          value.resize(static_cast<size_t>(value_count));
          for (std::string& s : value) {
            if (!rd.String(&s)) {
              return Malformed(*group_sec, "truncated entity");
            }
          }
        }
      }
      if (has_truth != 0) {
        if (!rd.ReadArray(&group.truth) ||
            group.truth.size() != group.entities.size()) {
          return Malformed(*group_sec, "truncated ground truth");
        }
      }
      if (!rd.done()) {
        return Malformed(*group_sec, "trailing bytes after group");
      }
    }
    const uint64_t n = loaded.groups[i].size();

    DIME_ASSIGN_OR_RETURN(const Section* prep_sec,
                          require(SnapshotSectionId::kPrepared, index));
    prepared[i] = std::make_shared<PreparedGroup>();
    DIME_RETURN_IF_ERROR(ParsePreparedSection(
        *prep_sec, section_reader(*prep_sec), n, loaded.schema.size(),
        loaded.context.ontologies.size(), prepared[i].get()));
  }

  // The groups vector is final now: fix the back pointers and contexts.
  for (uint64_t i = 0; i < group_count; ++i) {
    prepared[i]->group = &loaded.groups[i];
    prepared[i]->context = loaded.context;
  }
  loaded.prepared = std::move(prepared);
  loaded.backing = raw.file;
  return loaded;
}

}  // namespace snapshot_internal

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const SnapshotLoadOptions& options) {
  DIME_ASSIGN_OR_RETURN(
      snapshot_internal::RawSnapshot raw,
      snapshot_internal::OpenRaw(path, options,
                                 /*check_section_crcs=*/true));
  std::shared_ptr<MappedFile> file = raw.file;
  StatusOr<LoadedSnapshot> loaded =
      snapshot_internal::LoadFromRaw(std::move(raw));
  // Loading read every byte for its CRC and copied the groups, rules and
  // ontologies out; only the prepared arenas stay borrowed. Dropping the
  // pages leaves resident just the arenas that serving touches again, so
  // a reload that briefly maps two snapshots does not hold two of them.
  if (loaded.ok()) file->DropResidentPages();
  return loaded;
}

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  DIME_ASSIGN_OR_RETURN(
      snapshot_internal::RawSnapshot raw,
      snapshot_internal::OpenRaw(path, SnapshotLoadOptions(),
                                 /*check_section_crcs=*/false));
  SnapshotInfo info;
  info.version = raw.version;
  info.file_size = raw.file->size();
  info.fingerprint_lo = raw.fingerprint_lo;
  info.fingerprint_hi = raw.fingerprint_hi;
  info.sections = raw.sections;
  return info;
}

Status VerifySnapshot(const std::string& path, bool deep) {
  DIME_ASSIGN_OR_RETURN(
      snapshot_internal::RawSnapshot raw,
      snapshot_internal::OpenRaw(path, SnapshotLoadOptions(),
                                 /*check_section_crcs=*/true));
  // Full parse: everything the serving path would trust must parse.
  DIME_ASSIGN_OR_RETURN(LoadedSnapshot loaded,
                        snapshot_internal::LoadFromRaw(raw));
  if (!deep) return OkStatus();

  // Deep: re-prepare every group from its embedded entities and require
  // the freshly serialized prepared bytes to match the stored ones —
  // preparation is deterministic, so any divergence means the snapshot
  // does not faithfully represent its own source data.
  for (size_t i = 0; i < loaded.groups.size(); ++i) {
    PreparedGroup fresh = PrepareGroup(loaded.groups[i], loaded.positive,
                                       loaded.negative, loaded.context);
    const std::string expect =
        snapshot_internal::SerializePreparedSection(fresh);
    const SnapshotInfo::Section* sec = snapshot_internal::FindSection(
        raw, static_cast<uint32_t>(SnapshotSectionId::kPrepared),
        static_cast<uint32_t>(i));
    if (sec == nullptr || sec->length != expect.size() ||
        std::memcmp(raw.file->data() + sec->offset, expect.data(),
                    expect.size()) != 0) {
      return DataLossError("deep verification failed: stored prepared "
                           "section of group '" +
                           loaded.groups[i].name +
                           "' differs from a fresh preparation");
    }
  }
  return OkStatus();
}

}  // namespace dime
