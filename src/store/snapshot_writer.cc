#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/checksum.h"
#include "src/core/preprocess.h"
#include "src/rules/rule_io.h"
#include "src/store/bytes.h"
#include "src/store/snapshot.h"
#include "src/store/snapshot_format.h"
#include "src/store/snapshot_internal.h"

namespace dime {
namespace snapshot_internal {
namespace {

static_assert(sizeof(int) == 4,
              "snapshot layout assumes 32-bit int entity ids");

void SerializeRankColumn(ByteSink* sink, const RankColumn& col) {
  const uint64_t rows = col.num_entities();
  sink->U64(rows);
  sink->Array(col.offsets_ptr(), rows + 1);
  sink->Array(col.arena_ptr(), col.total_ranks());
}

void SerializeDoubles(ByteSink* sink, const std::vector<double>& v) {
  sink->Array(v.data(), v.size());
}

}  // namespace

std::string SerializePreparedSection(const PreparedGroup& pg) {
  ByteSink sink;
  const uint64_t n = pg.size();
  sink.U64(n);
  sink.U64(pg.attrs.size());
  for (const PreparedAttr& attr : pg.attrs) {
    sink.U32((attr.has_value_list ? 1u : 0u) | (attr.has_words ? 2u : 0u) |
             (attr.has_text ? 4u : 0u));
    sink.U32(0);
    if (attr.has_value_list) {
      SerializeRankColumn(&sink, attr.value_ranks);
      SerializeDoubles(&sink, attr.value_weights);
      SerializeDoubles(&sink, attr.value_mass);
      SerializeDoubles(&sink, attr.value_sqnorm);
    }
    if (attr.has_words) {
      SerializeRankColumn(&sink, attr.word_ranks);
      SerializeDoubles(&sink, attr.word_weights);
      SerializeDoubles(&sink, attr.word_mass);
      SerializeDoubles(&sink, attr.word_sqnorm);
    }
    if (attr.has_text) {
      sink.U64(attr.text.size());
      for (const std::string& t : attr.text) sink.String(t);
      sink.Align8();
      SerializeRankColumn(&sink, attr.qgram_ranks);
    }
    // Ontology node maps, sorted by ontology index: unordered_map order
    // is not deterministic and these bytes are fingerprinted.
    std::vector<int> keys;
    keys.reserve(attr.nodes.size());
    for (const auto& entry : attr.nodes) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    sink.U64(keys.size());
    for (int key : keys) {
      const std::vector<int>& nodes = attr.nodes.at(key);
      sink.U64(static_cast<uint64_t>(key));
      sink.Array(nodes.data(), nodes.size());
    }
  }
  return sink.Take();
}

}  // namespace snapshot_internal

namespace {

using snapshot_internal::SerializePreparedSection;

struct PendingSection {
  uint32_t id;
  uint32_t index;
  std::string payload;
};

}  // namespace

StatusOr<std::string> SerializeSnapshot(const SnapshotWriteRequest& request) {
  if (request.groups == nullptr || request.positive == nullptr ||
      request.negative == nullptr || request.context == nullptr) {
    return InvalidArgumentError("SnapshotWriteRequest has null fields");
  }
  const std::vector<Group>& groups = *request.groups;
  if (groups.empty()) {
    return InvalidArgumentError("snapshot needs at least one group");
  }
  const Schema& schema = groups[0].schema;
  for (const Group& g : groups) {
    if (g.schema.attribute_names() != schema.attribute_names()) {
      return InvalidArgumentError("group '" + g.name +
                                  "' disagrees with the corpus schema");
    }
  }
  std::string validation = ValidateRules(schema, *request.positive,
                                         *request.negative, *request.context);
  if (!validation.empty()) {
    return InvalidArgumentError("invalid rule set: " + validation);
  }

  std::vector<PendingSection> sections;
  auto add = [&](SnapshotSectionId id, uint32_t index, std::string payload) {
    sections.push_back(
        {static_cast<uint32_t>(id), index, std::move(payload)});
  };

  {
    ByteSink meta;
    meta.U64(groups.size());
    meta.U64(schema.size());
    for (const std::string& name : schema.attribute_names()) {
      meta.String(name);
    }
    add(SnapshotSectionId::kMeta, 0, meta.Take());
  }
  add(SnapshotSectionId::kRules, 0,
      RuleSetToText(schema, *request.positive, *request.negative));
  {
    // Each distinct tree once (by pointer), then per ref: index, mode.
    std::vector<const Ontology*> trees;
    ByteSink refs;
    for (const OntologyRef& ref : request.context->ontologies) {
      if (ref.tree == nullptr) {
        return InvalidArgumentError("context has a null ontology tree");
      }
      auto it = std::find(trees.begin(), trees.end(), ref.tree.get());
      refs.U32(static_cast<uint32_t>(it - trees.begin()));
      refs.U32(static_cast<uint32_t>(ref.mode));
      if (it == trees.end()) trees.push_back(ref.tree.get());
    }
    ByteSink onto;
    onto.U64(trees.size());
    for (const Ontology* tree : trees) onto.String(tree->ToText());
    onto.U64(request.context->ontologies.size());
    const std::string ref_bytes = refs.Take();
    onto.Raw(ref_bytes.data(), ref_bytes.size());
    add(SnapshotSectionId::kOntologies, 0, onto.Take());
  }

  for (size_t i = 0; i < groups.size(); ++i) {
    const uint32_t index = static_cast<uint32_t>(i);
    {
      // Binary entity framing, NOT TSV: re-parsing TSV text at load used
      // to dominate the warm-start time (half the cold-path cost on
      // amazon-10000); length-prefixed pre-split values decode in a few
      // milliseconds.
      const Group& g = groups[i];
      ByteSink sec;
      sec.String(g.name);
      sec.U64(g.schema.size());
      for (const std::string& attr_name : g.schema.attribute_names()) {
        sec.String(attr_name);
      }
      sec.U32(g.has_truth() ? 1 : 0);
      sec.U32(0);
      sec.U64(g.entities.size());
      for (const Entity& e : g.entities) {
        if (e.values.size() != g.schema.size()) {
          return InvalidArgumentError("group '" + g.name +
                                      "' has an entity whose value list "
                                      "disagrees with the schema");
        }
        sec.String(e.id);
        for (const AttributeValue& value : e.values) {
          sec.U64(value.size());
          for (const std::string& s : value) sec.String(s);
        }
      }
      if (g.has_truth()) sec.Array(g.truth.data(), g.truth.size());
      add(SnapshotSectionId::kGroup, index, sec.Take());
    }
    // The expensive part — full preparation — happens here, once, so
    // load never has to.
    PreparedGroup pg = PrepareGroup(groups[i], *request.positive,
                                    *request.negative, *request.context);
    add(SnapshotSectionId::kPrepared, index, SerializePreparedSection(pg));
  }

  // Assemble: header, 8-aligned payloads, table, tail.
  ByteSink file;
  file.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  file.U32(kSnapshotFormatVersion);
  const uint8_t endian_and_pad[4] = {SnapshotNativeEndianMarker(), 0, 0, 0};
  file.Raw(endian_and_pad, sizeof(endian_and_pad));

  SnapshotFingerprint fingerprint;
  struct TableEntry {
    uint32_t id, index;
    uint64_t offset, length;
    uint32_t crc;
  };
  std::vector<TableEntry> table;
  table.reserve(sections.size());
  for (const PendingSection& sec : sections) {
    file.Align8();
    TableEntry entry;
    entry.id = sec.id;
    entry.index = sec.index;
    entry.offset = file.size();
    entry.length = sec.payload.size();
    entry.crc = Crc32(sec.payload);
    table.push_back(entry);
    fingerprint.Update(sec.payload.data(), sec.payload.size());
    file.Raw(sec.payload.data(), sec.payload.size());
  }

  file.Align8();
  const uint64_t table_offset = file.size();
  for (const TableEntry& entry : table) {
    file.U32(entry.id);
    file.U32(entry.index);
    file.U64(entry.offset);
    file.U64(entry.length);
    file.U32(entry.crc);
    file.U32(0);
  }

  file.U64(table_offset);
  file.U32(static_cast<uint32_t>(table.size()));
  file.U32(kSnapshotFormatVersion);
  file.U64(fingerprint.lo);
  file.U64(fingerprint.hi);
  // tail_crc seals the directory: table bytes plus the tail fields above.
  const uint32_t tail_crc =
      Crc32(file.str().data() + table_offset, file.size() - table_offset);
  file.U32(tail_crc);
  file.U32(0);
  file.U64(kSnapshotTailMagic);
  return file.Take();
}

Status WriteSnapshot(const SnapshotWriteRequest& request,
                     const std::string& path) {
  StatusOr<std::string> image = SerializeSnapshot(request);
  if (!image.ok()) return image.status();
  // Never rewrite `path` in place: a server may be mapping it (--watch,
  // or groups still borrowing an earlier epoch's mapping), and truncating
  // a mapped file faults its readers. Write a sibling temporary and
  // rename it over the target, so a mapping of the old file keeps its
  // inode and a reader of the path sees the old image or the new one.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary);
  if (!out) return NotFoundError(path + ": cannot create");
  out.write(image->data(), static_cast<std::streamsize>(image->size()));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return IoError(path + ": write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError(path + ": cannot replace");
  }
  return OkStatus();
}

}  // namespace dime
