#ifndef DIME_ENTITY_ENTITY_H_
#define DIME_ENTITY_ENTITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

/// \file entity.h
/// The data model of Section II: entities are defined over a multi-valued
/// relation R(A1, ..., Am); each attribute of an entity takes a *list* of
/// values (e.g. e[Authors] = {"Xu Chu", "John Morcos", ...}). A group G is
/// a set of entities that some upstream categorizer placed together.

namespace dime {

/// One attribute value: a list of strings (possibly a singleton).
using AttributeValue = std::vector<std::string>;

/// The multi-valued relation R(A1, ..., Am).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> attribute_names);

  /// Index of `name` or -1 if absent.
  int AttributeIndex(std::string_view name) const;

  const std::string& AttributeName(int index) const {
    return attribute_names_[index];
  }

  size_t size() const { return attribute_names_.size(); }

  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }

 private:
  std::vector<std::string> attribute_names_;
};

/// One entity. `values` is parallel to the schema's attributes.
struct Entity {
  std::string id;
  std::vector<AttributeValue> values;

  const AttributeValue& value(int attr) const { return values[attr]; }
};

/// A group of entities categorized together, with optional ground truth.
struct Group {
  std::string name;
  Schema schema;
  std::vector<Entity> entities;

  /// Ground truth: truth[i] == 1 iff entities[i] is mis-categorized. Empty
  /// when unknown.
  std::vector<uint8_t> truth;

  size_t size() const { return entities.size(); }
  bool has_truth() const { return truth.size() == entities.size(); }

  /// Indices of the truly mis-categorized entities (requires truth).
  std::vector<int> TrueErrorIndices() const;
};

/// Serializes a group to TSV: one header row of attribute names (plus a
/// final "_error" column when ground truth is present), then one row per
/// entity (id first). Multi-valued cells join values with '|'.
std::string GroupToTsv(const Group& group);

/// Parses GroupToTsv output. Error codes distinguish the failure modes:
///   PARSE_ERROR      empty input or a header that does not start with _id
///   SCHEMA_MISMATCH  an entity row whose cell count disagrees with the
///                    header
/// On error `out` is left cleared (empty schema, no entities).
Status ParseGroupTsv(const std::string& tsv, std::string_view name,
                     Group* out);

/// File wrappers around the TSV codec. LoadGroup adds the IO failure
/// modes of ReadTextFile (csv.h): NOT_FOUND (unopenable file, distinct
/// from an empty one, which parses as PARSE_ERROR for lack of a header)
/// and IO_ERROR (read failed mid-stream; failpoint "io/read").
Status SaveGroup(const Group& group, const std::string& path);
Status LoadGroup(const std::string& path, std::string_view name, Group* out);

}  // namespace dime

#endif  // DIME_ENTITY_ENTITY_H_
