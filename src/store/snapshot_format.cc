#include "src/store/snapshot_format.h"

namespace dime {

const char* SnapshotSectionIdName(uint32_t id) {
  switch (static_cast<SnapshotSectionId>(id)) {
    case SnapshotSectionId::kMeta:
      return "meta";
    case SnapshotSectionId::kRules:
      return "rules";
    case SnapshotSectionId::kOntologies:
      return "ontologies";
    case SnapshotSectionId::kGroup:
      return "group";
    case SnapshotSectionId::kPrepared:
      return "prepared";
  }
  return "unknown";
}

}  // namespace dime
