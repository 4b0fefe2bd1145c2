#include "src/store/epoch.h"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/entity/entity.h"
#include "src/rules/rule_io.h"

namespace dime {

ServingCorpus CorpusFromSnapshot(LoadedSnapshot snapshot) {
  ServingCorpus corpus;
  corpus.schema = std::move(snapshot.schema);
  corpus.positive = std::move(snapshot.positive);
  corpus.negative = std::move(snapshot.negative);
  corpus.context = std::move(snapshot.context);
  corpus.shared_trees = std::move(snapshot.owned_trees);
  corpus.groups = std::move(snapshot.groups);
  corpus.prepared = std::move(snapshot.prepared);
  corpus.content_fingerprint_lo = snapshot.fingerprint_lo;
  corpus.content_fingerprint_hi = snapshot.fingerprint_hi;
  corpus.backing = std::move(snapshot.backing);
  return corpus;
}

Fingerprint GroupContentKey(const Group& group) {
  ContentHasher h;
  const std::vector<std::string>& header = group.schema.attribute_names();
  h.Word(header.size());
  for (const std::string& attr : header) h.Field(attr);
  h.Word(group.entities.size());
  for (const Entity& entity : group.entities) {
    h.Field(entity.id);
    h.Word(entity.values.size());
    for (const AttributeValue& value : entity.values) {
      h.Word(value.size());
      for (const std::string& piece : value) h.Field(piece);
    }
  }
  h.Field(std::string_view(reinterpret_cast<const char*>(group.truth.data()),
                           group.truth.size()));
  return h.Finish();
}

namespace {

Fingerprint ContextKey(const Schema& schema, const std::string& rules_text,
                       const DimeContext& context) {
  ContentHasher h;
  h.Word(schema.size());
  for (const std::string& attr : schema.attribute_names()) h.Field(attr);
  h.Field(rules_text);
  h.Word(static_cast<uint64_t>(context.qgram_q));
  h.Word(context.ontologies.size());
  for (const OntologyRef& ref : context.ontologies) {
    h.Word(static_cast<uint64_t>(ref.mode));
    h.Field(ref.tree == nullptr ? std::string() : ref.tree->ToText());
  }
  return h.Finish();
}

}  // namespace

CorpusEpoch::CorpusEpoch(uint64_t sequence, ServingCorpus corpus)
    : sequence_(sequence),
      corpus_(std::move(corpus)),
      group_keys_(std::make_unique<KeySlot[]>(corpus_.groups.size())) {
  // Unique ownership becomes shared ownership: a successor epoch built
  // from this one (delta merge) copies the shared_ptrs and the raw
  // pointers inside context.ontologies stay valid in both epochs.
  for (std::unique_ptr<Ontology>& tree : corpus_.owned_trees) {
    corpus_.shared_trees.emplace_back(std::move(tree));
  }
  corpus_.owned_trees.clear();

  rules_text_ =
      RuleSetToText(corpus_.schema, corpus_.positive, corpus_.negative);
  context_key_ = ContextKey(corpus_.schema, rules_text_, corpus_.context);

  for (const Group& group : corpus_.groups) {
    group_by_name_.emplace(group.name, &group);
  }

  if (corpus_.content_fingerprint_lo != 0 ||
      corpus_.content_fingerprint_hi != 0) {
    fingerprint_lo_ = corpus_.content_fingerprint_lo;
    fingerprint_hi_ = corpus_.content_fingerprint_hi;
  } else {
    // Not snapshot-backed: derive the identity from the cache-key parts
    // (which fills every group's key slot on the way).
    ContentHasher h;
    h.Key(context_key_).Word(corpus_.groups.size());
    for (const Group& group : corpus_.groups) {
      h.Field(group.name).Key(GroupKey(group));
    }
    Fingerprint fp = h.Finish();
    fingerprint_lo_ = fp.lo;
    fingerprint_hi_ = fp.hi;
  }

  for (size_t i = 0;
       i < corpus_.prepared.size() && i < corpus_.groups.size(); ++i) {
    if (corpus_.prepared[i] != nullptr) {
      prepared_by_group_[&corpus_.groups[i]] = corpus_.prepared[i].get();
    }
  }
}

Fingerprint CorpusEpoch::GroupKey(const Group& group) const {
  const Group* first = corpus_.groups.data();
  const Group* last = first + corpus_.groups.size();
  std::less<const Group*> before;
  if (before(&group, first) || !before(&group, last)) {
    return GroupContentKey(group);  // inline group: not ours to memoize
  }
  KeySlot& slot = group_keys_[static_cast<size_t>(&group - first)];
  if (slot.ready.load()) return Fingerprint{slot.lo.load(), slot.hi.load()};
  // Racing first uses all compute the same key and store the same words,
  // so a reader that sees `ready` reads the right key from any of them.
  Fingerprint key = GroupContentKey(group);
  slot.lo.store(key.lo);
  slot.hi.store(key.hi);
  slot.ready.store(true);
  return key;
}

const Group* CorpusEpoch::FindGroup(std::string_view name) const {
  auto it = group_by_name_.find(name);
  return it == group_by_name_.end() ? nullptr : it->second;
}

const PreparedGroup* CorpusEpoch::FindPrepared(const Group* group) const {
  auto it = prepared_by_group_.find(group);
  return it == prepared_by_group_.end() ? nullptr : it->second;
}

void EpochManager::Retirer::operator()(const CorpusEpoch* epoch) const {
  const uint64_t sequence = epoch->sequence();
  // Test hook: hold the retiring epoch a beat before unmapping, so chaos
  // tests can widen the window in which a stale pointer would fault.
  if (DIME_FAULT_POINT(failpoints::kEpochUnmapDelay)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  delete epoch;  // frees the corpus; releasing `backing` unmaps the file
  control->retired.fetch_add(1, std::memory_order_relaxed);
  if (control->hook) control->hook(sequence);
}

EpochManager::EpochManager(RetireHook retire_hook)
    : control_(std::make_shared<ControlBlock>()) {
  control_->hook = std::move(retire_hook);
}

std::shared_ptr<const CorpusEpoch> EpochManager::Install(
    ServingCorpus corpus) {
  const uint64_t sequence =
      installed_.fetch_add(1, std::memory_order_relaxed) + 1;
  // The epoch (fingerprint synthesis, lookup index) is built outside the
  // lock so a heavyweight install never stalls Pin(). Two racing installs
  // resolve by sequence: the later one wins, the earlier is retired the
  // moment its last pin drops. The WINNER is returned either way, so a
  // caller reporting the outcome (e.g. an admin reload reply) describes
  // the epoch that actually serves — never one that lost the race and
  // will be retired without serving a single request.
  std::shared_ptr<const CorpusEpoch> epoch(
      new CorpusEpoch(sequence, std::move(corpus)), Retirer{control_});
  MutexLock lock(&mu_);
  if (current_ == nullptr || current_->sequence() < sequence) {
    current_ = std::move(epoch);
  }
  return current_;
}

std::shared_ptr<const CorpusEpoch> EpochManager::Pin() const {
  MutexLock lock(&mu_);
  return current_;
}

uint64_t EpochManager::current_sequence() const {
  MutexLock lock(&mu_);
  return current_ == nullptr ? 0 : current_->sequence();
}

}  // namespace dime
