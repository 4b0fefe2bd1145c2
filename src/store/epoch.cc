#include "src/store/epoch.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/entity/entity.h"
#include "src/rules/rule_io.h"

namespace dime {

ResidentGroup::ResidentGroup(Group group,
                             std::shared_ptr<PreparedGroup> prepared,
                             std::shared_ptr<const void> backing)
    : group_(std::move(group)), backing_(std::move(backing)) {
  // Moving a Group keeps its entity storage in place, so only the back
  // pointer needs fixing; borrowed arenas stay borrowed from `backing`.
  prepared->group = &group_;
  prepared_ = std::move(prepared);
}

std::shared_ptr<const ResidentGroup> ResidentGroup::Prepare(
    Group group, const std::vector<PositiveRule>& positive,
    const std::vector<NegativeRule>& negative, const DimeContext& context) {
  auto prepared = std::make_shared<PreparedGroup>(
      PrepareGroup(group, positive, negative, context));
  return Adopt(std::move(group), std::move(prepared), nullptr);
}

std::shared_ptr<const ResidentGroup> ResidentGroup::Adopt(
    Group group, std::shared_ptr<PreparedGroup> prepared,
    std::shared_ptr<const void> backing) {
  // Not make_shared: the constructor is private.
  return std::shared_ptr<const ResidentGroup>(new ResidentGroup(
      std::move(group), std::move(prepared), std::move(backing)));
}

Fingerprint ResidentGroup::content_key() const {
  if (key_ready_.load()) return Fingerprint{key_lo_.load(), key_hi_.load()};
  // Racing first uses all compute the same key and store the same words,
  // so a reader that sees `key_ready_` reads the right key from any of
  // them.
  Fingerprint key = GroupContentKey(group_);
  key_lo_.store(key.lo);
  key_hi_.store(key.hi);
  key_ready_.store(true);
  return key;
}

ServingCorpus PrepareCorpus(Corpus corpus) {
  ServingCorpus serving;
  serving.schema = std::move(corpus.schema);
  serving.positive = std::move(corpus.positive);
  serving.negative = std::move(corpus.negative);
  serving.context = std::move(corpus.context);
  serving.groups.reserve(corpus.groups.size());
  for (Group& group : corpus.groups) {
    serving.groups.push_back(ResidentGroup::Prepare(
        std::move(group), serving.positive, serving.negative,
        serving.context));
  }
  return serving;
}

ServingCorpus CorpusFromSnapshot(LoadedSnapshot snapshot) {
  ServingCorpus corpus;
  corpus.schema = std::move(snapshot.schema);
  corpus.positive = std::move(snapshot.positive);
  corpus.negative = std::move(snapshot.negative);
  corpus.context = std::move(snapshot.context);
  corpus.groups.reserve(snapshot.groups.size());
  for (size_t i = 0; i < snapshot.groups.size(); ++i) {
    corpus.groups.push_back(ResidentGroup::Adopt(
        std::move(snapshot.groups[i]), std::move(snapshot.prepared[i]),
        snapshot.backing));
  }
  corpus.content_fingerprint_lo = snapshot.fingerprint_lo;
  corpus.content_fingerprint_hi = snapshot.fingerprint_hi;
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
  h.Word(context.ontologies.size());
  for (const OntologyRef& ref : context.ontologies) {
    h.Word(static_cast<uint64_t>(ref.mode));
    h.Field(ref.tree == nullptr ? std::string() : ref.tree->ToText());
  }
  return h.Finish();
}

}  // namespace

CorpusEpoch::CorpusEpoch(uint64_t sequence, ServingCorpus corpus)
    : sequence_(sequence), corpus_(std::move(corpus)) {
  if (!corpus_.context_key.has_value()) {
    corpus_.rules_text =
        RuleSetToText(corpus_.schema, corpus_.positive, corpus_.negative);
    corpus_.context_key =
        ContextKey(corpus_.schema, corpus_.rules_text, corpus_.context);
  }

  for (const std::shared_ptr<const ResidentGroup>& resident : corpus_.groups) {
    group_by_name_.emplace(resident->group().name, resident.get());
  }

  if (corpus_.content_fingerprint_lo != 0 ||
      corpus_.content_fingerprint_hi != 0) {
    fingerprint_lo_ = corpus_.content_fingerprint_lo;
    fingerprint_hi_ = corpus_.content_fingerprint_hi;
  } else {
    // Not snapshot-backed: derive the identity from the cache-key parts.
    // Groups shared with a base epoch bring their memoized keys; the
    // rest are hashed here, once.
    ContentHasher h;
    h.Key(context_key()).Word(corpus_.groups.size());
    for (const std::shared_ptr<const ResidentGroup>& resident :
         corpus_.groups) {
      h.Field(resident->group().name).Key(resident->content_key());
    }
    Fingerprint fp = h.Finish();
    fingerprint_lo_ = fp.lo;
    fingerprint_hi_ = fp.hi;
  }
}

Fingerprint CorpusEpoch::GroupKey(const Group& group) const {
  const ResidentGroup* resident = ResidentOf(group);
  return resident != nullptr ? resident->content_key()
                             : GroupContentKey(group);
}

const ResidentGroup* CorpusEpoch::FindResident(std::string_view name) const {
  auto it = group_by_name_.find(name);
  return it == group_by_name_.end() ? nullptr : it->second;
}

const Group* CorpusEpoch::FindGroup(std::string_view name) const {
  const ResidentGroup* resident = FindResident(name);
  return resident == nullptr ? nullptr : &resident->group();
}

const ResidentGroup* CorpusEpoch::ResidentOf(const Group& group) const {
  const ResidentGroup* resident = FindResident(group.name);
  return resident != nullptr && &resident->group() == &group ? resident
                                                             : nullptr;
}

void EpochManager::Retirer::operator()(const CorpusEpoch* epoch) const {
  const uint64_t sequence = epoch->sequence();
  // Test hook: hold the retiring epoch a beat before unmapping, so chaos
  // tests can widen the window in which a stale pointer would fault.
  if (DIME_FAULT_POINT(failpoints::kEpochUnmapDelay)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  // Releases the epoch's resident groups; a snapshot mapping unmaps
  // with the last group that borrows from it.
  delete epoch;
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
  // Declared before the lock so it is released after the unlock: when no
  // request pins the superseded epoch, its retirement (frees, munmap)
  // runs here and must not hold up Pin().
  std::shared_ptr<const CorpusEpoch> superseded;
  MutexLock lock(&mu_);
  if (current_ == nullptr || current_->sequence() < sequence) {
    superseded = std::exchange(current_, std::move(epoch));
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
