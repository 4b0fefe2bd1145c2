#ifndef DIME_STORE_EPOCH_H_
#define DIME_STORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/mutex.h"
#include "src/core/corpus.h"
#include "src/core/preprocess.h"
#include "src/store/snapshot.h"

/// \file epoch.h
/// Epoch-based zero-downtime corpus swap (RCU-style). A *corpus epoch* is
/// one immutable, fully prepared generation of the serving corpus — a
/// loaded snapshot, a prepared TSV or generated corpus, or a delta merge
/// on top of either. The EpochManager holds the latest epoch behind a
/// refcount:
///
///   Install(corpus)  publishes a new epoch; subsequent Pin() calls see it
///   Pin()            refcounts the current epoch for one request's lifetime
///   (refcount -> 0)  the epoch is destroyed, releasing its resident groups,
///                    and the retire hook fires with the epoch's sequence
///
/// In-flight requests keep serving the epoch they pinned at admission —
/// never a mix of two generations — while new requests see the latest.
/// Resident groups are owned per group, not per epoch (ResidentGroup): a
/// delta merge shares every group its records did not touch with its
/// base epoch. A snapshot mapping is therefore unmapped when the last
/// group borrowing from it is released, which is never before the last
/// pin of an epoch holding that group drops — a swap can never pull
/// pages out from under a running engine. Writers (Install) never block
/// readers (Pin is one mutex-protected shared_ptr copy), and readers
/// never block writers.
///
/// Failpoints (see fault_injection.h):
///   "epoch/unmap-delay"  the retiring epoch sleeps before it is
///                        destroyed, widening the swap/serve race window
///                        for tests
///
/// The serving layer's failpoint "store/swap" (a reload that fails before
/// install) lives in DimeService::ReloadFromSnapshot, the main consumer
/// of this machinery.

namespace dime {

/// One preloaded group as the serving layer holds it: the Group, its
/// fully prepared form, a keep-alive for the snapshot mapping the prepared
/// form borrows its arenas from, and the group's memoized content key.
/// Immutable once published and shared by every epoch that holds it, so a
/// delta-merged epoch keeps the untouched groups of its base — prepared
/// state, key and storage alike — without keeping the base epoch itself
/// alive.
class ResidentGroup {
 public:
  ResidentGroup(const ResidentGroup&) = delete;
  ResidentGroup& operator=(const ResidentGroup&) = delete;

  /// `group` fully prepared (PrepareGroup) against the rules and context.
  static std::shared_ptr<const ResidentGroup> Prepare(
      Group group, const std::vector<PositiveRule>& positive,
      const std::vector<NegativeRule>& negative, const DimeContext& context);

  /// Adopts `group` with its prepared form (a loaded snapshot's),
  /// re-pointing `prepared->group` at the adopted copy. `backing` keeps
  /// the mapping the prepared arenas borrow from alive for as long as this
  /// group is.
  static std::shared_ptr<const ResidentGroup> Adopt(
      Group group, std::shared_ptr<PreparedGroup> prepared,
      std::shared_ptr<const void> backing);

  const Group& group() const { return group_; }
  const PreparedGroup& prepared() const { return *prepared_; }

  /// GroupContentKey(group()), computed on first use and memoized.
  /// Concurrent first uses may each compute it; all store the same value.
  Fingerprint content_key() const;

 private:
  ResidentGroup(Group group, std::shared_ptr<PreparedGroup> prepared,
                std::shared_ptr<const void> backing);

  Group group_;
  std::shared_ptr<const PreparedGroup> prepared_;
  std::shared_ptr<const void> backing_;
  /// The memoized content key; `key_ready_` publishes lo/hi.
  mutable std::atomic<bool> key_ready_{false};
  mutable std::atomic<uint64_t> key_lo_{0};
  mutable std::atomic<uint64_t> key_hi_{0};
};

/// Everything one corpus generation holds resident: the schema the rules
/// were parsed against, the rule set, the evaluation context (its refs
/// own the ontology trees), and the preloaded groups, every one
/// prepared, addressable by name. Built by PrepareCorpus (a
/// loaded or generated Corpus), CorpusFromSnapshot, or a delta merge on
/// top of either; the serving layer consumes it through CorpusEpoch.
struct ServingCorpus {
  Schema schema;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  DimeContext context;
  /// Preloaded groups, addressable by Group::name in CheckRequest, each
  /// owned on its own: a delta-merged corpus holds its base's pointers
  /// for every group no record touched.
  std::vector<std::shared_ptr<const ResidentGroup>> groups;
  /// RuleSetToText of the rules, and the context key over schema, rules
  /// and ontologies (CorpusEpoch::rules_text and context_key). Builders
  /// leave both empty and CorpusEpoch derives them; a delta merge, which
  /// keeps its base's schema, rules and ontologies, carries the base's
  /// over.
  std::string rules_text;
  std::optional<Fingerprint> context_key;
  /// Content fingerprint of the snapshot backing this corpus (both zero
  /// when not snapshot-loaded). The epoch fingerprint is this, or
  /// synthesized from the epoch's context and group keys when zero.
  uint64_t content_fingerprint_lo = 0;
  uint64_t content_fingerprint_hi = 0;
};

/// Prepares every group of `corpus` against its rules and context
/// (ResidentGroup::Prepare) and moves the rest over: how a loaded
/// (LoadCorpus) or generated (MakeDemoCorpus) corpus becomes servable.
ServingCorpus PrepareCorpus(Corpus corpus);

/// Adapts a loaded snapshot into a serving corpus: rules and context
/// move over, and each group is adopted with its prepared form and
/// a keep-alive for the mapping (ResidentGroup::Adopt).
ServingCorpus CorpusFromSnapshot(LoadedSnapshot snapshot);

/// The content key of `group`: a 128-bit hash over its raw fields, each
/// length-prefixed — the schema's attribute names, every entity id, every
/// value piece, and the truth labels. The group name is not part of it,
/// so a renamed page with identical entities shares the key. Values are
/// hashed as stored, not through the sanitizing TSV writer, so "a|b" and
/// "a/b", or one piece "a|b" and two pieces "a", "b", differ.
Fingerprint GroupContentKey(const Group& group);

/// One immutable corpus generation plus the lookup structures the serving
/// hot path needs (group-by-name, canonical rule text, cache-key parts).
/// Constructed once at Install; all accessors are const and safe to call
/// concurrently without synchronization.
class CorpusEpoch {
 public:
  CorpusEpoch(uint64_t sequence, ServingCorpus corpus);

  /// Monotone install counter (1 for the first epoch of a manager).
  uint64_t sequence() const { return sequence_; }

  const ServingCorpus& corpus() const { return corpus_; }

  /// RuleSetToText of the rule set.
  const std::string& rules_text() const { return corpus_.rules_text; }

  /// The context half of every result-cache key, over the schema,
  /// rules_text(), and each ontology ref's mode and Ontology::ToText().
  /// Computed once at construction, or carried over from the base epoch
  /// by a delta merge. Two epochs whose rules and ontologies agree share
  /// it, whatever their groups.
  const Fingerprint& context_key() const { return *corpus_.context_key; }

  /// The content key of `group` (GroupContentKey): memoized in its
  /// ResidentGroup when `group` is resident in this epoch (ResidentOf),
  /// hashed on every call otherwise.
  Fingerprint GroupKey(const Group& group) const;

  /// The epoch's 128-bit content identity, reported by reloads and
  /// compared by fingerprint-gated reloads: the snapshot fingerprint when
  /// the corpus was snapshot-loaded, otherwise synthesized from the
  /// context key and every group's name and content key. It is not part
  /// of result-cache keys.
  uint64_t fingerprint_lo() const { return fingerprint_lo_; }
  uint64_t fingerprint_hi() const { return fingerprint_hi_; }

  /// Resident group by name (the first, if names repeat), or nullptr.
  /// The pointer is valid for the epoch's lifetime — hold a pin (the
  /// shared_ptr) while using it.
  const ResidentGroup* FindResident(std::string_view name) const;
  /// FindResident's Group, or nullptr.
  const Group* FindGroup(std::string_view name) const;
  /// The resident group holding `group` itself (not an equal copy), or
  /// nullptr when `group` is not resident here or a group of the same
  /// name comes before it.
  const ResidentGroup* ResidentOf(const Group& group) const;

 private:
  const uint64_t sequence_;
  ServingCorpus corpus_;
  uint64_t fingerprint_lo_ = 0;
  uint64_t fingerprint_hi_ = 0;
  /// Keys point into each resident's Group::name.
  std::unordered_map<std::string_view, const ResidentGroup*> group_by_name_;
};

/// Publishes and refcounts corpus epochs. Thread-safe. The manager holds
/// one reference to the current epoch; every Pin() adds another. An
/// epoch's destructor (and with it any munmap it causes) runs on whichever
/// thread drops the last reference — a worker finishing the final
/// in-flight request of a superseded epoch, or Install itself, after it
/// released its lock, when no request pinned the old one.
class EpochManager {
 public:
  /// `retire_hook(sequence)` fires after a retired epoch is fully
  /// destroyed (its resident groups released; a snapshot mapping is
  /// unmapped with the last group borrowing from it). Must be
  /// thread-safe; it may run on any thread, including after the manager
  /// itself is destroyed (epochs can outlive the manager while pinned).
  using RetireHook = std::function<void(uint64_t sequence)>;

  explicit EpochManager(RetireHook retire_hook = nullptr);

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Publishes `corpus` as the next epoch and returns the epoch now
  /// serving (already pinned) — normally the one just built; when a
  /// racing Install with a higher sequence won, the winner, so callers
  /// always report an epoch that actually serves. The superseded epoch
  /// survives until its last pin drops.
  std::shared_ptr<const CorpusEpoch> Install(ServingCorpus corpus);

  /// Pins the current epoch. Null only before the first Install.
  std::shared_ptr<const CorpusEpoch> Pin() const;

  /// Sequence of the current epoch (0 before the first Install).
  uint64_t current_sequence() const;

  /// Epochs published so far.
  uint64_t installed() const {
    return installed_.load(std::memory_order_relaxed);
  }

  /// Epochs whose refcount drained to zero (destructor ran, retire hook
  /// fired).
  uint64_t retired() const {
    return control_->retired.load(std::memory_order_relaxed);
  }

 private:
  /// Outlives the manager: the epoch deleter holds a shared_ptr to it, so
  /// a pinned epoch released after the manager is gone still counts.
  struct ControlBlock {
    std::atomic<uint64_t> retired{0};
    RetireHook hook;
  };
  struct Retirer {
    std::shared_ptr<ControlBlock> control;
    void operator()(const CorpusEpoch* epoch) const;
  };

  std::shared_ptr<ControlBlock> control_;
  std::atomic<uint64_t> installed_{0};
  mutable Mutex mu_;
  std::shared_ptr<const CorpusEpoch> current_ DIME_GUARDED_BY(mu_);
};

}  // namespace dime

#endif  // DIME_STORE_EPOCH_H_
