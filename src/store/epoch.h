#ifndef DIME_STORE_EPOCH_H_
#define DIME_STORE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/fingerprint.h"
#include "src/common/mutex.h"
#include "src/core/preprocess.h"
#include "src/store/snapshot.h"

/// \file epoch.h
/// Epoch-based zero-downtime corpus swap (RCU-style). A *corpus epoch* is
/// one immutable, fully-indexed generation of the serving corpus — a
/// loaded snapshot, a TSV-ingested corpus, or a delta-merged re-prepare.
/// The EpochManager holds the latest epoch behind a refcount:
///
///   Install(corpus)  publishes a new epoch; subsequent Pin() calls see it
///   Pin()            refcounts the current epoch for one request's lifetime
///   (refcount -> 0)  the epoch is destroyed: its backing mmap is unmapped
///                    and the retire hook fires with the epoch's sequence
///
/// In-flight requests keep serving the epoch they pinned at admission —
/// never a mix of two generations — while new requests see the latest.
/// The old mapping is unmapped only when the last pin drops, so a swap
/// can never pull pages out from under a running engine. Writers
/// (Install) never block readers (Pin is one mutex-protected shared_ptr
/// copy), and readers never block writers.
///
/// Failpoints (see fault_injection.h):
///   "epoch/unmap-delay"  the retiring epoch sleeps before unmapping,
///                        widening the swap/serve race window for tests
///
/// The serving layer's failpoint "store/swap" (a reload that fails before
/// install) lives in DimeService::ReloadFromSnapshot, the main consumer
/// of this machinery.

namespace dime {

/// Everything one corpus generation holds resident: the schema the rules
/// were parsed against, the rule set, the evaluation context (with owned
/// ontology trees backing the context's refs), and optional preloaded
/// groups addressable by name. Lived in src/server before epochs existed;
/// it is store-level state — the serving layer consumes it through
/// CorpusEpoch.
struct ServingCorpus {
  Schema schema;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  DimeContext context;
  /// Backing storage for `context.ontologies` pointers (moving the
  /// unique_ptrs keeps the raw pointers stable). Converted to
  /// `shared_trees` when the corpus becomes an epoch, so a delta-merged
  /// successor epoch can share the trees without copying them.
  std::vector<std::unique_ptr<Ontology>> owned_trees;
  /// Shared ontology trees (snapshot loads and successor epochs).
  std::vector<std::shared_ptr<const Ontology>> shared_trees;
  /// Preloaded groups, addressable by Group::name in CheckRequest.
  std::vector<Group> groups;
  /// Parallel to `groups` when the corpus is fully prepared (snapshot
  /// warm start or delta-merge re-prepare; empty when TSV-ingested):
  /// prepared groups with rule artifacts attached. Workers serve these
  /// directly instead of calling PrepareGroup per request.
  std::vector<std::shared_ptr<const PreparedGroup>> prepared;
  /// Content fingerprint of the snapshot backing this corpus (both zero
  /// when not snapshot-loaded). The epoch fingerprint is this, or
  /// synthesized from the epoch's context and group keys when zero.
  uint64_t content_fingerprint_lo = 0;
  uint64_t content_fingerprint_hi = 0;
  /// Keep-alive for the mapped bytes `prepared` borrows from.
  std::shared_ptr<const void> backing;
};

/// Adapts a loaded snapshot into a serving corpus: groups, rules,
/// context, prepared groups and the backing mapping all move over;
/// internal pointers (prepared[i]->group, ontology refs) stay valid
/// because vector storage moves wholesale.
ServingCorpus CorpusFromSnapshot(LoadedSnapshot snapshot);

/// The content key of `group`: a 128-bit hash over its raw fields, each
/// length-prefixed — the schema's attribute names, every entity id, every
/// value piece, and the truth labels. The group name is not part of it,
/// so a renamed page with identical entities shares the key. Values are
/// hashed as stored, not through the sanitizing TSV writer, so "a|b" and
/// "a/b", or one piece "a|b" and two pieces "a", "b", differ.
Fingerprint GroupContentKey(const Group& group);

/// One immutable corpus generation plus the lookup structures the serving
/// hot path needs (group-by-name, prepared-by-group, canonical rule text,
/// cache-key parts). Constructed once at Install; all accessors are const
/// and safe to call concurrently without synchronization.
class CorpusEpoch {
 public:
  CorpusEpoch(uint64_t sequence, ServingCorpus corpus);

  /// Monotone install counter (1 for the first epoch of a manager).
  uint64_t sequence() const { return sequence_; }

  const ServingCorpus& corpus() const { return corpus_; }

  /// RuleSetToText of the rule set.
  const std::string& rules_text() const { return rules_text_; }

  /// The context half of every result-cache key, computed once at
  /// construction over the schema, rules_text(), qgram_q, and each
  /// ontology ref's mode and Ontology::ToText(). Two epochs whose rules
  /// and ontologies agree share it, whatever their groups.
  const Fingerprint& context_key() const { return context_key_; }

  /// The content key of `group` (GroupContentKey). For a resident group
  /// of this epoch it is computed on first use and memoized in the
  /// group's slot; concurrent first uses may each compute it, and all
  /// store the same value. Any other group is hashed on every call.
  Fingerprint GroupKey(const Group& group) const;

  /// The epoch's 128-bit content identity, reported by reloads and
  /// compared by fingerprint-gated reloads: the snapshot fingerprint when
  /// the corpus was snapshot-loaded, otherwise synthesized from the
  /// context key and every group's name and content key. It is not part
  /// of result-cache keys.
  uint64_t fingerprint_lo() const { return fingerprint_lo_; }
  uint64_t fingerprint_hi() const { return fingerprint_hi_; }

  /// Preloaded group by name (the first, if names repeat), or nullptr.
  /// The pointer is valid for the epoch's lifetime — hold a pin (the
  /// shared_ptr) while using it.
  const Group* FindGroup(std::string_view name) const;

  /// Fully prepared form of `group` (must be a group of this epoch), or
  /// nullptr when the corpus was ingested without preparation.
  const PreparedGroup* FindPrepared(const Group* group) const;

 private:
  /// A resident group's memoized content key. `ready` publishes lo/hi.
  struct KeySlot {
    std::atomic<bool> ready{false};
    std::atomic<uint64_t> lo{0};
    std::atomic<uint64_t> hi{0};
  };

  const uint64_t sequence_;
  ServingCorpus corpus_;
  std::string rules_text_;
  Fingerprint context_key_;
  uint64_t fingerprint_lo_ = 0;
  uint64_t fingerprint_hi_ = 0;
  /// Keys point into corpus_.groups[i].name.
  std::unordered_map<std::string_view, const Group*> group_by_name_;
  /// corpus_.prepared indexed by group pointer (empty for TSV corpora).
  std::unordered_map<const Group*, const PreparedGroup*> prepared_by_group_;
  /// Parallel to corpus_.groups.
  std::unique_ptr<KeySlot[]> group_keys_;
};

/// Publishes and refcounts corpus epochs. Thread-safe. The manager holds
/// one reference to the current epoch; every Pin() adds another. An
/// epoch's destructor (and therefore its munmap) runs on whichever
/// thread drops the last reference — a worker finishing the final
/// in-flight request of a superseded epoch, or Install itself when no
/// request pinned the old one.
class EpochManager {
 public:
  /// `retire_hook(sequence)` fires after a retired epoch is fully
  /// destroyed (backing unmapped). Must be thread-safe; it may run on any
  /// thread, including after the manager itself is destroyed (epochs can
  /// outlive the manager while pinned).
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

  /// Epochs whose refcount drained to zero (destructor ran, mapping
  /// unmapped, retire hook fired).
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
