#include "src/core/signature.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/sim/edit_distance.h"
#include "src/sim/set_similarity.h"
#include "src/sim/sig_hash.h"
#include "src/sim/weighted_similarity.h"

namespace dime {
namespace {

constexpr uint64_t kUniversalPayload = 0xFFFFFFFFFFFFFFFFULL;
/// Marker shared by entities whose value is EMPTY under a normalized set
/// function: two empty sets have similarity 1 (they satisfy every
/// positive threshold and violate every sigma < 1), so they must find
/// each other through the index.
constexpr uint64_t kEmptySetPayload = 0xFFFFFFFFFFFFFFFEULL;

/// The threshold `p`'s signatures are generated for under `dir`: theta for
/// positive rules, just above sigma for negative ones. The lift is
/// Predicate::Compare's epsilon, which gives the dual guarantee.
double FilterThreshold(const Predicate& p, Direction dir) {
  return dir == Direction::kGe ? p.threshold : p.threshold + kSimCompareEps;
}

}  // namespace

uint64_t MixSignature(uint64_t a, uint64_t b) {
  return SplitMix64(a * kGoldenGamma + SplitMix64(b));
}

SignatureGenerator::SignatureGenerator(const PreparedGroup& pg,
                                       const std::vector<Predicate>& predicates,
                                       Direction dir, uint64_t rule_tag)
    : pg_(pg), predicates_(predicates), dir_(dir), rule_tag_(rule_tag) {
  const size_t n = pg.size();
  ontology_tau_min_.assign(predicates.size(), -1);
  for (size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& p = predicates[i];
    if (p.func != SimFunc::kOntology) continue;
    // Effective threshold: just above sigma for negative rules.
    double theta = FilterThreshold(p, dir);
    if (theta <= 0.0) continue;  // universal signatures; tau unused
    const PreparedAttr& attr = pg.attrs[p.attr];
    auto it = attr.nodes.find(p.ontology_index);
    DIME_CHECK(it != attr.nodes.end());
    const Ontology& tree = *pg.context.ontologies[p.ontology_index].tree;
    int tau_min = -1;
    for (size_t e = 0; e < n; ++e) {
      int node = it->second[e];
      if (node == kNoNode) continue;
      int tau = Ontology::TauDepth(tree.Depth(node), std::min(theta, 1.0));
      if (tau_min < 0 || tau < tau_min) tau_min = tau;
    }
    ontology_tau_min_[i] = tau_min < 0 ? 1 : tau_min;
  }

  // Decide, per edit-similarity predicate, whether prefix filtering is
  // usable for the whole group: if any entity's string can be entirely
  // rewritten within the edit budget, the predicate degrades to one
  // universal signature for everyone (symmetric, hence complete).
  editsim_universal_.assign(predicates.size(), false);
  for (size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& p = predicates[i];
    if (p.func != SimFunc::kEditSim) continue;
    double tau = FilterThreshold(p, dir);
    if (tau <= 0.0) {
      editsim_universal_[i] = true;
      continue;
    }
    if (tau > 1.0) continue;  // unsatisfiable, handled by empty signatures
    const PreparedAttr& attr = pg.attrs[p.attr];
    for (size_t e = 0; e < n; ++e) {
      size_t d = MaxEditDistanceForSim(attr.text[e].size(), tau);
      size_t prefix = static_cast<size_t>(kQGramLength) * d + 1;
      if (prefix > attr.qgram_ranks.size(e)) {
        editsim_universal_[i] = true;
        break;
      }
    }
  }

  // Average signature counts drive the tuple-vs-anchor decision for
  // positive rules. Counts come from the CSR sizes alone
  // (PredicateSignatureCount) — the old throwaway PredicateSignatures
  // pass hashed and allocated every entity's signatures once just to
  // .size() them, doubling generation cost.
  avg_sig_count_.assign(predicates.size(), 0.0);
  for (size_t i = 0; i < predicates.size(); ++i) {
    size_t total = 0;
    for (size_t e = 0; e < n; ++e) {
      total += PredicateSignatureCount(i, static_cast<int>(e));
    }
    avg_sig_count_[i] =
        n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  }
  double product = 1.0;
  for (double c : avg_sig_count_) product *= std::max(c, 1.0);
  if (product > static_cast<double>(kMaxTupleSignatures) &&
      predicates.size() > 1) {
    anchor_only_ = true;
    anchor_ = 0;
    for (size_t i = 1; i < predicates.size(); ++i) {
      if (avg_sig_count_[i] < avg_sig_count_[anchor_]) anchor_ = i;
    }
  }
}

size_t SignatureGenerator::PredicateSignatureCount(size_t pred_idx,
                                                   int entity) const {
  // Mirrors PredicateSignatures branch for branch, returning the size the
  // materialized vector would have without hashing or allocating — every
  // count is a prefix length readable off the CSR arena. The constructor
  // averages these, so any drift from the real sizes would change the
  // tuple-vs-anchor decision; signature_test pins the equivalence.
  const Predicate& p = predicates_[pred_idx];
  const PreparedAttr& attr = pg_.attrs[p.attr];

  if (IsSetBased(p.func)) {
    const size_t size = p.mode == TokenMode::kValueList
                            ? attr.value_ranks.size(entity)
                            : attr.word_ranks.size(entity);
    double theta;
    if (p.func == SimFunc::kOverlap) {
      theta = dir_ == Direction::kGe
                  ? p.threshold
                  : std::floor(p.threshold + kSimCompareEps) + 1.0;
      if (theta < 1.0) return 1;  // universal
    } else {
      theta = FilterThreshold(p, dir_);
      if (theta <= 0.0) return 1;  // universal
      if (theta > 1.0) return 0;   // unsatisfiable
      if (size == 0) return 1;     // empty-set marker
    }
    return SetPrefixLength(p.func, size, theta);
  }

  if (IsWeightedSetBased(p.func)) {
    const bool values = p.mode == TokenMode::kValueList;
    const RankSpan ranks =
        values ? attr.value_ranks.view(entity) : attr.word_ranks.view(entity);
    double theta = FilterThreshold(p, dir_);
    if (theta <= 0.0) return 1;
    if (theta > 1.0) return 0;
    if (ranks.empty()) return 1;
    const auto& weights = values ? attr.value_weights : attr.word_weights;
    return WeightedPrefixLength(p.func, ranks, weights, theta);
  }

  if (p.func == SimFunc::kEditSim) {
    if (editsim_universal_[pred_idx]) return 1;
    double tau = FilterThreshold(p, dir_);
    if (tau > 1.0) return 0;
    size_t d = MaxEditDistanceForSim(attr.text[entity].size(), tau);
    return static_cast<size_t>(kQGramLength) * d + 1;
  }

  DIME_CHECK(p.func == SimFunc::kOntology);
  double theta = FilterThreshold(p, dir_);
  if (theta <= 0.0) return 1;
  if (theta > 1.0) return 0;
  auto it = attr.nodes.find(p.ontology_index);
  DIME_CHECK(it != attr.nodes.end());
  return it->second[entity] == kNoNode ? 0 : 1;
}

std::vector<uint64_t> SignatureGenerator::PredicateSignatures(
    size_t pred_idx, int entity) const {
  std::vector<uint64_t> sigs;
  PredicateSignatures(pred_idx, entity, &sigs);
  return sigs;
}

void SignatureGenerator::PredicateSignatures(
    size_t pred_idx, int entity, std::vector<uint64_t>* out) const {
  const Predicate& p = predicates_[pred_idx];
  const PreparedAttr& attr = pg_.attrs[p.attr];
  const uint64_t tag = MixSignature(rule_tag_, pred_idx + 1);
  std::vector<uint64_t>& sigs = *out;
  sigs.clear();

  if (IsSetBased(p.func)) {
    const RankSpan ranks = p.mode == TokenMode::kValueList
                               ? attr.value_ranks.view(entity)
                               : attr.word_ranks.view(entity);
    double theta;
    if (p.func == SimFunc::kOverlap) {
      theta = dir_ == Direction::kGe
                  ? p.threshold
                  : std::floor(p.threshold + kSimCompareEps) + 1.0;
      if (theta < 1.0) {  // any pair qualifies: filtering impossible
        sigs.push_back(MixSignature(tag, kUniversalPayload));
        return;
      }
    } else {
      theta = FilterThreshold(p, dir_);
      if (theta <= 0.0) {
        sigs.push_back(MixSignature(tag, kUniversalPayload));
        return;
      }
      if (theta > 1.0) return;  // unsatisfiable: no partner possible
      if (ranks.empty()) {
        // Two empty sets have normalized similarity 1: they must meet.
        sigs.push_back(MixSignature(tag, kEmptySetPayload));
        return;
      }
    }
    size_t prefix = SetPrefixLength(p.func, ranks.size(), theta);
    sigs.resize(prefix);
    MixHashBatch32(tag, ranks.data(), prefix, sigs.data());
    return;
  }

  if (IsWeightedSetBased(p.func)) {
    const bool values = p.mode == TokenMode::kValueList;
    const RankSpan ranks =
        values ? attr.value_ranks.view(entity) : attr.word_ranks.view(entity);
    const auto& weights = values ? attr.value_weights : attr.word_weights;
    double theta = FilterThreshold(p, dir_);
    if (theta <= 0.0) {
      sigs.push_back(MixSignature(tag, kUniversalPayload));
      return;
    }
    if (theta > 1.0) return;
    if (ranks.empty()) {
      sigs.push_back(MixSignature(tag, kEmptySetPayload));
      return;
    }
    size_t prefix = WeightedPrefixLength(p.func, ranks, weights, theta);
    sigs.resize(prefix);
    MixHashBatch32(tag, ranks.data(), prefix, sigs.data());
    return;
  }

  if (p.func == SimFunc::kEditSim) {
    if (editsim_universal_[pred_idx]) {
      sigs.push_back(MixSignature(tag, kUniversalPayload));
      return;
    }
    double tau = FilterThreshold(p, dir_);
    if (tau > 1.0) return;  // unsatisfiable with any partner
    const RankSpan grams = attr.qgram_ranks.view(entity);
    size_t d = MaxEditDistanceForSim(attr.text[entity].size(), tau);
    size_t prefix = static_cast<size_t>(kQGramLength) * d + 1;
    DIME_CHECK_LE(prefix, grams.size());  // else editsim_universal_ is set
    sigs.resize(prefix);
    MixHashBatch32(tag, grams.data(), prefix, sigs.data());
    return;
  }

  DIME_CHECK(p.func == SimFunc::kOntology);
  double theta = FilterThreshold(p, dir_);
  if (theta <= 0.0) {
    sigs.push_back(MixSignature(tag, kUniversalPayload));
    return;
  }
  if (theta > 1.0) return;
  auto it = attr.nodes.find(p.ontology_index);
  DIME_CHECK(it != attr.nodes.end());
  int node = it->second[entity];
  if (node == kNoNode) return;  // similarity 0 with everyone
  const Ontology& tree = *pg_.context.ontologies[p.ontology_index].tree;
  int tau = ontology_tau_min_[pred_idx];
  int anc = tau <= tree.Depth(node) ? tree.AncestorAtDepth(node, tau) : node;
  sigs.push_back(MixSignature(tag, static_cast<uint64_t>(anc)));
}

std::vector<uint64_t> SignatureGenerator::PositiveRuleSignatures(
    int entity) const {
  SignatureScratch scratch;
  return PositiveRuleSignatures(entity, &scratch);  // copies out of scratch
}

const std::vector<uint64_t>& SignatureGenerator::PositiveRuleSignatures(
    int entity, SignatureScratch* scratch) const {
  DIME_CHECK(dir_ == Direction::kGe);
  std::vector<uint64_t>& combined = scratch->combined;
  if (anchor_only_) {
    PredicateSignatures(anchor_, entity, &combined);
    return combined;
  }
  combined.clear();
  combined.push_back(rule_tag_);
  for (size_t i = 0; i < predicates_.size(); ++i) {
    PredicateSignatures(i, entity, &scratch->sigs);
    const std::vector<uint64_t>& sigs = scratch->sigs;
    if (sigs.empty()) {  // cannot satisfy predicate i with anyone
      combined.clear();
      return combined;
    }
    std::vector<uint64_t>& next = scratch->next;
    next.resize(combined.size() * sigs.size());
    uint64_t* out = next.data();
    for (uint64_t c : combined) {
      MixHashBatch64(c, sigs.data(), sigs.size(), out);
      out += sigs.size();
    }
    combined.swap(next);
  }
  std::sort(combined.begin(), combined.end());
  combined.erase(std::unique(combined.begin(), combined.end()),
                 combined.end());
  return combined;
}

std::vector<uint64_t> SignatureGenerator::NegativeRuleSignatures(
    int entity) const {
  SignatureScratch scratch;
  return NegativeRuleSignatures(entity, &scratch);  // copies out of scratch
}

const std::vector<uint64_t>& SignatureGenerator::NegativeRuleSignatures(
    int entity, SignatureScratch* scratch) const {
  DIME_CHECK(dir_ == Direction::kLe);
  std::vector<uint64_t>& all = scratch->combined;
  all.clear();
  for (size_t i = 0; i < predicates_.size(); ++i) {
    PredicateSignatures(i, entity, &scratch->sigs);
    all.insert(all.end(), scratch->sigs.begin(), scratch->sigs.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace dime
