#ifndef DIME_CORE_DIME_PLUS_H_
#define DIME_CORE_DIME_PLUS_H_

#include "src/core/dime.h"

/// \file dime_plus.h
/// DIME+ (Algorithm 2): the signature-based filter-verification framework.
/// Produces exactly the same DimeResult as RunDime — the filters are
/// complete (Section IV-B) and verification computes real similarities —
/// but avoids the all-pairs enumeration:
///
///  * positive rules: only pairs sharing an indexed rule signature are
///    candidates. They are verified off the inverted lists shortest list
///    first (pairs sharing a rare signature are likely similar, so they
///    go first), and pairs or whole lists already connected by
///    transitivity are skipped. This stands in for Section IV-C's exact
///    benefit order B = P / C, which would materialize and price every
///    candidate first; the partitions are a transitive closure, so the
///    order cannot change them (DESIGN.md §6 item 5);
///  * negative rules: a partition whose signature set is disjoint from the
///    pivot's is flagged without any verification; otherwise each member
///    is checked against the pivot entities it shares a signature with
///    (the others satisfy the rule by the dual guarantee of signature.h),
///    most-likely-similar first (descending P / C), so the violating pair
///    that disqualifies a member is found early.
///
/// The one body of Algorithm 2 runs on the exec scheduler and is defined
/// in src/exec/sharded_dime.cc; RunDimePlus runs it on one executor,
/// inline on the caller, and exec::RunDimePlusSharded on a pool.

namespace dime {

/// Runs Algorithm 2 on a prepared group, on one executor. `control`
/// bounds the run exactly as in RunDime: checks at candidate-batch and
/// partition boundaries; on expiry the partial result's flagged sets are
/// subsets of the untruncated run's and the scrollbar stays monotone (see
/// DimeResult::status). Task faults follow sharded_dime.h's contract.
DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const RunControl& control);

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative);

/// Convenience wrapper: prepares `group` and runs Algorithm 2.
DimeResult RunDimePlus(const Group& group,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimeContext& context);

}  // namespace dime

#endif  // DIME_CORE_DIME_PLUS_H_
