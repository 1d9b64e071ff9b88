// Temporal-probabilistic set operations — union, intersection, difference —
// built on the same generalized lineage-aware windows as the joins.
//
// These are the operations of the authors' companion paper ("Supporting
// set operations in temporal-probabilistic databases", ICDE 2018, the
// paper's reference [1]); this implementation derives them directly from
// the window machinery, with θ being equality on *all* fact columns:
//
//   r ∩ s : negating windows of r w.r.t. s, lineage  λr ∧ λs
//   r − s : unmatched (λr) and negating (λr ∧ ¬λs) windows — the anti join
//           under full-fact equality
//   r ∪ s : unmatched windows of r (λr), negating windows of r with
//           lineage λr ∨ λs, and unmatched windows of s (λs)
//
// Because valid TP relations are duplicate-free in time, at most one tuple
// of each input is valid per (fact, time point), so the negating windows'
// λs disjunction has exactly one disjunct and the outputs above are again
// duplicate-free — Validate()-clean TP relations.
#ifndef TPDB_TP_SET_OPS_H_
#define TPDB_TP_SET_OPS_H_

#include <string>

#include "common/status.h"
#include "tp/overlap_join.h"
#include "tp/tp_relation.h"

namespace tpdb {

/// r ∪Tp s: at each time point, a fact is true iff it is true in r or s.
StatusOr<TPRelation> TPUnion(const TPRelation& r, const TPRelation& s,
                             std::string result_name = "");

/// r ∩Tp s: at each time point, a fact is true iff true in both inputs.
StatusOr<TPRelation> TPIntersect(const TPRelation& r, const TPRelation& s,
                                 std::string result_name = "");

/// r −Tp s: at each time point, a fact is true iff true in r and not in s.
StatusOr<TPRelation> TPDifference(const TPRelation& r, const TPRelation& s,
                                  std::string result_name = "");

/// The three set operations, as a tag for the generic entry points below.
enum class TPSetOpKind { kUnion, kIntersect, kDifference };

const char* TPSetOpKindName(TPSetOpKind kind);

/// Dispatches to TPUnion / TPIntersect / TPDifference.
StatusOr<TPRelation> TPSetOp(TPSetOpKind kind, const TPRelation& r,
                             const TPRelation& s, std::string result_name = "");

/// Plan-node payload of a TP set operation — the executor of a PhysTPSetOp
/// node (api/physical_plan.h) builds one of these from the node and hands
/// it to TPSetOp, or to exec/parallel.h's ParallelTPSetOp.
struct TPSetOpSpec {
  TPSetOpKind kind = TPSetOpKind::kUnion;
  std::string result_name;
};

/// Runs the set operation described by `spec` over (r, s).
StatusOr<TPRelation> TPSetOp(const TPSetOpSpec& spec, const TPRelation& r,
                             const TPRelation& s);

// -- Pipeline-level entry points (the parallel driver's building blocks) --
//
// A set operation runs one r-driven window pipeline (unmatched/negating
// windows of r tuples) and — for union only — a second, s-driven pipeline
// (the unmatched windows of s). Since θ is equality on ALL fact columns,
// tuples that can interact have equal facts, so exec/ hash-partitions both
// inputs by fact and runs fully independent pipeline pairs per partition.

/// True iff `kind` also runs the s-driven (unmatched-of-s) pipeline.
bool SetOpHasSDrivenPipeline(TPSetOpKind kind);

/// Runs ONE pipeline of the set operation over (r, s) — in operation
/// orientation, even for the s-driven pipeline — appending output tuples
/// to `result` (schema = r's fact schema). `algorithm` must be resolved
/// already (ChooseOverlapAlgorithm over r, s and SetOpCondition).
Status RunSetOpPipeline(TPSetOpKind kind, bool s_driven, const TPRelation& r,
                        const TPRelation& s, OverlapAlgorithm algorithm,
                        TPRelation* result);

/// θ of the set operations: equality on every fact column, after checking
/// union compatibility of the two relations.
StatusOr<JoinCondition> SetOpCondition(const TPRelation& r,
                                       const TPRelation& s);

}  // namespace tpdb

#endif  // TPDB_TP_SET_OPS_H_
