// Exact probability computation for lineage formulas under the standard
// tuple-independence assumption of probabilistic databases.
//
// Strategy (exact, following the classic extensional/intensional split):
//   1. independent decomposition — if the children of an ∧/∨ node mention
//      disjoint variable sets, combine their probabilities directly
//      (product / inclusion-exclusion); ¬ is always 1 - P;
//   2. otherwise Shannon expansion on a shared variable, memoized over the
//      hash-consed arena so co-factors are shared across the recursion.
//
// The lineages produced by TP joins (λr ∧ λs, λr ∧ ¬(λs1 ∨ … ∨ λsk) with
// variable-disjoint operands) hit the linear-time decomposition path; the
// Shannon fallback keeps the engine exact on arbitrary inputs (e.g. lineages
// of nested queries).
#ifndef TPDB_LINEAGE_PROBABILITY_H_
#define TPDB_LINEAGE_PROBABILITY_H_

#include <cstdint>

#include "lineage/lineage.h"

namespace tpdb {

/// Computes exact marginal probabilities of lineage formulas.
class ProbabilityEngine {
 public:
  /// The engine caches per-node results inside `manager`; it must outlive
  /// this object.
  explicit ProbabilityEngine(LineageManager* manager) : mgr_(manager) {}

  /// Exact probability of `r` being true. Null lineage is an error.
  double Probability(LineageRef r);

  /// Number of Shannon expansions performed so far (complexity metric,
  /// exposed for tests and the ablation bench).
  uint64_t shannon_expansions() const { return shannon_expansions_; }

 private:
  double ProbRec(LineageRef r);
  /// True iff the sorted variable sets of `a` and `b` intersect.
  bool SharesVariables(LineageRef a, LineageRef b);

  LineageManager* mgr_;
  uint64_t shannon_expansions_ = 0;
  /// Memo epoch snapshotted at the top of Probability() (see
  /// LineageManager::StoreProbability).
  uint64_t epoch_ = 0;
};

/// Counts one top-level evaluation that the evaluation ladder answered
/// without this engine (from the memo, a circuit or samples) in
/// `tpdb_prob_evals_total`, and in `tpdb_prob_dag_memo_hits_total` when the
/// memo answered it, so the counters cover every caller of either path.
void RecordProbabilityEvaluation(bool memo_hit);

}  // namespace tpdb

#endif  // TPDB_LINEAGE_PROBABILITY_H_
