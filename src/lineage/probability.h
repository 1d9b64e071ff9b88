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
// of nested queries). An engine may be given a budget on Shannon expansions,
// which is what the evaluation ladder (lineage/compile/prob_eval.h) uses to
// decide when to sample instead.
#ifndef TPDB_LINEAGE_PROBABILITY_H_
#define TPDB_LINEAGE_PROBABILITY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "lineage/lineage.h"

namespace tpdb {

/// Computes exact marginal probabilities of lineage formulas. Every top-level
/// evaluation counts in `tpdb_prob_evals_total`, every memo answer in
/// `tpdb_prob_dag_memo_hits_total`.
class ProbabilityEngine {
 public:
  /// The engine caches per-node results inside `manager`; it must outlive
  /// this object. `max_expansions` caps the Shannon expansions over the
  /// engine's whole lifetime (see TryProbability).
  explicit ProbabilityEngine(
      LineageManager* manager,
      uint64_t max_expansions = std::numeric_limits<uint64_t>::max())
      : mgr_(manager), max_expansions_(max_expansions) {}

  /// Exact probability of `r` being true. Null lineage is an error, and so
  /// is running out of budget (an unbudgeted engine never does).
  double Probability(LineageRef r);

  /// Exact probability of `r`, or nullopt when it needs a Shannon expansion
  /// past the budget. A cut-off evaluation leaves the memo as it found it,
  /// so evaluating `r` again under the same budget is cut off the same way
  /// (and samples the same way, see prob_eval.h) instead of finishing on
  /// the leftovers of earlier attempts.
  std::optional<double> TryProbability(LineageRef r);

  /// Number of Shannon expansions performed so far (complexity metric, and
  /// what the budget counts).
  uint64_t shannon_expansions() const { return shannon_expansions_; }

 private:
  std::optional<double> ProbRec(LineageRef r);

  LineageManager* mgr_;
  uint64_t max_expansions_;
  uint64_t shannon_expansions_ = 0;
  /// Memo entries the current budgeted evaluation inserted, taken back if
  /// it is cut off.
  std::vector<uint32_t> stored_;
  /// Memo epoch snapshotted at the top of TryProbability() (see
  /// LineageManager::StoreProbability).
  uint64_t epoch_ = 0;
};

}  // namespace tpdb

#endif  // TPDB_LINEAGE_PROBABILITY_H_
