// The probability-evaluation ladder: memo → exact decomposition and
// Shannon expansion within a budget → Monte Carlo sampling.
//
// One ProbabilityEvaluator serves all probability requests of a query
// (operator). It owns one ProbabilityEngine (lineage/probability.h) and per
// formula takes the first rung that applies:
//
//   1. memo       — the manager's memo answers any formula whose exact value
//                   is already known;
//   2. exact      — independent decomposition, with memoized Shannon
//                   expansion on variable-sharing ∧/∨ nodes, as long as the
//                   evaluator's expansion budget lasts;
//   3. monte carlo— the budget ran out (#P-hard worst case): possible-world
//                   sampling with an (eps, delta) guarantee.
//
// `WITH PROB APPROX(eps, delta)` is a contract, not a method: the ladder
// runs unchanged, so every value rungs 1–2 can give is the exact one, and
// (eps, delta) only bounds what rung 3 may return. Sampled estimates never
// enter the memo.
//
// The evaluator records which rungs it used as a bitmask so Explain can
// surface `prob=exact|shannon|mc` per plan node.
#ifndef TPDB_LINEAGE_COMPILE_PROB_EVAL_H_
#define TPDB_LINEAGE_COMPILE_PROB_EVAL_H_

#include <cstdint>
#include <string>

#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "lineage/probability.h"

namespace tpdb {

/// Bitmask of evaluation methods a plan node ended up using.
enum ProbMethod : uint8_t {
  /// Exact, without a Shannon expansion (memo or decomposition).
  kProbMethodExact = 1,
  /// Exact, with at least one Shannon expansion. Rendered "shannon".
  kProbMethodCompiled = 2,
  kProbMethodMonteCarlo = 4,
};

/// Renders a ProbMethod bitmask as "exact", "exact+shannon", "mc", ….
/// Empty string for 0 (no probability was evaluated).
std::string ProbMethodsLabel(uint8_t mask);

struct ProbEvalOptions {
  /// Shannon expansions per evaluator before sampling.
  size_t max_circuit_nodes = size_t{1} << 20;
  /// Approximation contract: eps > 0 means `APPROX(eps, delta)` — a
  /// formula the expansion budget cannot finish is sampled to
  /// P(|p̂−p| ≤ eps) ≥ 1−delta. Exact values are unaffected.
  double approx_eps = 0.0;
  double approx_delta = 0.05;
  /// Base seed for sampling; per-formula seeds are derived from it and the
  /// lineage id, so estimates are reproducible under any parallel schedule.
  uint64_t mc_seed = 42;
  /// Sampling precision used when the expansion budget forces a fallback on
  /// a query that did not ask for APPROX.
  double fallback_eps = 0.01;
  double fallback_delta = 0.05;
};

/// Evaluates lineage probabilities through the ladder above. Not
/// thread-safe: parallel operators create one evaluator per worker (the
/// budget is per evaluator; exact results share the manager's memo,
/// and the relevant TSAN suites cover that mix).
class ProbabilityEvaluator {
 public:
  explicit ProbabilityEvaluator(LineageManager* manager,
                                ProbEvalOptions options = {});

  /// Probability of `r`, by the cheapest applicable method.
  double Probability(LineageRef r);

  /// Methods used so far (ProbMethod bitmask).
  uint8_t methods_used() const { return methods_; }

  /// Shannon expansions spent so far against the budget.
  uint64_t shannon_expansions() const { return engine_.shannon_expansions(); }

 private:
  double SampledProbability(LineageRef r, double eps, double delta);

  LineageManager* mgr_;
  ProbEvalOptions opts_;
  ProbabilityEngine engine_;
  uint8_t methods_ = 0;
};

}  // namespace tpdb

#endif  // TPDB_LINEAGE_COMPILE_PROB_EVAL_H_
