// The probability-evaluation ladder: exact decomposition → compiled
// circuit → Monte Carlo sampling.
//
// One ProbabilityEvaluator serves all probability requests of a query
// (operator). Per formula it picks the cheapest sound method:
//
//   1. exact      — the formula is fully decomposable (no ∧/∨ with
//                   variable-sharing children anywhere), so the classic
//                   linear-time independent evaluation applies;
//   2. compiled   — otherwise compile to an arithmetic circuit under a node
//                   budget (subcircuits shared across the query's tuples)
//                   and evaluate with a linear pass;
//   3. monte carlo— the circuit budget blew up (#P-hard worst case):
//                   possible-world sampling with an (eps, delta) guarantee.
//
// Before the ladder, the manager's memo answers any formula whose exact
// value is already known. `WITH PROB APPROX(eps, delta)` is a contract,
// not a method: the ladder runs unchanged, so every value the exact or
// compiled rung can give is the exact one, and (eps, delta) only bounds
// what rung 3 may return. Sampled estimates never enter the memo.
//
// The evaluator records which rungs it used as a bitmask so Explain can
// surface `prob=exact|compiled|mc` per plan node.
#ifndef TPDB_LINEAGE_COMPILE_PROB_EVAL_H_
#define TPDB_LINEAGE_COMPILE_PROB_EVAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lineage/compile/compile.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"

namespace tpdb {

/// Bitmask of evaluation methods a plan node ended up using.
enum ProbMethod : uint8_t {
  kProbMethodExact = 1,
  kProbMethodCompiled = 2,
  kProbMethodMonteCarlo = 4,
};

/// Renders a ProbMethod bitmask as "exact", "exact+compiled", "mc", ….
/// Empty string for 0 (no probability was evaluated).
std::string ProbMethodsLabel(uint8_t mask);

struct ProbEvalOptions {
  /// Circuit-size budget before falling back to sampling.
  size_t max_circuit_nodes = size_t{1} << 20;
  /// Approximation contract: eps > 0 means `APPROX(eps, delta)` — a
  /// formula the circuit budget cannot compile is sampled to
  /// P(|p̂−p| ≤ eps) ≥ 1−delta. Exact and compiled values are unaffected.
  double approx_eps = 0.0;
  double approx_delta = 0.05;
  /// Base seed for sampling; per-formula seeds are derived from it and the
  /// lineage id, so estimates are reproducible under any parallel schedule.
  uint64_t mc_seed = 42;
  /// Sampling precision used when the circuit budget forces a fallback on a
  /// query that did not ask for APPROX.
  double fallback_eps = 0.01;
  double fallback_delta = 0.05;
};

/// Evaluates lineage probabilities through the ladder above. Not
/// thread-safe: parallel operators create one evaluator per worker (the
/// compile memo is per-evaluator; exact results still share the manager's
/// sharded memo, and the relevant TSAN suites cover that mix).
class ProbabilityEvaluator {
 public:
  explicit ProbabilityEvaluator(LineageManager* manager,
                                ProbEvalOptions options = {});

  /// Probability of `r`, by the cheapest applicable method.
  double Probability(LineageRef r);

  /// Methods used so far (ProbMethod bitmask).
  uint8_t methods_used() const { return methods_; }

  const CompileStats& compile_stats() const { return compiler_.stats(); }
  size_t circuit_size() const { return compiler_.circuit().size(); }

 private:
  bool Decomposable(LineageRef r);
  double CompiledProbability(LineageRef r);
  double SampledProbability(LineageRef r, double eps, double delta);

  LineageManager* mgr_;
  ProbEvalOptions opts_;
  LineageCompiler compiler_;
  /// Circuit values, extended incrementally: values_from_ is the prefix
  /// already evaluated under values_epoch_.
  std::vector<double> values_;
  std::vector<double> var_probs_;
  size_t values_from_ = 0;
  uint64_t values_epoch_ = 0;
  /// Structural decomposability memo (probability-independent).
  std::unordered_map<uint32_t, bool> decomposable_;
  uint8_t methods_ = 0;
};

}  // namespace tpdb

#endif  // TPDB_LINEAGE_COMPILE_PROB_EVAL_H_
