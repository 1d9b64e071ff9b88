// Monte-Carlo probability estimation for lineage formulas.
//
// Exact probability computation (probability.h) is #P-hard in general and
// falls back to Shannon expansion on entangled formulas; once the evaluation
// ladder's expansion budget runs out (lineage/compile/prob_eval.h), a
// sampling estimate is the only tractable option. This estimator implements
// possible-world sampling — fixed-budget and adaptive-to-precision — with
// standard-error reporting so callers can decide when an estimate is good
// enough.
#ifndef TPDB_LINEAGE_MONTE_CARLO_H_
#define TPDB_LINEAGE_MONTE_CARLO_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "lineage/lineage.h"

namespace tpdb {

/// The most samples one adaptive estimate draws.
constexpr uint64_t kMaxMonteCarloSamples = uint64_t{1} << 22;

/// Standard normal quantile: the z with Φ(z) = p (0 < p < 1). Used to turn
/// an `APPROX(eps, delta)` contract into a target standard error eps/z with
/// z = NormalQuantile(1 - delta/2).
double NormalQuantile(double p);

/// Hoeffding bound: smallest n with P(|p̂ − p| > eps) ≤ delta for the mean
/// of n Bernoulli samples — a distribution-free cap on the adaptive
/// sampler, so the (eps, delta) guarantee holds even when the CLT stopping
/// rule is optimistic (p near 0 or 1). Saturates at UINT64_MAX.
uint64_t HoeffdingSamples(double eps, double delta);

/// OK iff `APPROX(eps, delta)` is a contract the sampler can meet: eps and
/// delta in (0, 1), and a Hoeffding bound within kMaxMonteCarloSamples.
/// InvalidArgument otherwise.
Status ValidateApproxContract(double eps, double delta);

/// Mixes a base seed with a lineage node id into a per-formula seed, so
/// sampling a relation is deterministic under any parallel schedule (the
/// estimate of a tuple does not depend on which worker draws it).
uint64_t DeriveSeed(uint64_t base_seed, uint32_t lineage_id);

/// Result of a sampling run.
struct MonteCarloEstimate {
  double probability = 0.0;
  /// Standard error of the estimate (σ/√n for the naive sampler).
  double standard_error = 0.0;
  uint64_t samples = 0;
};

/// Samples possible worlds over the formula's variables.
class MonteCarloEngine {
 public:
  /// `manager` must outlive the engine.
  MonteCarloEngine(LineageManager* manager, uint64_t seed = 42)
      : mgr_(manager), rng_(seed) {}

  /// Naive estimator: draws `samples` independent worlds (only over the
  /// variables occurring in `r`) and returns the hit frequency.
  MonteCarloEstimate Estimate(LineageRef r, uint64_t samples);

  /// Adaptive estimator: keeps sampling until the standard error drops
  /// below `target_stderr` (or `max_samples` is reached).
  MonteCarloEstimate EstimateToPrecision(LineageRef r, double target_stderr,
                                         uint64_t max_samples =
                                             kMaxMonteCarloSamples);

 private:
  LineageManager* mgr_;
  Random rng_;
};

}  // namespace tpdb

#endif  // TPDB_LINEAGE_MONTE_CARLO_H_
