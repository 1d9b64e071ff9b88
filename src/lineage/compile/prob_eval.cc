#include "lineage/compile/prob_eval.h"

namespace tpdb {

std::string ProbMethodsLabel(uint8_t mask) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (mask & kProbMethodExact) append("exact");
  if (mask & kProbMethodCompiled) append("shannon");
  if (mask & kProbMethodMonteCarlo) append("mc");
  return out;
}

ProbabilityEvaluator::ProbabilityEvaluator(LineageManager* manager,
                                           ProbEvalOptions options)
    : mgr_(manager),
      opts_(options),
      engine_(manager, options.max_circuit_nodes) {}

double ProbabilityEvaluator::Probability(LineageRef r) {
  const uint64_t expansions = engine_.shannon_expansions();
  if (const std::optional<double> p = engine_.TryProbability(r)) {
    methods_ |= engine_.shannon_expansions() > expansions ? kProbMethodCompiled
                                                          : kProbMethodExact;
    return *p;
  }
  // Expansion budget exhausted: sample instead, to the query's APPROX
  // contract if it has one. Never cached — it is an estimate, not the exact
  // value the memo promises.
  methods_ |= kProbMethodMonteCarlo;
  if (opts_.approx_eps > 0.0)
    return SampledProbability(r, opts_.approx_eps, opts_.approx_delta);
  return SampledProbability(r, opts_.fallback_eps, opts_.fallback_delta);
}

double ProbabilityEvaluator::SampledProbability(LineageRef r, double eps,
                                                double delta) {
  const double z = NormalQuantile(1.0 - delta / 2.0);
  MonteCarloEngine mc(mgr_, DeriveSeed(opts_.mc_seed, r.id));
  return mc
      .EstimateToPrecision(r, /*target_stderr=*/eps / z,
                           /*max_samples=*/HoeffdingSamples(eps, delta))
      .probability;
}

}  // namespace tpdb
