#include "lineage/monte_carlo.h"

#include <cmath>
#include <cstdio>

namespace tpdb {

double NormalQuantile(double p) {
  TPDB_CHECK(p > 0.0 && p < 1.0) << "quantile argument out of range: " << p;
  // Bisection on Φ(z) = 1 - erfc(z/√2)/2. Monotone and well-conditioned;
  // ~60 iterations reach full double precision, and this runs once per
  // query, not per sample.
  double lo = -40.0;
  double hi = 40.0;
  for (int i = 0; i < 200 && hi - lo > 1e-12; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 1.0 - 0.5 * std::erfc(mid / std::sqrt(2.0));
    if (cdf < p)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

uint64_t HoeffdingSamples(double eps, double delta) {
  TPDB_CHECK(eps > 0.0 && eps < 1.0);
  TPDB_CHECK(delta > 0.0 && delta < 1.0);
  const double n = std::ceil(std::log(2.0 / delta) / (2.0 * eps * eps));
  // Casting a double at or past 2^64 (or +inf, for eps near 1e-300) to an
  // integer is undefined; no sampler reaches that count anyway.
  if (!(n < std::ldexp(1.0, 64))) return UINT64_MAX;
  return static_cast<uint64_t>(n);
}

Status ValidateApproxContract(double eps, double delta) {
  if (!(eps > 0.0 && eps < 1.0))
    return Status::InvalidArgument("APPROX epsilon must be in (0, 1)");
  if (!(delta > 0.0 && delta < 1.0))
    return Status::InvalidArgument("APPROX delta must be in (0, 1)");
  const uint64_t n = HoeffdingSamples(eps, delta);
  if (n > kMaxMonteCarloSamples) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "APPROX(%g, %g) needs %.3g samples per tuple; the sampler "
                  "draws at most %llu",
                  eps, delta, static_cast<double>(n),
                  static_cast<unsigned long long>(kMaxMonteCarloSamples));
    return Status::InvalidArgument(msg);
  }
  return Status::OK();
}

uint64_t DeriveSeed(uint64_t base_seed, uint32_t lineage_id) {
  // splitmix64 finalizer over the combined value: adjacent lineage ids must
  // not produce correlated streams.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (lineage_id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

MonteCarloEstimate MonteCarloEngine::Estimate(LineageRef r,
                                              uint64_t samples) {
  TPDB_CHECK(!r.is_null());
  TPDB_CHECK_GT(samples, 0u);
  const std::vector<VarId> vars = mgr_->Variables(r);
  std::vector<bool> world(mgr_->num_variables(), false);
  uint64_t hits = 0;
  for (uint64_t i = 0; i < samples; ++i) {
    for (const VarId v : vars)
      world[v] = rng_.Bernoulli(mgr_->VariableProbability(v));
    if (mgr_->Evaluate(r, world)) ++hits;
  }
  MonteCarloEstimate out;
  out.samples = samples;
  out.probability = static_cast<double>(hits) / static_cast<double>(samples);
  // Bernoulli standard error; clamp away from zero so callers comparing
  // against a target precision terminate even on degenerate formulas.
  const double p = out.probability;
  out.standard_error =
      std::sqrt(std::max(p * (1.0 - p), 1e-12) /
                static_cast<double>(samples));
  return out;
}

MonteCarloEstimate MonteCarloEngine::EstimateToPrecision(
    LineageRef r, double target_stderr, uint64_t max_samples) {
  TPDB_CHECK_GT(target_stderr, 0.0);
  uint64_t total = 0;
  uint64_t hits = 0;
  uint64_t batch = 1024;
  const std::vector<VarId> vars = mgr_->Variables(r);
  std::vector<bool> world(mgr_->num_variables(), false);
  while (true) {
    for (uint64_t i = 0; i < batch; ++i) {
      for (const VarId v : vars)
        world[v] = rng_.Bernoulli(mgr_->VariableProbability(v));
      if (mgr_->Evaluate(r, world)) ++hits;
    }
    total += batch;
    const double p = static_cast<double>(hits) / static_cast<double>(total);
    const double se = std::sqrt(std::max(p * (1.0 - p), 1e-12) /
                                static_cast<double>(total));
    if (se <= target_stderr || total >= max_samples) {
      MonteCarloEstimate out;
      out.probability = p;
      out.standard_error = se;
      out.samples = total;
      return out;
    }
    batch = std::min<uint64_t>(batch * 2, max_samples - total);
  }
}

}  // namespace tpdb
