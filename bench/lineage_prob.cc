// Probability-engine benchmark, emitting BENCH_prob.json — the CI gate of
// the evaluation ladder. Two evaluation methods over the formula families
// TP queries produce, at increasing lineage depth:
//
//   exact     ProbabilityEngine — independent decomposition + memoized
//             Shannon expansion (re-derived from scratch per evaluation)
//   sampled   MonteCarloEngine possible-world sampling under an
//             (eps, delta) contract
//
// Families:
//   disjoint   λ = a ∧ ¬(s1 ∨ … ∨ sd): fully decomposable (anti-join
//              lineage) — the exact fast path.
//   entangled  λ = (v1∨v2) ∧ (v2∨v3) ∧ … : adjacent clauses share a
//              variable, defeating decomposition — every level pays a
//              Shannon expansion.
//   shared     k tuples λ_i = t_i ∧ (entangled core): the cross-tuple
//              memo-reuse case — the core is expanded once.
//
// The process exits non-zero if (a) a ProbabilityEvaluator under the
// default budget spends more than 2·depth Shannon expansions on an
// entangled formula of depth 8–64, samples it, or returns a value that is
// not bit-equal to the unbudgeted engine's, (b) the shared family costs
// more expansions than its core alone, (c) an evaluator under
// APPROX(eps, delta) samples any entangled formula the budget covers, or
// returns a value more than 1e-9 from exact, or (d) the APPROX estimate
// falls outside its eps bound on more than 5% of seeds.
//
//   ./bench/bench_lineage_prob [out.json]
//
// TPDB_BENCH_SCALE multiplies the evaluation repetitions (default 1).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "lineage/compile/prob_eval.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "lineage/probability.h"

namespace tpdb {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxDivergence = 1e-9;
constexpr double kMaxExpansionsPerLevel = 2.0;
constexpr double kApproxEps = 0.05;
constexpr double kApproxDelta = 0.05;
constexpr int kApproxSeeds = 60;
constexpr double kApproxRequiredHitRate = 0.95;

struct Measurement {
  std::string family;
  int depth = 0;
  std::string method;
  double seconds_per_eval = 0.0;
  double probability = 0.0;
  uint64_t shannon_expansions = 0;  // exact only
};

/// Median-of-reps of (total loop seconds / iters) — each rep re-runs the
/// whole invalidate+evaluate loop.
double TimePerEval(int reps, int iters, const std::function<void()>& eval) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < iters; ++i) eval();
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - start).count() / iters);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// λ = a ∧ ¬(s1 ∨ … ∨ sd): decomposable, exact stays linear.
LineageRef MakeDisjoint(LineageManager* mgr, int depth) {
  const LineageRef a = mgr->Var(mgr->RegisterVariable(0.9));
  std::vector<LineageRef> vars;
  for (int i = 0; i < depth; ++i)
    vars.push_back(mgr->Var(mgr->RegisterVariable(0.3)));
  return mgr->AndNot(a, mgr->OrAll(vars));
}

/// λ = (v1∨v2) ∧ (v2∨v3) ∧ …: adjacent clauses share a variable.
LineageRef MakeEntangled(LineageManager* mgr, int depth) {
  std::vector<LineageRef> vars;
  for (int i = 0; i < depth; ++i)
    vars.push_back(mgr->Var(mgr->RegisterVariable(0.5)));
  LineageRef lam = mgr->True();
  for (int i = 0; i + 1 < depth; ++i)
    lam = mgr->And(lam, mgr->Or(vars[i], vars[i + 1]));
  return lam;
}

int Main(int argc, char** argv) {
  const char* scale_env = std::getenv("TPDB_BENCH_SCALE");
  const int64_t scale = scale_env != nullptr && std::atoll(scale_env) > 0
                            ? std::atoll(scale_env)
                            : 1;
  const int reps = 5;
  const int iters = static_cast<int>(8 * scale);

  LineageManager mgr;
  std::vector<Measurement> results;

  struct Family {
    std::string name;
    std::vector<int> depths;
    std::function<LineageRef(LineageManager*, int)> make;
  };
  const std::vector<Family> families = {
      {"disjoint", {4, 16, 64, 256}, MakeDisjoint},
      {"entangled", {8, 16, 32, 64}, MakeEntangled},
  };

  for (const Family& family : families) {
    for (const int depth : family.depths) {
      const LineageRef lam = family.make(&mgr, depth);
      // Exact (fresh engine, invalidated memo per evaluation — the cost a
      // query pays when probabilities change between runs).
      double exact_p = 0.0;
      uint64_t expansions = 0;
      const double exact_s = TimePerEval(reps, iters, [&] {
        mgr.SetVariableProbability(0, mgr.VariableProbability(0));
        ProbabilityEngine engine(&mgr);
        exact_p = engine.Probability(lam);
        expansions = engine.shannon_expansions();
      });
      Measurement exact{family.name, depth, "exact", exact_s, exact_p};
      exact.shannon_expansions = expansions;
      results.push_back(exact);

      // Sampled, under the APPROX contract.
      MonteCarloEngine mc(&mgr, DeriveSeed(ProbEvalOptions{}.mc_seed, lam.id));
      const double z = NormalQuantile(1.0 - kApproxDelta / 2.0);
      double sampled_p = 0.0;
      const double sampled_s = TimePerEval(1, std::max(iters / 4, 1), [&] {
        sampled_p =
            mc.EstimateToPrecision(lam, kApproxEps / z,
                                   HoeffdingSamples(kApproxEps, kApproxDelta))
                .probability;
      });
      results.push_back(
          Measurement{family.name, depth, "sampled", sampled_s, sampled_p});

      std::printf("%-9s depth=%-4d exact %10.2f us (%llu expansions)  "
                  "sampled %8.2f us\n",
                  family.name.c_str(), depth, exact_s * 1e6,
                  static_cast<unsigned long long>(expansions),
                  sampled_s * 1e6);
    }
  }

  // The expansion gate: under the default budget the evaluator stays exact
  // on the entangled family, linear in depth, bit-equal to the engine.
  double expansions_per_level = 0.0;
  uint8_t entangled_methods = 0;
  bool entangled_bit_equal = true;
  for (const int depth : families.back().depths) {
    LineageManager fresh;  // no memo entries from the runs above
    ProbabilityEvaluator evaluator(&fresh, ProbEvalOptions{});
    const double p = evaluator.Probability(MakeEntangled(&fresh, depth));
    LineageManager reference;
    const double exact_p =
        ProbabilityEngine(&reference).Probability(
            MakeEntangled(&reference, depth));
    entangled_methods |= evaluator.methods_used();
    entangled_bit_equal = entangled_bit_equal && p == exact_p;
    expansions_per_level =
        std::max(expansions_per_level,
                 static_cast<double>(evaluator.shannon_expansions()) / depth);
  }
  const bool expansion_ok =
      expansions_per_level <= kMaxExpansionsPerLevel && entangled_bit_equal &&
      (entangled_methods & kProbMethodMonteCarlo) == 0;
  std::printf("expansion gate: %.2f expansions per level (max %.1f), "
              "methods %s, bit-equal %s\n",
              expansions_per_level, kMaxExpansionsPerLevel,
              ProbMethodsLabel(entangled_methods).c_str(),
              entangled_bit_equal ? "yes" : "no");

  // Cross-tuple memo reuse: k tuples sharing one entangled core — the core
  // is expanded once, later tuples read it from the memo.
  uint64_t shared_expansions = 0;
  uint64_t core_expansions = 0;
  {
    const int core_depth = 16, tuples = 64;
    LineageManager fresh;
    const LineageRef core = MakeEntangled(&fresh, core_depth);
    ProbabilityEvaluator evaluator(&fresh, ProbEvalOptions{});
    double sum = 0.0;
    for (int i = 0; i < tuples; ++i) {
      const LineageRef t = fresh.Var(fresh.RegisterVariable(0.7));
      sum += evaluator.Probability(fresh.And(t, core));
    }
    shared_expansions = evaluator.shannon_expansions();
    LineageManager reference;
    ProbabilityEngine engine(&reference);
    engine.Probability(MakeEntangled(&reference, core_depth));
    core_expansions = engine.shannon_expansions();
    Measurement shared{"shared", core_depth, "exact", 0.0, sum / tuples};
    shared.shannon_expansions = shared_expansions;
    results.push_back(shared);
    std::printf("shared    depth=%-4d %d tuples: %llu expansions (core "
                "alone %llu)\n",
                core_depth, tuples,
                static_cast<unsigned long long>(shared_expansions),
                static_cast<unsigned long long>(core_expansions));
  }
  const bool shared_ok = shared_expansions == core_expansions;

  // The APPROX ladder: under APPROX(eps, delta) an evaluator still serves
  // the entangled family exactly, within budget — no sample drawn, and the
  // exact values.
  uint8_t approx_ladder_methods = 0;
  double approx_ladder_divergence = 0.0;
  for (const int depth : {8, 12, 16, 20}) {
    LineageManager fresh;  // no memo entries from the runs above
    const LineageRef lam = MakeEntangled(&fresh, depth);
    const double exact_p = ProbabilityEngine(&fresh).Probability(lam);
    fresh.SetVariableProbability(0, fresh.VariableProbability(0));
    ProbEvalOptions opts;
    opts.approx_eps = kApproxEps;
    opts.approx_delta = kApproxDelta;
    ProbabilityEvaluator evaluator(&fresh, opts);
    const double p = evaluator.Probability(lam);
    approx_ladder_methods |= evaluator.methods_used();
    approx_ladder_divergence =
        std::max(approx_ladder_divergence, std::abs(p - exact_p));
  }
  const bool approx_ladder_ok =
      (approx_ladder_methods & kProbMethodMonteCarlo) == 0 &&
      approx_ladder_divergence <= kMaxDivergence;
  std::printf("approx ladder: entangled methods %s, max divergence %.3e\n",
              ProbMethodsLabel(approx_ladder_methods).c_str(),
              approx_ladder_divergence);

  // APPROX(eps, delta) contract: the estimate must land within eps of the
  // exact probability on at least 95% of seeds.
  int approx_hits = 0;
  {
    const LineageRef lam = MakeEntangled(&mgr, 14);
    ProbabilityEngine engine(&mgr);
    const double exact_p = engine.Probability(lam);
    const double z = NormalQuantile(1.0 - kApproxDelta / 2.0);
    for (int seed = 0; seed < kApproxSeeds; ++seed) {
      MonteCarloEngine mc(&mgr, DeriveSeed(static_cast<uint64_t>(seed) + 1,
                                           lam.id));
      const MonteCarloEstimate est = mc.EstimateToPrecision(
          lam, kApproxEps / z, HoeffdingSamples(kApproxEps, kApproxDelta));
      if (std::abs(est.probability - exact_p) <= kApproxEps) ++approx_hits;
    }
  }
  const double approx_hit_rate =
      static_cast<double>(approx_hits) / kApproxSeeds;
  const bool approx_ok = approx_hit_rate >= kApproxRequiredHitRate;
  std::printf("approx: %d/%d seeds within eps=%.2f (required %.0f%%)\n",
              approx_hits, kApproxSeeds, kApproxEps,
              kApproxRequiredHitRate * 100.0);

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_prob.json";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TPDB_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"depth\": %d, \"method\": \"%s\", "
                 "\"seconds_per_eval\": %.9f, \"probability\": %.12f, "
                 "\"shannon_expansions\": %llu}%s\n",
                 m.family.c_str(), m.depth, m.method.c_str(),
                 m.seconds_per_eval, m.probability,
                 static_cast<unsigned long long>(m.shannon_expansions),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"gates\": {\"expansions_per_level\": %.4f, "
      "\"max_expansions_per_level\": %.1f, \"entangled_methods\": \"%s\", "
      "\"entangled_bit_equal\": %s, \"expansion_ok\": %s, "
      "\"shared_expansions\": %llu, \"core_expansions\": %llu, "
      "\"shared_ok\": %s, "
      "\"approx_hit_rate\": %.3f, \"required_hit_rate\": %.2f, "
      "\"approx_ladder_methods\": \"%s\", "
      "\"approx_ladder_max_divergence\": %.3e, \"approx_ladder_ok\": %s}\n}\n",
      expansions_per_level, kMaxExpansionsPerLevel,
      ProbMethodsLabel(entangled_methods).c_str(),
      entangled_bit_equal ? "true" : "false", expansion_ok ? "true" : "false",
      static_cast<unsigned long long>(shared_expansions),
      static_cast<unsigned long long>(core_expansions),
      shared_ok ? "true" : "false", approx_hit_rate, kApproxRequiredHitRate,
      ProbMethodsLabel(approx_ladder_methods).c_str(),
      approx_ladder_divergence, approx_ladder_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!expansion_ok) {
    std::fprintf(stderr,
                 "FAIL: entangled family took %.2f expansions per level "
                 "(max %.1f), methods %s, bit-equal to the engine: %s\n",
                 expansions_per_level, kMaxExpansionsPerLevel,
                 ProbMethodsLabel(entangled_methods).c_str(),
                 entangled_bit_equal ? "yes" : "no");
    return 1;
  }
  if (!shared_ok) {
    std::fprintf(stderr,
                 "FAIL: shared family took %llu expansions, its core alone "
                 "%llu\n",
                 static_cast<unsigned long long>(shared_expansions),
                 static_cast<unsigned long long>(core_expansions));
    return 1;
  }
  if (!approx_ladder_ok) {
    std::fprintf(stderr,
                 "FAIL: APPROX over the entangled family used %s (divergence "
                 "%.3e); it must stay exact within %.1e\n",
                 ProbMethodsLabel(approx_ladder_methods).c_str(),
                 approx_ladder_divergence, kMaxDivergence);
    return 1;
  }
  if (!approx_ok) {
    std::fprintf(stderr, "FAIL: approx hit rate %.2f < %.2f\n",
                 approx_hit_rate, kApproxRequiredHitRate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tpdb

int main(int argc, char** argv) { return tpdb::Main(argc, argv); }
