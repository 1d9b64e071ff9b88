// Probability-engine benchmark, emitting BENCH_prob.json — the CI gate of
// the lineage-compilation trajectory. Three evaluation methods over the
// formula families TP queries produce, at increasing lineage depth:
//
//   exact     ProbabilityEngine — independent decomposition + memoized
//             Shannon expansion (re-derived from scratch per evaluation)
//   compiled  LineageCompiler circuit — compiled once, re-evaluated with a
//             linear pass after every probability update
//   sampled   MonteCarloEngine possible-world sampling under an
//             (eps, delta) contract
//
// Families:
//   disjoint   λ = a ∧ ¬(s1 ∨ … ∨ sd): fully decomposable (anti-join
//              lineage) — the exact fast path; compiled must match it.
//   entangled  λ = (v1∨v2) ∧ (v2∨v3) ∧ … : adjacent clauses share a
//              variable, defeating decomposition — exact pays Shannon
//              per evaluation, the circuit pays it once at compile time.
//   shared     k tuples λ_i = t_i ∧ (entangled core): the cross-tuple
//              memo-reuse case — each shared subformula compiles once.
//
// The process exits non-zero if (a) any compiled probability diverges from
// exact by more than 1e-9, (b) compiled re-evaluation fails to beat exact
// Shannon by at least 5x on the deepest entangled formula, (c) an
// evaluator under APPROX(eps, delta) samples any entangled formula the
// circuit budget covers, or returns a value more than 1e-9 from exact, or
// (d) the APPROX estimate falls outside its eps bound on more than 5% of
// seeds.
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

#include "lineage/compile/compile.h"
#include "lineage/compile/prob_eval.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "lineage/probability.h"

namespace tpdb {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxDivergence = 1e-9;
constexpr double kRequiredCompiledSpeedup = 5.0;
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
  size_t circuit_nodes = 0;   // compiled only
  uint64_t memo_hits = 0;     // compiled only
  double reuse_ratio = 0.0;   // compiled only
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
  bool divergence_ok = true;
  double worst_divergence = 0.0;
  double deepest_exact_s = 0.0, deepest_compiled_s = 0.0;

  struct Family {
    std::string name;
    std::vector<int> depths;
    std::function<LineageRef(LineageManager*, int)> make;
  };
  const std::vector<Family> families = {
      {"disjoint", {4, 16, 64, 256}, MakeDisjoint},
      {"entangled", {8, 12, 16, 20}, MakeEntangled},
  };

  for (const Family& family : families) {
    for (const int depth : family.depths) {
      const LineageRef lam = family.make(&mgr, depth);
      // Exact reference (fresh engine, invalidated memo per evaluation —
      // the cost a query pays when probabilities change between runs).
      double exact_p = 0.0;
      const double exact_s = TimePerEval(reps, iters, [&] {
        mgr.SetVariableProbability(0, mgr.VariableProbability(0));
        ProbabilityEngine engine(&mgr);
        exact_p = engine.Probability(lam);
      });
      results.push_back(
          Measurement{family.name, depth, "exact", exact_s, exact_p});

      // Compiled: one compile, then a linear re-evaluation per update.
      ProbEvalOptions opts;
      ProbabilityEvaluator evaluator(&mgr, opts);
      const size_t nodes_before = evaluator.circuit_size();
      double compiled_p = evaluator.Probability(lam);  // compiles
      const double compiled_s = TimePerEval(reps, iters, [&] {
        mgr.SetVariableProbability(0, mgr.VariableProbability(0));
        compiled_p = evaluator.Probability(lam);
      });
      const CompileStats& cstats = evaluator.compile_stats();
      const size_t nodes_added = evaluator.circuit_size() - nodes_before;
      Measurement compiled{family.name, depth, "compiled", compiled_s,
                           compiled_p};
      compiled.circuit_nodes = nodes_added;
      compiled.memo_hits = cstats.memo_hits;
      const uint64_t touched = cstats.memo_hits + evaluator.circuit_size();
      compiled.reuse_ratio =
          touched > 0 ? static_cast<double>(cstats.memo_hits) / touched : 0.0;
      results.push_back(compiled);

      const double divergence = std::abs(compiled_p - exact_p);
      worst_divergence = std::max(worst_divergence, divergence);
      if (divergence > kMaxDivergence) {
        std::fprintf(stderr,
                     "DIVERGENCE: %s depth=%d compiled %.12f vs exact %.12f\n",
                     family.name.c_str(), depth, compiled_p, exact_p);
        divergence_ok = false;
      }

      // Sampled, under the default fallback contract.
      MonteCarloEngine mc(&mgr, DeriveSeed(opts.mc_seed, lam.id));
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

      std::printf(
          "%-9s depth=%-4d exact %10.2f us  compiled %8.2f us (%zu nodes, "
          "reuse %.2f)  sampled %8.2f us\n",
          family.name.c_str(), depth, exact_s * 1e6, compiled_s * 1e6,
          nodes_added, compiled.reuse_ratio, sampled_s * 1e6);

      if (family.name == "entangled" && depth == family.depths.back()) {
        deepest_exact_s = exact_s;
        deepest_compiled_s = compiled_s;
      }
    }
  }

  // Cross-tuple memo reuse: k tuples sharing one entangled core — each
  // shared subformula compiles once, later tuples wire its circuit id.
  double shared_reuse = 0.0;
  {
    const int core_depth = 16, tuples = 64;
    const LineageRef core = MakeEntangled(&mgr, core_depth);
    ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
    double sum = 0.0;
    for (int i = 0; i < tuples; ++i) {
      const LineageRef t = mgr.Var(mgr.RegisterVariable(0.7));
      sum += evaluator.Probability(mgr.And(t, core));
    }
    const CompileStats& cstats = evaluator.compile_stats();
    shared_reuse = static_cast<double>(cstats.memo_hits) /
                   static_cast<double>(cstats.memo_hits + evaluator.circuit_size());
    Measurement shared{"shared", core_depth, "compiled", 0.0, sum / tuples};
    shared.circuit_nodes = evaluator.circuit_size();
    shared.memo_hits = cstats.memo_hits;
    shared.reuse_ratio = shared_reuse;
    results.push_back(shared);
    std::printf("shared    depth=%-4d %d tuples: %zu circuit nodes, "
                "%llu memo hits, reuse %.2f\n",
                core_depth, tuples, evaluator.circuit_size(),
                static_cast<unsigned long long>(cstats.memo_hits),
                shared_reuse);
  }

  // The APPROX ladder: under APPROX(eps, delta) an evaluator still serves
  // the entangled family from the compiled rung, within budget — no sample
  // drawn, and the exact values.
  uint8_t approx_ladder_methods = 0;
  double approx_ladder_divergence = 0.0;
  for (const int depth : families.back().depths) {
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

  const double compiled_speedup =
      deepest_compiled_s > 0.0 ? deepest_exact_s / deepest_compiled_s : 0.0;
  const bool speedup_ok = compiled_speedup >= kRequiredCompiledSpeedup;
  const bool approx_ok = approx_hit_rate >= kApproxRequiredHitRate;
  std::printf("entangled deepest: exact %.2f us, compiled %.2f us, "
              "speedup %.1fx (required %.1fx)\n",
              deepest_exact_s * 1e6, deepest_compiled_s * 1e6,
              compiled_speedup, kRequiredCompiledSpeedup);
  std::printf("approx: %d/%d seeds within eps=%.2f (required %.0f%%)\n",
              approx_hits, kApproxSeeds, kApproxEps,
              kApproxRequiredHitRate * 100.0);

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_prob.json";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TPDB_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(
        f,
        "    {\"family\": \"%s\", \"depth\": %d, \"method\": \"%s\", "
        "\"seconds_per_eval\": %.9f, \"probability\": %.12f, "
        "\"circuit_nodes\": %zu, \"memo_hits\": %llu, "
        "\"reuse_ratio\": %.4f}%s\n",
        m.family.c_str(), m.depth, m.method.c_str(), m.seconds_per_eval,
        m.probability, m.circuit_nodes,
        static_cast<unsigned long long>(m.memo_hits), m.reuse_ratio,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"gates\": {\"max_divergence\": %.3e, \"divergence_ok\": %s, "
      "\"compiled_speedup\": %.3f, \"required_speedup\": %.1f, "
      "\"approx_hit_rate\": %.3f, \"required_hit_rate\": %.2f, "
      "\"shared_reuse_ratio\": %.4f, \"approx_ladder_methods\": \"%s\", "
      "\"approx_ladder_max_divergence\": %.3e, \"approx_ladder_ok\": %s}\n}\n",
      worst_divergence, divergence_ok ? "true" : "false", compiled_speedup,
      kRequiredCompiledSpeedup, approx_hit_rate, kApproxRequiredHitRate,
      shared_reuse, ProbMethodsLabel(approx_ladder_methods).c_str(),
      approx_ladder_divergence, approx_ladder_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!divergence_ok) {
    std::fprintf(stderr, "FAIL: compiled diverges from exact beyond %.1e\n",
                 kMaxDivergence);
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: compiled speedup %.2fx < required %.1fx on the "
                 "deepest entangled formula\n",
                 compiled_speedup, kRequiredCompiledSpeedup);
    return 1;
  }
  if (!approx_ladder_ok) {
    std::fprintf(stderr,
                 "FAIL: APPROX over the entangled family used %s (divergence "
                 "%.3e); it must stay on the exact/compiled rungs within "
                 "%.1e\n",
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
