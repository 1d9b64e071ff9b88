// The evaluation ladder: the evaluator must agree with the exact engine
// (and, where tractable, the possible-worlds oracle) on arbitrary formulas;
// it must route each formula to the right rung, under an APPROX contract
// too; its Shannon expansions must stay within the budget and linear on
// entangled chains; and concurrent evaluators over one shared arena must be
// race-free (the TSAN job runs this suite).
#include "lineage/compile/prob_eval.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/random.h"
#include "lineage/monte_carlo.h"
#include "lineage/probability.h"
#include "tests/reference/reference.h"

namespace tpdb {
namespace {

// -- Random-formula agreement ---------------------------------------------

/// Random formula over `vars` with heavy reuse: leaves are drawn from the
/// same small variable pool (adversarial sharing) and operators are drawn
/// uniformly, so most ∧/∨ nodes entangle their operands.
LineageRef RandomFormula(LineageManager* mgr, Random* rng,
                         const std::vector<LineageRef>& vars, int ops) {
  std::vector<LineageRef> pool = vars;
  for (int i = 0; i < ops; ++i) {
    const LineageRef a = pool[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    const LineageRef b = pool[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
    switch (rng->Uniform(0, 3)) {
      case 0: pool.push_back(mgr->And(a, b)); break;
      case 1: pool.push_back(mgr->Or(a, b)); break;
      case 2: pool.push_back(mgr->Not(a)); break;
      default: pool.push_back(mgr->AndNot(a, b)); break;
    }
  }
  return pool.back();
}

TEST(ProbEvalTest, MatchesEngineAndBruteForce) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    LineageManager mgr;
    Random rng(seed);
    std::vector<LineageRef> vars;
    const int num_vars = static_cast<int>(rng.Uniform(2, 10));
    for (int v = 0; v < num_vars; ++v)
      vars.push_back(mgr.Var(mgr.RegisterVariable(rng.NextDouble())));
    const LineageRef lam =
        RandomFormula(&mgr, &rng, vars, static_cast<int>(rng.Uniform(4, 24)));

    // Evaluator first: it stores exact values into the manager's shared
    // memo, so running the exact engine first would short-circuit the
    // ladder to a memo hit and test nothing. The epoch bump below drops the
    // stored value so the unbudgeted engine recomputes independently.
    ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
    const double evaluated = evaluator.Probability(lam);
    const double brute = testing::BruteForceProbability(&mgr, lam);
    mgr.SetVariableProbability(0, mgr.VariableProbability(0));
    const double exact = ProbabilityEngine(&mgr).Probability(lam);

    EXPECT_NEAR(exact, brute, 1e-9) << "seed " << seed;
    EXPECT_NEAR(evaluated, exact, 1e-9) << "seed " << seed;
    EXPECT_NEAR(evaluated, brute, 1e-9) << "seed " << seed;
  }
}

TEST(ProbEvalTest, MatchesEngineOnLargeEntangledFamilies) {
  // Up to 24 variables: chains (v_i ∨ v_{i+1}) and long-range grids
  // (v_i ∨ v_{i+5}) — both defeat independent decomposition everywhere.
  // n > 2·stride everywhere, so the stride family always overlaps (v_stride
  // occurs in two clauses) and always needs a Shannon expansion.
  for (const int n : {12, 16, 24}) {
    for (const int stride : {1, 5}) {
      LineageManager mgr;
      Random rng(static_cast<uint64_t>(n * 31 + stride));
      std::vector<LineageRef> vars;
      for (int v = 0; v < n; ++v)
        vars.push_back(
            mgr.Var(mgr.RegisterVariable(0.1 + 0.8 * rng.NextDouble())));
      LineageRef lam = mgr.True();
      for (int i = 0; i + stride < n; ++i)
        lam = mgr.And(lam, mgr.Or(vars[static_cast<size_t>(i)],
                                  vars[static_cast<size_t>(i + stride)]));

      ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
      const double evaluated = evaluator.Probability(lam);
      EXPECT_NE(evaluator.methods_used() & kProbMethodCompiled, 0);
      mgr.SetVariableProbability(0, mgr.VariableProbability(0));
      const double exact = ProbabilityEngine(&mgr).Probability(lam);
      EXPECT_NEAR(evaluated, exact, 1e-9)
          << "n=" << n << " stride=" << stride;
    }
  }
}

// -- Ladder routing --------------------------------------------------------

TEST(ProbEvalTest, DecomposableFormulasStayOnTheExactRung) {
  LineageManager mgr;
  const LineageRef a = mgr.Var(mgr.RegisterVariable(0.9));
  std::vector<LineageRef> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.3)));
  const LineageRef lam = mgr.AndNot(a, mgr.OrAll(vars));

  ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(evaluator.Probability(lam), engine.Probability(lam), 1e-12);
  EXPECT_EQ(evaluator.methods_used(), kProbMethodExact);
  EXPECT_EQ(evaluator.shannon_expansions(), 0u);
}

/// (v1 ∨ v2) ∧ (v2 ∨ v3) ∧ … over `n` fresh variables: adjacent clauses
/// share a variable, so every level needs a Shannon expansion.
LineageRef MakeChain(LineageManager* mgr, int n) {
  std::vector<LineageRef> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(mgr->Var(mgr->RegisterVariable(0.5)));
  LineageRef lam = mgr->True();
  for (int i = 0; i + 1 < n; ++i)
    lam = mgr->And(lam, mgr->Or(vars[static_cast<size_t>(i)],
                                vars[static_cast<size_t>(i + 1)]));
  return lam;
}

TEST(ProbEvalTest, EntangledChainsStayExactWithinTwoExpansionsPerLevel) {
  for (const int depth : {8, 16, 32, 64}) {
    // Two arenas built the same way: the evaluator and the unbudgeted
    // engine each start from an empty memo.
    LineageManager mgr;
    const LineageRef lam = MakeChain(&mgr, depth);
    ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
    const double p = evaluator.Probability(lam);

    LineageManager reference;
    const LineageRef same = MakeChain(&reference, depth);
    EXPECT_EQ(p, ProbabilityEngine(&reference).Probability(same))
        << "depth " << depth;
    EXPECT_LE(evaluator.shannon_expansions(), 2u * static_cast<uint64_t>(depth))
        << "depth " << depth;
    EXPECT_EQ(evaluator.methods_used(), kProbMethodCompiled)
        << "depth " << depth;
  }
}

TEST(ProbEvalTest, MemoReusesSubcircuitsAcrossTuples) {
  constexpr int kCoreDepth = 16;
  constexpr int kTuples = 64;
  // The bare core's expansion count and value, in an arena of its own.
  LineageManager reference;
  ProbabilityEngine engine(&reference);
  const double core_p = engine.Probability(MakeChain(&reference, kCoreDepth));

  LineageManager mgr;
  const LineageRef core = MakeChain(&mgr, kCoreDepth);
  ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
  for (int i = 0; i < kTuples; ++i) {
    const double pt = 0.25 + 0.5 * i / kTuples;
    const LineageRef t = mgr.Var(mgr.RegisterVariable(pt));
    EXPECT_DOUBLE_EQ(evaluator.Probability(mgr.And(t, core)), pt * core_p)
        << "tuple " << i;
  }
  // The first tuple pays for the core; the others read it from the memo.
  EXPECT_EQ(evaluator.shannon_expansions(), engine.shannon_expansions());
  EXPECT_EQ(evaluator.methods_used(), kProbMethodCompiled | kProbMethodExact);
}

TEST(ProbEvalTest, BudgetExhaustionFallsBackToSampling) {
  LineageManager mgr;
  std::vector<LineageRef> vars;
  for (int i = 0; i < 14; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.5)));
  LineageRef lam = mgr.True();
  for (int i = 0; i + 1 < 14; ++i)
    lam = mgr.And(lam, mgr.Or(vars[static_cast<size_t>(i)],
                              vars[static_cast<size_t>(i + 1)]));

  ProbEvalOptions opts;
  opts.max_circuit_nodes = 4;  // the chain needs 21 expansions
  ProbabilityEvaluator evaluator(&mgr, opts);
  const double sampled = evaluator.Probability(lam);
  EXPECT_NE(evaluator.methods_used() & kProbMethodMonteCarlo, 0);
  // A cut-off evaluation leaves no memo entries behind, so a second
  // evaluator under the same options is cut off and samples the same way.
  ProbabilityEvaluator again(&mgr, opts);
  EXPECT_EQ(again.Probability(lam), sampled);
  EXPECT_EQ(again.methods_used(), kProbMethodMonteCarlo);
  ProbabilityEngine engine(&mgr);
  // Deterministic seed; the fallback contract is (0.01, 0.05).
  EXPECT_NEAR(sampled, engine.Probability(lam), 0.05);
}

TEST(ProbEvalTest, SpentBudgetLeavesLaterDecomposableTuplesExact) {
  LineageManager mgr;
  const LineageRef chain = MakeChain(&mgr, 14);
  const LineageRef a = mgr.Var(mgr.RegisterVariable(0.9));
  std::vector<LineageRef> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.3)));
  const LineageRef anti = mgr.AndNot(a, mgr.OrAll(vars));

  ProbEvalOptions opts;
  opts.max_circuit_nodes = 4;
  ProbabilityEvaluator evaluator(&mgr, opts);
  evaluator.Probability(chain);
  EXPECT_EQ(evaluator.methods_used(), kProbMethodMonteCarlo);
  EXPECT_EQ(evaluator.shannon_expansions(), 4u);
  // Decomposition spends no expansion, so the spent budget does not matter.
  const double p = evaluator.Probability(anti);
  EXPECT_EQ(evaluator.methods_used(), kProbMethodMonteCarlo | kProbMethodExact);
  mgr.SetVariableProbability(0, mgr.VariableProbability(0));  // drop memo
  EXPECT_EQ(p, ProbabilityEngine(&mgr).Probability(anti));
}

ProbEvalOptions ApproxOptions(double eps, double delta) {
  ProbEvalOptions opts;
  opts.approx_eps = eps;
  opts.approx_delta = delta;
  return opts;
}

TEST(ProbEvalTest, ApproxDecomposableLineageIsExact) {
  LineageManager mgr;
  const LineageRef a = mgr.Var(mgr.RegisterVariable(0.6));
  const LineageRef b = mgr.Var(mgr.RegisterVariable(0.5));
  const LineageRef c = mgr.Var(mgr.RegisterVariable(0.3));
  const LineageRef lam = mgr.AndNot(a, mgr.Or(b, c));  // anti-join shape
  ProbabilityEvaluator evaluator(&mgr, ApproxOptions(0.05, 0.05));
  const double p = evaluator.Probability(lam);
  EXPECT_EQ(evaluator.methods_used(), kProbMethodExact);
  mgr.SetVariableProbability(0, mgr.VariableProbability(0));  // drop memo
  EXPECT_EQ(p, ProbabilityEngine(&mgr).Probability(lam));
}

TEST(ProbEvalTest, ApproxEntangledLineageWithinBudgetIsCompiled) {
  LineageManager mgr;
  const LineageRef lam = MakeChain(&mgr, 12);
  ProbabilityEvaluator approx(&mgr, ApproxOptions(0.05, 0.05));
  const double p = approx.Probability(lam);
  EXPECT_EQ(approx.methods_used(), kProbMethodCompiled);

  // The value an exact query computes, from a cold memo.
  mgr.SetVariableProbability(0, mgr.VariableProbability(0));  // drop memo
  ProbabilityEvaluator exact(&mgr, ProbEvalOptions{});
  EXPECT_EQ(p, exact.Probability(lam));
  EXPECT_EQ(exact.methods_used(), kProbMethodCompiled);
  EXPECT_NEAR(p, testing::BruteForceProbability(&mgr, lam), 1e-9);

  // The exact value is memoized, so a second APPROX evaluator reads it.
  ProbabilityEvaluator again(&mgr, ApproxOptions(0.05, 0.05));
  EXPECT_EQ(again.Probability(lam), p);
  EXPECT_EQ(again.methods_used(), kProbMethodExact);
}

TEST(ProbEvalTest, ApproxOverBudgetLineageIsSampledAtTheQueryContract) {
  LineageManager mgr;
  const LineageRef lam = MakeChain(&mgr, 12);
  const double brute = testing::BruteForceProbability(&mgr, lam);
  const double eps = 0.05, delta = 0.05;
  const double z = NormalQuantile(1.0 - delta / 2.0);
  const int seeds = 40;
  int hits = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    ProbEvalOptions opts = ApproxOptions(eps, delta);
    opts.max_circuit_nodes = 4;  // the chain needs 17 expansions
    opts.mc_seed = static_cast<uint64_t>(seed) + 1;
    ProbabilityEvaluator evaluator(&mgr, opts);
    const double p = evaluator.Probability(lam);
    EXPECT_EQ(evaluator.methods_used(), kProbMethodMonteCarlo);
    // Sampled at (eps, delta), not at the fallback's (0.01, 0.05): the
    // same stream drawn to the query's precision gives the same bits.
    MonteCarloEngine mc(&mgr, DeriveSeed(opts.mc_seed, lam.id));
    EXPECT_EQ(p, mc.EstimateToPrecision(lam, eps / z,
                                        HoeffdingSamples(eps, delta))
                     .probability)
        << "seed " << seed;
    if (std::abs(p - brute) <= eps) ++hits;
  }
  EXPECT_GE(hits, static_cast<int>(seeds * 0.9));

  // Estimates never enter the memo: an exact query still expands.
  ProbabilityEvaluator exact(&mgr, ProbEvalOptions{});
  EXPECT_NEAR(exact.Probability(lam), brute, 1e-9);
  EXPECT_EQ(exact.methods_used(), kProbMethodCompiled);
}

TEST(ProbEvalTest, MethodLabels) {
  EXPECT_EQ(ProbMethodsLabel(0), "");
  EXPECT_EQ(ProbMethodsLabel(kProbMethodExact), "exact");
  EXPECT_EQ(ProbMethodsLabel(kProbMethodCompiled), "shannon");
  EXPECT_EQ(ProbMethodsLabel(kProbMethodMonteCarlo), "mc");
  EXPECT_EQ(ProbMethodsLabel(kProbMethodExact | kProbMethodMonteCarlo),
            "exact+mc");
  EXPECT_EQ(ProbMethodsLabel(kProbMethodExact | kProbMethodCompiled |
                             kProbMethodMonteCarlo),
            "exact+shannon+mc");
}

// -- Monte-Carlo confidence accounting ------------------------------------

TEST(ProbEvalTest, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
}

TEST(ProbEvalTest, HoeffdingSamplesTightenWithContract) {
  // n = ceil(ln(2/delta) / (2 eps^2)).
  EXPECT_EQ(HoeffdingSamples(0.1, 0.05),
            static_cast<uint64_t>(std::ceil(std::log(2.0 / 0.05) / 0.02)));
  EXPECT_GT(HoeffdingSamples(0.01, 0.05), HoeffdingSamples(0.1, 0.05));
  EXPECT_GT(HoeffdingSamples(0.1, 0.01), HoeffdingSamples(0.1, 0.05));
  // Past 2^64 samples (or at +inf) the bound saturates instead of
  // overflowing the cast.
  EXPECT_EQ(HoeffdingSamples(1e-300, 0.05), UINT64_MAX);
  EXPECT_EQ(HoeffdingSamples(1e-10, 0.05), UINT64_MAX);
}

TEST(ProbEvalTest, ApproxContractsPastTheSampleCapAreRejected) {
  EXPECT_TRUE(ValidateApproxContract(0.001, 0.05).ok());
  EXPECT_TRUE(ValidateApproxContract(0.05, 0.05).ok());
  const Status tiny = ValidateApproxContract(1e-9, 0.05);
  EXPECT_EQ(tiny.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateApproxContract(1e-300, 0.05).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateApproxContract(0.0, 0.05).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateApproxContract(0.05, 1.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProbEvalTest, DerivedSeedsAreStableAndDistinct) {
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
  EXPECT_NE(DeriveSeed(42, 7), DeriveSeed(42, 8));
  EXPECT_NE(DeriveSeed(42, 7), DeriveSeed(43, 7));
}

TEST(ProbEvalTest, ApproxEstimatesLandInsideTheConfidenceInterval) {
  LineageManager mgr;
  std::vector<LineageRef> vars;
  for (int i = 0; i < 12; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.5)));
  LineageRef lam = mgr.True();
  for (int i = 0; i + 1 < 12; ++i)
    lam = mgr.And(lam, mgr.Or(vars[static_cast<size_t>(i)],
                              vars[static_cast<size_t>(i + 1)]));
  ProbabilityEngine engine(&mgr);
  const double exact = engine.Probability(lam);

  const double eps = 0.05, delta = 0.05;
  const double z = NormalQuantile(1.0 - delta / 2.0);
  const int seeds = 40;
  int hits = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    MonteCarloEngine mc(&mgr,
                        DeriveSeed(static_cast<uint64_t>(seed) + 1, lam.id));
    const MonteCarloEstimate est = mc.EstimateToPrecision(
        lam, eps / z, HoeffdingSamples(eps, delta));
    if (std::abs(est.probability - exact) <= eps) ++hits;
  }
  // The contract allows delta = 5% misses; 90% over 40 seeds leaves slack
  // for unlucky draws without masking a broken estimator.
  EXPECT_GE(hits, static_cast<int>(seeds * 0.9));
}

// -- Concurrency (exercised under TSAN) -----------------------------------

TEST(ProbEvalConcurrencyTest, ParallelEvaluatorsShareOneArena) {
  LineageManager mgr;
  std::vector<LineageRef> vars;
  for (int i = 0; i < 16; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.5)));
  // A mix of decomposable and entangled formulas, shared by all workers.
  std::vector<LineageRef> formulas;
  for (int f = 0; f < 8; ++f) {
    LineageRef lam = mgr.Or(vars[static_cast<size_t>(f)],
                            vars[static_cast<size_t>(f + 1)]);
    for (int i = f; i + 1 < f + 6; ++i)
      lam = mgr.And(lam, mgr.Or(vars[static_cast<size_t>(i % 16)],
                                vars[static_cast<size_t>((i + 1) % 16)]));
    formulas.push_back(lam);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
      for (int round = 0; round < 50; ++round) {
        const LineageRef lam =
            formulas[static_cast<size_t>((w + round) % 8)];
        const double p = evaluator.Probability(lam);
        if (!(p >= 0.0 && p <= 1.0)) failed = true;
      }
    });
  }
  // A writer racing the evaluators: epoch bumps must invalidate memos
  // without tearing any read.
  workers.emplace_back([&] {
    for (int i = 0; i < 100; ++i)
      mgr.SetVariableProbability(static_cast<VarId>(i % 16),
                                 0.25 + 0.5 * ((i % 3) / 2.0));
  });
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(ProbEvalConcurrencyTest, ConcurrentConstructionAndEvaluation) {
  LineageManager mgr;
  std::vector<LineageRef> vars;
  for (int i = 0; i < 32; ++i)
    vars.push_back(mgr.Var(mgr.RegisterVariable(0.5)));

  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 6; ++w) {
    workers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) + 1);
      ProbabilityEvaluator evaluator(&mgr, ProbEvalOptions{});
      for (int round = 0; round < 40; ++round) {
        // Interleave building new shared formulas with evaluating them:
        // Intern takes the arena lock, evaluation is a lock-free reader.
        const LineageRef a = vars[static_cast<size_t>(
            rng.Uniform(0, 31))];
        const LineageRef b = vars[static_cast<size_t>(
            rng.Uniform(0, 31))];
        const LineageRef lam = mgr.And(mgr.Or(a, b), mgr.Not(b));
        const double p = evaluator.Probability(lam);
        if (!(p >= 0.0 && p <= 1.0)) failed = true;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace tpdb
