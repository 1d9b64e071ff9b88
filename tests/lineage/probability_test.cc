#include "lineage/probability.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "tests/reference/reference.h"

namespace tpdb {
namespace {

TEST(Probability, Constants) {
  LineageManager mgr;
  ProbabilityEngine engine(&mgr);
  EXPECT_DOUBLE_EQ(engine.Probability(mgr.True()), 1.0);
  EXPECT_DOUBLE_EQ(engine.Probability(mgr.False()), 0.0);
}

TEST(Probability, SingleVariableAndNegation) {
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.7);
  ProbabilityEngine engine(&mgr);
  EXPECT_DOUBLE_EQ(engine.Probability(mgr.Var(a)), 0.7);
  EXPECT_DOUBLE_EQ(engine.Probability(mgr.Not(mgr.Var(a))), 0.3);
}

TEST(Probability, IndependentConjunctionIsProduct) {
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.7);
  const VarId b = mgr.RegisterVariable(0.6);
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(engine.Probability(mgr.And(mgr.Var(a), mgr.Var(b))), 0.42,
              1e-12);
  EXPECT_EQ(engine.shannon_expansions(), 0u);  // fast path
}

TEST(Probability, IndependentDisjunctionIsInclusionExclusion) {
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.7);
  const VarId b = mgr.RegisterVariable(0.6);
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(engine.Probability(mgr.Or(mgr.Var(a), mgr.Var(b))),
              1.0 - 0.3 * 0.4, 1e-12);
  EXPECT_EQ(engine.shannon_expansions(), 0u);
}

TEST(Probability, PaperFig1bValues) {
  // The negated lineages of the example: P(a1 ∧ ¬b3) = 0.7·0.3 = 0.21;
  // P(a1 ∧ ¬(b3 ∨ b2)) = 0.7·0.3·0.4 = 0.084; P(a1 ∧ ¬b2) = 0.28.
  LineageManager mgr;
  const VarId a1 = mgr.RegisterVariable(0.7, "a1");
  const VarId b2 = mgr.RegisterVariable(0.6, "b2");
  const VarId b3 = mgr.RegisterVariable(0.7, "b3");
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(engine.Probability(mgr.AndNot(mgr.Var(a1), mgr.Var(b3))), 0.21,
              1e-12);
  EXPECT_NEAR(engine.Probability(mgr.AndNot(
                  mgr.Var(a1), mgr.Or(mgr.Var(b3), mgr.Var(b2)))),
              0.084, 1e-12);
  EXPECT_NEAR(engine.Probability(mgr.AndNot(mgr.Var(a1), mgr.Var(b2))), 0.28,
              1e-12);
  EXPECT_EQ(engine.shannon_expansions(), 0u);  // all decomposable
}

TEST(Probability, DependentFormulaNeedsShannon) {
  // (a ∧ b) ∨ (a ∧ c): P = P(a) · P(b ∨ c) = 0.5 · (1 - 0.6·0.2) = 0.44.
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.5);
  const VarId b = mgr.RegisterVariable(0.4);
  const VarId c = mgr.RegisterVariable(0.8);
  ProbabilityEngine engine(&mgr);
  const LineageRef lam = mgr.Or(mgr.And(mgr.Var(a), mgr.Var(b)),
                                mgr.And(mgr.Var(a), mgr.Var(c)));
  EXPECT_NEAR(engine.Probability(lam), 0.44, 1e-12);
  EXPECT_GT(engine.shannon_expansions(), 0u);
}

TEST(Probability, XorViaShannon) {
  // (a ∧ ¬b) ∨ (¬a ∧ b): P = pa(1-pb) + (1-pa)pb.
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.3);
  const VarId b = mgr.RegisterVariable(0.9);
  ProbabilityEngine engine(&mgr);
  const LineageRef lam =
      mgr.Or(mgr.And(mgr.Var(a), mgr.Not(mgr.Var(b))),
             mgr.And(mgr.Not(mgr.Var(a)), mgr.Var(b)));
  EXPECT_NEAR(engine.Probability(lam), 0.3 * 0.1 + 0.7 * 0.9, 1e-12);
}

TEST(Probability, ContradictionAndTautology) {
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.42);
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(
      engine.Probability(mgr.And(mgr.Var(a), mgr.Not(mgr.Var(a)))), 0.0,
      1e-12);
  EXPECT_NEAR(engine.Probability(mgr.Or(mgr.Var(a), mgr.Not(mgr.Var(a)))),
              1.0, 1e-12);
}

TEST(Probability, CacheInvalidatedOnProbabilityChange) {
  LineageManager mgr;
  const VarId a = mgr.RegisterVariable(0.5);
  const VarId b = mgr.RegisterVariable(0.5);
  const LineageRef lam = mgr.And(mgr.Var(a), mgr.Var(b));
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(engine.Probability(lam), 0.25, 1e-12);
  mgr.SetVariableProbability(a, 1.0);
  EXPECT_NEAR(engine.Probability(lam), 0.5, 1e-12);
}

TEST(Probability, ZeroAndOneProbabilities) {
  LineageManager mgr;
  const VarId never = mgr.RegisterVariable(0.0);
  const VarId always = mgr.RegisterVariable(1.0);
  ProbabilityEngine engine(&mgr);
  EXPECT_DOUBLE_EQ(engine.Probability(mgr.Var(never)), 0.0);
  EXPECT_DOUBLE_EQ(
      engine.Probability(mgr.Or(mgr.Var(never), mgr.Var(always))), 1.0);
}

// Random-formula sweep: the decomposition/Shannon engine must agree with
// possible-worlds enumeration on arbitrary formulas.
class RandomFormulaTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  LineageRef RandomFormula(LineageManager* mgr, Random* rng,
                           const std::vector<VarId>& vars, int depth) {
    if (depth == 0 || rng->Bernoulli(0.3)) {
      const VarId v =
          vars[static_cast<size_t>(rng->Uniform(0, vars.size() - 1))];
      return rng->Bernoulli(0.3) ? mgr->Not(mgr->Var(v)) : mgr->Var(v);
    }
    const LineageRef l = RandomFormula(mgr, rng, vars, depth - 1);
    const LineageRef r = RandomFormula(mgr, rng, vars, depth - 1);
    switch (rng->Uniform(0, 2)) {
      case 0:
        return mgr->And(l, r);
      case 1:
        return mgr->Or(l, r);
      default:
        return mgr->Not(mgr->And(l, r));
    }
  }
};

TEST_P(RandomFormulaTest, ExactEngineMatchesPossibleWorlds) {
  LineageManager mgr;
  Random rng(GetParam() * 7919);
  std::vector<VarId> vars;
  const int n = 3 + static_cast<int>(rng.Uniform(0, 7));
  for (int i = 0; i < n; ++i)
    vars.push_back(mgr.RegisterVariable(rng.UniformDouble(0.05, 0.95)));
  ProbabilityEngine engine(&mgr);
  for (int trial = 0; trial < 20; ++trial) {
    const LineageRef lam = RandomFormula(&mgr, &rng, vars, 4);
    EXPECT_NEAR(engine.Probability(lam),
                testing::BruteForceProbability(&mgr, lam), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFormulaTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(Probability, DeepIndependentChainIsLinear) {
  // 60 independent variables AND-ed together: must not trigger Shannon.
  LineageManager mgr;
  LineageRef lam = mgr.True();
  double expected = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double p = 0.9 + 0.001 * i;
    const VarId v = mgr.RegisterVariable(p);
    lam = mgr.And(lam, mgr.Var(v));
    expected *= p;
  }
  ProbabilityEngine engine(&mgr);
  EXPECT_NEAR(engine.Probability(lam), expected, 1e-12);
  EXPECT_EQ(engine.shannon_expansions(), 0u);
}

}  // namespace
}  // namespace tpdb
