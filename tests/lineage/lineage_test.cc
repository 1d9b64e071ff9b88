#include "lineage/lineage.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "lineage/probability.h"
#include "tests/reference/reference.h"

namespace tpdb {

/// Direct access to the probability memo, which only the engine uses.
class LineageManagerTestPeer {
 public:
  static bool Lookup(const LineageManager& m, LineageRef r, double* out) {
    return m.LookupProbability(r, out);
  }
  static bool Store(LineageManager& m, LineageRef r, double p,
                    uint64_t epoch) {
    return m.StoreProbability(r, p, epoch);
  }
  /// Ids of every node whose probability the memo holds.
  static std::vector<uint32_t> MemoizedIds(const LineageManager& m) {
    std::vector<uint32_t> ids;
    double p = 0.0;
    for (uint32_t id = 0; id < m.num_nodes(); ++id)
      if (m.LookupProbability(LineageRef{id}, &p)) ids.push_back(id);
    return ids;
  }
};

namespace {

class LineageTest : public ::testing::Test {
 protected:
  LineageManager mgr_;
  VarId a_ = mgr_.RegisterVariable(0.7, "a");
  VarId b_ = mgr_.RegisterVariable(0.6, "b");
  VarId c_ = mgr_.RegisterVariable(0.9, "c");
};

TEST_F(LineageTest, VariableRegistry) {
  EXPECT_EQ(mgr_.num_variables(), 3u);
  EXPECT_DOUBLE_EQ(mgr_.VariableProbability(a_), 0.7);
  EXPECT_EQ(mgr_.VariableName(b_), "b");
  ASSERT_TRUE(mgr_.FindVariable("c").ok());
  EXPECT_EQ(*mgr_.FindVariable("c"), c_);
  EXPECT_FALSE(mgr_.FindVariable("nope").ok());
}

TEST_F(LineageTest, AutoNamedVariables) {
  LineageManager m;
  const VarId v = m.RegisterVariable(0.5);
  EXPECT_EQ(m.VariableName(v), "x0");
}

TEST_F(LineageTest, HashConsingGivesEqualIds) {
  const LineageRef x = mgr_.And(mgr_.Var(a_), mgr_.Var(b_));
  const LineageRef y = mgr_.And(mgr_.Var(b_), mgr_.Var(a_));  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(mgr_.Var(a_), mgr_.Var(a_));
}

TEST_F(LineageTest, ConstantSimplification) {
  const LineageRef va = mgr_.Var(a_);
  EXPECT_EQ(mgr_.And(va, mgr_.True()), va);
  EXPECT_EQ(mgr_.And(va, mgr_.False()), mgr_.False());
  EXPECT_EQ(mgr_.Or(va, mgr_.False()), va);
  EXPECT_EQ(mgr_.Or(va, mgr_.True()), mgr_.True());
}

TEST_F(LineageTest, Idempotence) {
  const LineageRef va = mgr_.Var(a_);
  EXPECT_EQ(mgr_.And(va, va), va);
  EXPECT_EQ(mgr_.Or(va, va), va);
}

TEST_F(LineageTest, DoubleNegation) {
  const LineageRef va = mgr_.Var(a_);
  EXPECT_EQ(mgr_.Not(mgr_.Not(va)), va);
  EXPECT_EQ(mgr_.Not(mgr_.True()), mgr_.False());
  EXPECT_EQ(mgr_.Not(mgr_.False()), mgr_.True());
}

TEST_F(LineageTest, OrAllIsOrderInsensitive) {
  const std::vector<LineageRef> fwd = {mgr_.Var(a_), mgr_.Var(b_),
                                       mgr_.Var(c_)};
  const std::vector<LineageRef> rev = {mgr_.Var(c_), mgr_.Var(b_),
                                       mgr_.Var(a_)};
  EXPECT_EQ(mgr_.OrAll(fwd), mgr_.OrAll(rev));
  const std::vector<LineageRef> dup = {mgr_.Var(a_), mgr_.Var(a_)};
  EXPECT_EQ(mgr_.OrAll(dup), mgr_.Var(a_));
}

TEST_F(LineageTest, EmptyAggregatesAreIdentities) {
  EXPECT_EQ(mgr_.OrAll({}), mgr_.False());
  EXPECT_EQ(mgr_.AndAll({}), mgr_.True());
}

TEST_F(LineageTest, AndNotBuildsNegation) {
  const LineageRef lam =
      mgr_.AndNot(mgr_.Var(a_), mgr_.Or(mgr_.Var(b_), mgr_.Var(c_)));
  EXPECT_EQ(mgr_.KindOf(lam), LineageKind::kAnd);
  // a ∧ ¬(b ∨ c) evaluates correctly.
  std::vector<bool> world(3, false);
  world[a_] = true;
  EXPECT_TRUE(mgr_.Evaluate(lam, world));
  world[b_] = true;
  EXPECT_FALSE(mgr_.Evaluate(lam, world));
}

TEST_F(LineageTest, VariablesAreSortedDistinct) {
  const LineageRef lam = mgr_.And(
      mgr_.Or(mgr_.Var(c_), mgr_.Var(a_)), mgr_.Not(mgr_.Var(b_)));
  EXPECT_EQ(mgr_.Variables(lam), (std::vector<VarId>{a_, b_, c_}));
  EXPECT_TRUE(mgr_.Variables(mgr_.True()).empty());
}

TEST_F(LineageTest, EvaluateAllKinds) {
  std::vector<bool> world = {true, false, true};  // a, b, c
  EXPECT_TRUE(mgr_.Evaluate(mgr_.True(), world));
  EXPECT_FALSE(mgr_.Evaluate(mgr_.False(), world));
  EXPECT_TRUE(mgr_.Evaluate(mgr_.Var(a_), world));
  EXPECT_FALSE(mgr_.Evaluate(mgr_.Var(b_), world));
  EXPECT_TRUE(mgr_.Evaluate(mgr_.Not(mgr_.Var(b_)), world));
  EXPECT_TRUE(
      mgr_.Evaluate(mgr_.And(mgr_.Var(a_), mgr_.Var(c_)), world));
  EXPECT_TRUE(mgr_.Evaluate(mgr_.Or(mgr_.Var(b_), mgr_.Var(c_)), world));
  EXPECT_FALSE(
      mgr_.Evaluate(mgr_.And(mgr_.Var(a_), mgr_.Var(b_)), world));
}

TEST_F(LineageTest, RestrictSubstitutesAndSimplifies) {
  const LineageRef lam = mgr_.And(mgr_.Var(a_), mgr_.Var(b_));
  EXPECT_EQ(mgr_.Restrict(lam, a_, true), mgr_.Var(b_));
  EXPECT_EQ(mgr_.Restrict(lam, a_, false), mgr_.False());
  EXPECT_EQ(mgr_.Restrict(lam, c_, true), lam);  // c not present
}

TEST_F(LineageTest, RestrictSharedSubformula) {
  // (a ∨ b) ∧ (a ∨ c): restricting a=true collapses to True.
  const LineageRef lam = mgr_.And(mgr_.Or(mgr_.Var(a_), mgr_.Var(b_)),
                                  mgr_.Or(mgr_.Var(a_), mgr_.Var(c_)));
  EXPECT_EQ(mgr_.Restrict(lam, a_, true), mgr_.True());
  EXPECT_EQ(mgr_.Restrict(lam, a_, false),
            mgr_.And(mgr_.Var(b_), mgr_.Var(c_)));
}

TEST_F(LineageTest, EquivalentDetectsDeMorgan) {
  const LineageRef lhs = mgr_.Not(mgr_.Or(mgr_.Var(a_), mgr_.Var(b_)));
  const LineageRef rhs =
      mgr_.And(mgr_.Not(mgr_.Var(a_)), mgr_.Not(mgr_.Var(b_)));
  EXPECT_NE(lhs, rhs);  // syntactically different
  EXPECT_TRUE(mgr_.Equivalent(lhs, rhs));
  EXPECT_FALSE(mgr_.Equivalent(lhs, mgr_.Var(a_)));
}

TEST_F(LineageTest, EquivalentAbsorption) {
  // a ∨ (a ∧ b) ≡ a.
  const LineageRef lhs =
      mgr_.Or(mgr_.Var(a_), mgr_.And(mgr_.Var(a_), mgr_.Var(b_)));
  EXPECT_TRUE(mgr_.Equivalent(lhs, mgr_.Var(a_)));
}

TEST_F(LineageTest, NodeCountGrowsOnlyForNewStructure) {
  const size_t before = mgr_.num_nodes();
  const LineageRef x = mgr_.And(mgr_.Var(a_), mgr_.Var(b_));
  const size_t mid = mgr_.num_nodes();
  const LineageRef y = mgr_.And(mgr_.Var(b_), mgr_.Var(a_));
  EXPECT_EQ(x, y);
  EXPECT_EQ(mgr_.num_nodes(), mid);
  EXPECT_GT(mid, before);
}

TEST_F(LineageTest, SetVariableProbabilityInvalidatesNothingStructural) {
  const LineageRef lam = mgr_.Var(a_);
  mgr_.SetVariableProbability(a_, 0.25);
  EXPECT_DOUBLE_EQ(mgr_.VariableProbability(a_), 0.25);
  EXPECT_EQ(mgr_.Var(a_), lam);  // same node
}

TEST_F(LineageTest, InspectionAccessors) {
  const LineageRef lam = mgr_.And(mgr_.Var(a_), mgr_.Var(b_));
  EXPECT_EQ(mgr_.KindOf(lam), LineageKind::kAnd);
  // Children are canonically ordered by node id (argument evaluation order
  // is unspecified), so inspect them as a set.
  const VarId left = mgr_.VarOf(mgr_.Left(lam));
  const VarId right = mgr_.VarOf(mgr_.Right(lam));
  EXPECT_TRUE((left == a_ && right == b_) || (left == b_ && right == a_));
  const LineageRef neg = mgr_.Not(lam);
  EXPECT_EQ(mgr_.KindOf(neg), LineageKind::kNot);
  EXPECT_EQ(mgr_.Left(neg), lam);
}

// -- Hash-cons index and probability memo ------------------------------

using Peer = LineageManagerTestPeer;

TEST(LineageConcurrencyTest, IndexKeepsIdsAcrossManyDoublings) {
  LineageManager m;
  constexpr VarId kVars = 640;  // 640 Var + 204 480 And nodes
  std::vector<LineageRef> vars;
  for (VarId v = 0; v < kVars; ++v) {
    m.RegisterVariable(0.5);
    vars.push_back(m.Var(v));
  }
  std::vector<LineageRef> ands;
  for (VarId i = 0; i < kVars; ++i) {
    for (VarId j = i + 1; j < kVars; ++j) {
      const size_t next = m.num_nodes();
      ands.push_back(m.And(vars[i], vars[j]));
      // Ids are handed out densely in interning order.
      ASSERT_EQ(ands.back().id, next);
    }
  }
  ASSERT_GE(m.num_nodes(), 200000u);
  const size_t total = m.num_nodes();
  size_t k = 0;
  for (VarId i = 0; i < kVars; ++i) {
    ASSERT_EQ(m.Var(i), vars[i]);
    for (VarId j = i + 1; j < kVars; ++j, ++k)
      ASSERT_EQ(m.And(vars[j], vars[i]), ands[k]);
  }
  EXPECT_EQ(m.num_nodes(), total);
  EXPECT_EQ(m.KindOf(ands.back()), LineageKind::kAnd);
}

TEST(LineageConcurrencyTest, StoreUnderStaleEpochIsDropped) {
  LineageManager m;
  const VarId v = m.RegisterVariable(0.5);
  const LineageRef x = m.Var(v);
  const uint64_t stale = m.probability_epoch();
  m.SetVariableProbability(v, 0.25);
  ASSERT_NE(m.probability_epoch(), stale);
  double p = 0.0;
  EXPECT_FALSE(Peer::Store(m, x, 0.5, stale));
  EXPECT_FALSE(Peer::Lookup(m, x, &p));

  const uint64_t now = m.probability_epoch();
  EXPECT_TRUE(Peer::Store(m, x, 0.25, now));
  EXPECT_FALSE(Peer::Store(m, x, 0.75, now));  // the first value stays
  ASSERT_TRUE(Peer::Lookup(m, x, &p));
  EXPECT_EQ(p, 0.25);
}

TEST(LineageConcurrencyTest, CutOffEvaluationErasesOnlyItsOwnEntries) {
  LineageManager m;
  std::vector<LineageRef> v;
  for (int i = 0; i < 6; ++i) v.push_back(m.Var(m.RegisterVariable(0.3)));
  // Memoized before the cut-off evaluation runs: it must survive.
  const LineageRef known = m.Or(v[0], v[1]);
  ProbabilityEngine(&m).Probability(known);
  // Decomposes, so the budgeted engine stores it (and v[2], v[3]) before
  // reaching `tangled`, whose children share v[5].
  const LineageRef free = m.And(v[2], v[3]);
  const LineageRef tangled =
      m.And(known, m.And(m.Or(v[4], v[5]), m.Or(v[5], v[0])));
  const LineageRef whole = m.Or(free, tangled);

  const std::vector<uint32_t> before = Peer::MemoizedIds(m);
  ASSERT_FALSE(ProbabilityEngine(&m, 0).TryProbability(whole).has_value());
  EXPECT_EQ(Peer::MemoizedIds(m), before);
  double p = 0.0;
  EXPECT_TRUE(Peer::Lookup(m, known, &p));
  EXPECT_FALSE(Peer::Lookup(m, free, &p));

  // Unbudgeted, the same evaluation does fill the memo.
  ProbabilityEngine(&m).Probability(whole);
  EXPECT_TRUE(Peer::Lookup(m, free, &p));
  EXPECT_GT(Peer::MemoizedIds(m).size(), before.size());
}

TEST(LineageConcurrencyTest, SetVariableProbabilityMissesEveryEarlierValue) {
  LineageManager m;
  std::vector<LineageRef> v;
  for (int i = 0; i < 5; ++i)
    v.push_back(m.Var(m.RegisterVariable(0.2 + 0.1 * i)));
  const std::vector<LineageRef> formulas = {
      m.Or(m.And(v[0], v[1]), m.And(v[1], v[2])),
      m.AndNot(m.OrAll(v), m.And(v[3], v[4])),
      m.Not(m.Or(v[2], v[4]))};
  {
    ProbabilityEngine engine(&m);
    for (const LineageRef f : formulas) engine.Probability(f);
  }
  ASSERT_FALSE(Peer::MemoizedIds(m).empty());
  m.SetVariableProbability(1, 0.95);
  EXPECT_TRUE(Peer::MemoizedIds(m).empty());
  ProbabilityEngine engine(&m);
  for (const LineageRef f : formulas)
    EXPECT_NEAR(engine.Probability(f), testing::BruteForceProbability(&m, f),
                1e-12);
}

TEST(LineageConcurrencyTest, GrowingIndexRacesMemoReaders) {
  LineageManager m;
  constexpr VarId kFormulaVars = 10;
  constexpr VarId kPairVars = 200;  // 19 900 Or nodes, several doublings
  std::vector<LineageRef> v;
  for (VarId i = 0; i < kFormulaVars + kPairVars; ++i)
    v.push_back(m.Var(m.RegisterVariable(0.05 + 0.9 * (i % 7) / 6.0)));

  // Formulas over shared variables, so evaluation expands and interns
  // cofactors through Restrict while the index grows under it.
  std::vector<LineageRef> formulas;
  for (VarId i = 0; i + 2 < kFormulaVars; ++i) {
    formulas.push_back(m.Or(m.And(v[i], v[i + 1]), m.And(v[i + 1], v[i + 2])));
    formulas.push_back(m.AndNot(m.Or(v[i], v[i + 2]), m.And(v[i], v[i + 1])));
  }
  std::vector<double> expected;
  for (const LineageRef f : formulas)
    expected.push_back(testing::BruteForceProbability(&m, f));

  // Two interning threads walk the same pairs in opposite directions, so
  // they race on every node; the newest id is handed to the readers.
  std::vector<std::pair<VarId, VarId>> pairs;
  for (VarId i = 0; i < kPairVars; ++i)
    for (VarId j = i + 1; j < kPairVars; ++j)
      pairs.emplace_back(kFormulaVars + i, kFormulaVars + j);
  std::vector<std::vector<LineageRef>> ids(2,
                                           std::vector<LineageRef>(pairs.size()));
  std::atomic<uint32_t> newest{m.True().id};
  std::atomic<int> interners_left{2};
  auto intern = [&](int t) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      const size_t at = t == 0 ? k : pairs.size() - 1 - k;
      const LineageRef r = m.Or(v[pairs[at].first], v[pairs[at].second]);
      ids[t][at] = r;
      newest.store(r.id, std::memory_order_release);
    }
    interners_left.fetch_sub(1);
  };
  std::atomic<int> mismatches{0};
  auto evaluate = [&] {
    do {
      ProbabilityEngine engine(&m);
      for (size_t f = 0; f < formulas.size(); ++f)
        if (std::abs(engine.Probability(formulas[f]) - expected[f]) > 1e-12)
          mismatches.fetch_add(1);
      const LineageRef r{newest.load(std::memory_order_acquire)};
      const double p = engine.Probability(r);
      if (m.KindOf(r) == LineageKind::kOr) {
        const double pl = m.VariableProbability(m.VarOf(m.Left(r)));
        const double pr = m.VariableProbability(m.VarOf(m.Right(r)));
        if (p != 1.0 - (1.0 - pl) * (1.0 - pr)) mismatches.fetch_add(1);
      }
    } while (interners_left.load() > 0);
  };
  std::vector<std::thread> threads;
  threads.emplace_back(intern, 0);
  threads.emplace_back(intern, 1);
  threads.emplace_back(evaluate);
  threads.emplace_back(evaluate);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ids[0], ids[1]);
  const size_t total = m.num_nodes();
  for (size_t k = 0; k < pairs.size(); ++k)
    ASSERT_EQ(m.Or(v[pairs[k].second], v[pairs[k].first]), ids[0][k]);
  EXPECT_EQ(m.num_nodes(), total);
}

}  // namespace
}  // namespace tpdb
