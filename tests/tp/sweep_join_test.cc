// Sweep-line join (OverlapAlgorithm::kSweep) correctness: element-wise
// parity with the partitioned probe and the nested loop on every join
// kind, plus the adversarial interval shapes a sweep must survive —
// all-overlapping inputs, duration-1 intervals, boundary-touching (Meets)
// intervals, null keys, empty sides, and predicate-only θ (the shape the
// hash-based plans degenerate on). Those shape cases do not depend on the
// algorithm, so they run over every one, kAuto included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.h"
#include "datasets/generator.h"
#include "lineage/probability.h"
#include "tp/operators.h"
#include "tp/plans.h"
#include "tp/tp_relation.h"

namespace tpdb {
namespace {

constexpr TPJoinKind kAllKinds[] = {
    TPJoinKind::kInner,      TPJoinKind::kAnti,      TPJoinKind::kLeftOuter,
    TPJoinKind::kRightOuter, TPJoinKind::kFullOuter, TPJoinKind::kSemi};

struct CanonicalTuple {
  Row fact;
  Interval interval;
  double probability;
};

std::vector<CanonicalTuple> Canonicalize(const TPRelation& rel) {
  ProbabilityEngine engine(rel.manager());
  std::vector<CanonicalTuple> out;
  out.reserve(rel.size());
  for (const TPTuple& t : rel.tuples())
    out.push_back(
        CanonicalTuple{t.fact, t.interval, engine.Probability(t.lineage)});
  std::sort(out.begin(), out.end(),
            [](const CanonicalTuple& a, const CanonicalTuple& b) {
              const int c = CompareRows(a.fact, b.fact);
              if (c != 0) return c < 0;
              if (a.interval != b.interval) return a.interval < b.interval;
              return a.probability < b.probability;
            });
  return out;
}

/// Element-wise comparison after canonical sorting — values, intervals,
/// and exact probabilities must all agree.
void ExpectSameContents(const TPRelation& expected_rel,
                        const TPRelation& actual_rel) {
  ASSERT_EQ(expected_rel.size(), actual_rel.size());
  const std::vector<CanonicalTuple> expected = Canonicalize(expected_rel);
  const std::vector<CanonicalTuple> actual = Canonicalize(actual_rel);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(CompareRows(expected[i].fact, actual[i].fact), 0)
        << "fact mismatch at " << i;
    EXPECT_EQ(expected[i].interval, actual[i].interval)
        << "interval mismatch at " << i;
    EXPECT_NEAR(expected[i].probability, actual[i].probability, 1e-9)
        << "probability mismatch at " << i;
  }
}

TPJoinOptions WithAlgorithm(OverlapAlgorithm algorithm) {
  TPJoinOptions options;
  options.overlap_algorithm = algorithm;
  return options;
}

/// Every algorithm (kAuto included) against the nested loop on one
/// (r, s, θ) for every kind.
void ExpectAlgorithmParity(const TPRelation& r, const TPRelation& s,
                           const JoinCondition& theta) {
  for (const TPJoinKind kind : kAllKinds) {
    SCOPED_TRACE(TPJoinKindName(kind));
    StatusOr<TPRelation> loop = TPJoin(
        kind, r, s, theta, WithAlgorithm(OverlapAlgorithm::kNestedLoop));
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    for (const OverlapAlgorithm algorithm :
         {OverlapAlgorithm::kPartitioned, OverlapAlgorithm::kSweep,
          OverlapAlgorithm::kAuto}) {
      SCOPED_TRACE(OverlapAlgorithmName(algorithm));
      StatusOr<TPRelation> run =
          TPJoin(kind, r, s, theta, WithAlgorithm(algorithm));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectSameContents(*loop, *run);
      EXPECT_TRUE(run->Validate().ok());
    }
  }
}

struct Workload {
  LineageManager manager;
  std::unique_ptr<TPRelation> r;
  std::unique_ptr<TPRelation> s;
};

std::unique_ptr<Workload> MakeWorkload(uint64_t seed, int64_t tuples,
                                       double fact_skew = 0.0) {
  auto w = std::make_unique<Workload>();
  Random rng(seed);
  UniformWorkloadOptions options;
  options.num_tuples = tuples;
  options.num_facts = std::max<int64_t>(tuples / 8, 4);
  options.history_length = 4000;
  options.avg_duration = 40.0;
  options.gap_probability = 0.3;
  options.fact_skew = fact_skew;
  StatusOr<TPRelation> r = MakeUniformWorkload(&w->manager, "r", options, &rng);
  TPDB_CHECK(r.ok()) << r.status().ToString();
  StatusOr<TPRelation> s = MakeUniformWorkload(&w->manager, "s", options, &rng);
  TPDB_CHECK(s.ok()) << s.status().ToString();
  w->r = std::make_unique<TPRelation>(std::move(*r));
  w->s = std::make_unique<TPRelation>(std::move(*s));
  return w;
}

/// Two-column fact schema (key, id) so distinct facts can share one key.
Schema KeyIdSchema() {
  Schema schema;
  schema.AddColumn({"key", DatumType::kInt64});
  schema.AddColumn({"id", DatumType::kInt64});
  return schema;
}

TEST(SweepJoinTest, MatchesOtherAlgorithmsOnUniformWorkload) {
  const std::unique_ptr<Workload> w = MakeWorkload(42, 600);
  ExpectAlgorithmParity(*w->r, *w->s, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, MatchesOtherAlgorithmsUnderHeavyKeySkew) {
  const std::unique_ptr<Workload> w = MakeWorkload(17, 600, /*fact_skew=*/1.4);
  ExpectAlgorithmParity(*w->r, *w->s, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, WindowStreamMatchesPartitionedPlan) {
  const std::unique_ptr<Workload> w = MakeWorkload(5, 300);
  const JoinCondition theta = JoinCondition::Equals("key");
  StatusOr<std::vector<TPWindow>> sweep = ComputeWindows(
      *w->r, *w->s, theta, WindowStage::kWuon, OverlapAlgorithm::kSweep);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  StatusOr<std::vector<TPWindow>> probe = ComputeWindows(
      *w->r, *w->s, theta, WindowStage::kWuon, OverlapAlgorithm::kPartitioned);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  SortWindows(&*sweep);
  SortWindows(&*probe);
  ASSERT_EQ(sweep->size(), probe->size());
  for (size_t i = 0; i < sweep->size(); ++i) {
    EXPECT_EQ((*sweep)[i].rid, (*probe)[i].rid) << "window " << i;
    EXPECT_EQ((*sweep)[i].cls, (*probe)[i].cls) << "window " << i;
    EXPECT_EQ((*sweep)[i].window, (*probe)[i].window) << "window " << i;
    EXPECT_EQ((*sweep)[i].r_interval, (*probe)[i].r_interval)
        << "window " << i;
  }
}

TEST(SweepJoinTest, AllOverlappingOneKey) {
  // Every tuple shares the key and every interval overlaps every other —
  // the shape where one active set holds everything at once.
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(r.AppendBase({Datum(int64_t{1}), Datum(i)},
                             Interval(i, 100 + i), 0.5 + 0.01 * i)
                    .ok());
    ASSERT_TRUE(s.AppendBase({Datum(int64_t{1}), Datum(i + 100)},
                             Interval(50 - i, 150), 0.9)
                    .ok());
  }
  ExpectAlgorithmParity(r, s, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, DurationOneAndBoundaryTouchingIntervals) {
  // Duration-1 intervals stress the te <= t expiry rule; Meets pairs
  // ([a,b) vs [b,c)) must never match — half-open intervals do not
  // overlap at the shared endpoint.
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 20; ++i) {
    // r: duration-1 intervals marching along the timeline.
    ASSERT_TRUE(r.AppendBase({Datum(int64_t{7}), Datum(i)},
                             Interval(i * 2, i * 2 + 1), 0.8)
                    .ok());
    // s: adjacent decade blocks [10i, 10i+10) — some meet r starts exactly.
    ASSERT_TRUE(s.AppendBase({Datum(int64_t{7}), Datum(i + 100)},
                             Interval(i * 10, i * 10 + 10), 0.6)
                    .ok());
  }
  ExpectAlgorithmParity(r, s, JoinCondition::Equals("key"));

  // The pure Meets shape: r ends exactly where s starts — no overlap, so
  // an inner join is empty and a left outer join is all-unmatched.
  TPRelation r2("r2", KeyIdSchema(), &manager);
  TPRelation s2("s2", KeyIdSchema(), &manager);
  ASSERT_TRUE(
      r2.AppendBase({Datum(int64_t{1}), Datum(int64_t{0})}, {0, 10}, 0.5)
          .ok());
  ASSERT_TRUE(
      s2.AppendBase({Datum(int64_t{1}), Datum(int64_t{1})}, {10, 20}, 0.5)
          .ok());
  for (const OverlapAlgorithm algorithm :
       {OverlapAlgorithm::kPartitioned, OverlapAlgorithm::kNestedLoop,
        OverlapAlgorithm::kSweep, OverlapAlgorithm::kAuto}) {
    SCOPED_TRACE(OverlapAlgorithmName(algorithm));
    StatusOr<TPRelation> inner =
        TPJoin(TPJoinKind::kInner, r2, s2, JoinCondition::Equals("key"),
               WithAlgorithm(algorithm));
    ASSERT_TRUE(inner.ok());
    EXPECT_EQ(inner->size(), 0u);
    StatusOr<TPRelation> left =
        TPJoin(TPJoinKind::kLeftOuter, r2, s2, JoinCondition::Equals("key"),
               WithAlgorithm(algorithm));
    ASSERT_TRUE(left.ok());
    ASSERT_EQ(left->size(), 1u);
    EXPECT_EQ(left->tuple(0).interval, Interval(0, 10));
  }
  ExpectAlgorithmParity(r2, s2, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, NullKeysNeverMatchButStillFlowUnmatched) {
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 12; ++i) {
    const Datum key = i % 3 == 0 ? Datum() : Datum(i % 4);
    ASSERT_TRUE(
        r.AppendBase({key, Datum(i)}, Interval(i * 3, i * 3 + 30), 0.7).ok());
    ASSERT_TRUE(s.AppendBase({key, Datum(i + 100)},
                             Interval(i * 4, i * 4 + 25), 0.55)
                    .ok());
  }
  ExpectAlgorithmParity(r, s, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, EmptySides) {
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  TPRelation empty_r("er", KeyIdSchema(), &manager);
  TPRelation empty_s("es", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        r.AppendBase({Datum(i % 2), Datum(i)}, Interval(i, i + 10), 0.5).ok());
    ASSERT_TRUE(s.AppendBase({Datum(i % 2), Datum(i + 50)},
                             Interval(i + 5, i + 12), 0.5)
                    .ok());
  }
  ExpectAlgorithmParity(r, empty_s, JoinCondition::Equals("key"));
  ExpectAlgorithmParity(empty_r, s, JoinCondition::Equals("key"));
  ExpectAlgorithmParity(empty_r, empty_s, JoinCondition::Equals("key"));
}

TEST(SweepJoinTest, PredicateOnlyThetaTakesSaneSweepPath) {
  // θ with no equality columns but a real predicate: the hash-based plans
  // see one degenerate partition; the sweep's single active set is bounded
  // by temporal overlap. Results must match the nested loop exactly.
  const std::unique_ptr<Workload> w = MakeWorkload(11, 200);
  JoinCondition theta;
  theta.predicate = [](const Row& r_fact, const Row& s_fact) {
    return r_fact[0].AsInt64() % 5 == s_fact[0].AsInt64() % 5;
  };
  EXPECT_FALSE(theta.IsTrivial());
  ExpectAlgorithmParity(*w->r, *w->s, theta);

  // kAuto counts |r|·|s| candidates for a θ without equi-keys, so it
  // routes this shape to the sweep (the parity above covered its result).
  EXPECT_EQ(ChooseOverlapAlgorithm(OverlapAlgorithm::kAuto, *w->r, *w->s,
                                   theta),
            OverlapAlgorithm::kSweep);
}

TEST(SweepJoinTest, SortednessFlagTracksAppendsAndAbsorb) {
  LineageManager manager;
  TPRelation rel("r", KeyIdSchema(), &manager);
  EXPECT_TRUE(rel.sorted_by_ts());  // vacuously true while empty
  ASSERT_TRUE(rel.AppendBase({Datum(int64_t{1}), Datum(int64_t{0})}, {0, 10},
                             0.5)
                  .ok());
  ASSERT_TRUE(rel.AppendBase({Datum(int64_t{1}), Datum(int64_t{1})}, {5, 15},
                             0.5)
                  .ok());
  ASSERT_TRUE(rel.AppendBase({Datum(int64_t{1}), Datum(int64_t{2})}, {5, 20},
                             0.5)
                  .ok());
  EXPECT_TRUE(rel.sorted_by_ts());  // equal starts stay sorted

  TPRelation unsorted("u", KeyIdSchema(), &manager);
  ASSERT_TRUE(unsorted
                  .AppendBase({Datum(int64_t{2}), Datum(int64_t{0})}, {50, 60},
                              0.5)
                  .ok());
  ASSERT_TRUE(unsorted
                  .AppendBase({Datum(int64_t{2}), Datum(int64_t{1})}, {10, 20},
                              0.5)
                  .ok());
  EXPECT_FALSE(unsorted.sorted_by_ts());

  // Absorbing a sorted suffix whose first start is past our last keeps the
  // flag; absorbing an unsorted relation clears it.
  TPRelation tail("t", KeyIdSchema(), &manager);
  ASSERT_TRUE(
      tail.AppendBase({Datum(int64_t{3}), Datum(int64_t{0})}, {30, 40}, 0.5)
          .ok());
  ASSERT_TRUE(rel.Absorb(std::move(tail)).ok());
  EXPECT_TRUE(rel.sorted_by_ts());
  ASSERT_TRUE(rel.Absorb(std::move(unsorted)).ok());
  EXPECT_FALSE(rel.sorted_by_ts());
}

TEST(SweepJoinTest, SortedInputsSkipTheSortAndStayCorrect) {
  // Generator output is not _ts-ordered; re-append in _ts order so the
  // relation carries the sortedness flag, then verify the hint-driven
  // sort-skip produces identical results.
  const std::unique_ptr<Workload> w = MakeWorkload(23, 300);
  std::vector<const TPTuple*> ordered;
  for (const TPTuple& t : w->r->tuples()) ordered.push_back(&t);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TPTuple* a, const TPTuple* b) {
                     return a->interval.start < b->interval.start;
                   });
  TPRelation sorted_r("rs", w->r->fact_schema(), w->r->manager());
  for (const TPTuple* t : ordered) {
    ASSERT_TRUE(
        sorted_r.AppendDerived(t->fact, t->interval, t->lineage).ok());
  }
  ASSERT_TRUE(sorted_r.sorted_by_ts());
  ASSERT_FALSE(w->r->sorted_by_ts());

  const JoinCondition theta = JoinCondition::Equals("key");
  StatusOr<TPRelation> from_sorted =
      TPJoin(TPJoinKind::kLeftOuter, sorted_r, *w->s, theta,
             WithAlgorithm(OverlapAlgorithm::kSweep));
  ASSERT_TRUE(from_sorted.ok()) << from_sorted.status().ToString();
  StatusOr<TPRelation> from_unsorted =
      TPJoin(TPJoinKind::kLeftOuter, *w->r, *w->s, theta,
             WithAlgorithm(OverlapAlgorithm::kSweep));
  ASSERT_TRUE(from_unsorted.ok());
  ExpectSameContents(*from_unsorted, *from_sorted);
}

}  // namespace
}  // namespace tpdb
