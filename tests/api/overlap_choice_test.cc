// kAuto's data rule for the overlap join (ChooseOverlapAlgorithm in
// tp/overlap_join.h): the choice per input shape, where Explain shows it,
// and that whatever it picks returns the same tuples in the same order as
// every forced algorithm — for the six join kinds, the three set
// operations, and the parallel drivers under key skew.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "datasets/meteo.h"
#include "datasets/webkit.h"
#include "exec/parallel.h"
#include "exec/session.h"
#include "exec/thread_pool.h"
#include "tp/operators.h"
#include "tp/plans.h"
#include "tp/set_ops.h"

namespace tpdb {
namespace {

constexpr TPJoinKind kAllKinds[] = {
    TPJoinKind::kInner,      TPJoinKind::kAnti,      TPJoinKind::kLeftOuter,
    TPJoinKind::kRightOuter, TPJoinKind::kFullOuter, TPJoinKind::kSemi};
constexpr TPSetOpKind kAllSetOps[] = {
    TPSetOpKind::kUnion, TPSetOpKind::kIntersect, TPSetOpKind::kDifference};
constexpr OverlapAlgorithm kForced[] = {OverlapAlgorithm::kPartitioned,
                                        OverlapAlgorithm::kNestedLoop,
                                        OverlapAlgorithm::kSweep};

/// Same tuples in the same order: facts, intervals, exact probabilities.
void ExpectIdentical(const TPRelation& expected, const TPRelation& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(CompareRows(expected.tuple(i).fact, actual.tuple(i).fact), 0)
        << "fact mismatch at tuple " << i;
    ASSERT_EQ(expected.tuple(i).interval, actual.tuple(i).interval)
        << "interval mismatch at tuple " << i;
    ASSERT_EQ(expected.Probability(i), actual.Probability(i))
        << "probability mismatch at tuple " << i;
  }
}

struct Pair {
  std::unique_ptr<TPRelation> r;
  std::unique_ptr<TPRelation> s;
};

/// Two uniform-generator relations over `tuples / 8` keys, allocated to
/// keys with Zipf skew `zipf` (0 = uniform).
Pair MakeKeyed(LineageManager* manager, int64_t tuples, double zipf,
               uint64_t seed) {
  Random rng(seed);
  UniformWorkloadOptions options;
  options.num_tuples = tuples;
  options.num_facts = std::max<int64_t>(tuples / 8, 4);
  options.history_length = 4000;
  options.avg_duration = 40.0;
  options.fact_skew = zipf;
  StatusOr<TPRelation> r = MakeUniformWorkload(manager, "r", options, &rng);
  TPDB_CHECK(r.ok()) << r.status().ToString();
  StatusOr<TPRelation> s = MakeUniformWorkload(manager, "s", options, &rng);
  TPDB_CHECK(s.ok()) << s.status().ToString();
  return Pair{std::make_unique<TPRelation>(std::move(*r)),
              std::make_unique<TPRelation>(std::move(*s))};
}

/// Fact schema (key, id), so many distinct facts can share one key.
Schema KeyIdSchema() {
  return Schema({{"key", DatumType::kInt64}, {"id", DatumType::kInt64}});
}

/// `n` tuples on one key, pairwise overlapping: the hottest possible key.
void FillHotKey(TPRelation* rel, int64_t n, int64_t id_base) {
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(rel->AppendBase({Datum(int64_t{1}), Datum(id_base + i)},
                                Interval(i, 1000 + i), 0.5)
                    .ok());
  }
}

OverlapAlgorithm Auto(const TPRelation& r, const TPRelation& s,
                      const JoinCondition& theta) {
  return ChooseOverlapAlgorithm(OverlapAlgorithm::kAuto, r, s, theta);
}

TEST(PhysicalPlanOverlapChoiceTest, SpreadKeysKeepTheProbeAndHotKeysSweep) {
  LineageManager manager;
  const JoinCondition theta = JoinCondition::Equals("key");
  // Uniform: ~8 tuples per key and side, Σ|r_k|·|s_k| / (|r|+|s|) ≈ 4.
  const Pair uniform = MakeKeyed(&manager, 8000, 0.0, 1234);
  const double uniform_pairs =
      OverlapCandidatesPerRow(*uniform.r, *uniform.s, theta);
  EXPECT_GT(uniform_pairs, 3.0);
  EXPECT_LT(uniform_pairs, 5.0);
  EXPECT_EQ(Auto(*uniform.r, *uniform.s, theta),
            OverlapAlgorithm::kPartitioned);
  // Zipf 0.8 (~29 candidates per row) and 2.0 (~1100) cross the bound.
  const Pair zipf08 = MakeKeyed(&manager, 8000, 0.8, 5678);
  EXPECT_GT(OverlapCandidatesPerRow(*zipf08.r, *zipf08.s, theta), 16.0);
  EXPECT_EQ(Auto(*zipf08.r, *zipf08.s, theta), OverlapAlgorithm::kSweep);
  const Pair zipf20 = MakeKeyed(&manager, 8000, 2.0, 5680);
  EXPECT_GT(OverlapCandidatesPerRow(*zipf20.r, *zipf20.s, theta), 500.0);
  EXPECT_EQ(Auto(*zipf20.r, *zipf20.s, theta), OverlapAlgorithm::kSweep);
  // A forced algorithm is never overridden.
  for (const OverlapAlgorithm forced : kForced) {
    EXPECT_EQ(ChooseOverlapAlgorithm(forced, *zipf20.r, *zipf20.s, theta),
              forced);
  }
}

TEST(PhysicalPlanOverlapChoiceTest, PaperDatasetsKeepTheProbe) {
  LineageManager manager;
  WebkitOptions webkit_options;
  webkit_options.num_tuples = 2000;
  StatusOr<WebkitDataset> webkit =
      MakeWebkitDataset(&manager, webkit_options);
  ASSERT_TRUE(webkit.ok());
  EXPECT_LT(OverlapCandidatesPerRow(webkit->r, webkit->s, webkit->theta),
            16.0);
  EXPECT_EQ(Auto(webkit->r, webkit->s, webkit->theta),
            OverlapAlgorithm::kPartitioned);
  MeteoOptions meteo_options;
  meteo_options.num_tuples = 1000;
  StatusOr<MeteoDataset> meteo = MakeMeteoDataset(&manager, meteo_options);
  ASSERT_TRUE(meteo.ok());
  EXPECT_LT(OverlapCandidatesPerRow(meteo->r, meteo->s, meteo->theta), 16.0);
  EXPECT_EQ(Auto(meteo->r, meteo->s, meteo->theta),
            OverlapAlgorithm::kPartitioned);
}

TEST(PhysicalPlanOverlapChoiceTest, ThetaWithoutEquiKeysCountsTheCrossProduct) {
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        r.AppendBase({Datum(i), Datum(i)}, Interval(i, i + 5), 0.5).ok());
    ASSERT_TRUE(
        s.AppendBase({Datum(i), Datum(i)}, Interval(i, i + 5), 0.5).ok());
  }
  // Predicate-only θ: 100·100 / 200 = 50 candidates per row.
  JoinCondition predicate_only;
  predicate_only.predicate = [](const Row& a, const Row& b) {
    return a[0].AsInt64() % 5 == b[0].AsInt64() % 5;
  };
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r, s, predicate_only), 50.0);
  EXPECT_EQ(Auto(r, s, predicate_only), OverlapAlgorithm::kSweep);
  // The trivial θ counts the same way; on 10 + 10 rows that is 5.
  TPRelation r10("r10", KeyIdSchema(), &manager);
  TPRelation s10("s10", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        r10.AppendBase({Datum(i), Datum(i)}, Interval(i, i + 5), 0.5).ok());
    ASSERT_TRUE(
        s10.AppendBase({Datum(i), Datum(i)}, Interval(i, i + 5), 0.5).ok());
  }
  const JoinCondition trivial;
  ASSERT_TRUE(trivial.IsTrivial());
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r10, s10, trivial), 5.0);
  EXPECT_EQ(Auto(r10, s10, trivial), OverlapAlgorithm::kPartitioned);
}

TEST(PhysicalPlanOverlapChoiceTest, NullKeysAreLeftOutOfTheCount) {
  LineageManager manager;
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  // r keys {1, 1, 2, NULL}, s keys {1, 2, 2, 2, NULL, 3}: the groups are
  // 1 (2·1) and 2 (1·3), so 5 pairs over 10 rows.
  const std::vector<Datum> r_keys = {Datum(int64_t{1}), Datum(int64_t{1}),
                                     Datum(int64_t{2}), Datum::Null()};
  const std::vector<Datum> s_keys = {Datum(int64_t{1}), Datum(int64_t{2}),
                                     Datum(int64_t{2}), Datum(int64_t{2}),
                                     Datum::Null(),     Datum(int64_t{3})};
  for (size_t i = 0; i < r_keys.size(); ++i) {
    ASSERT_TRUE(r.AppendBase({r_keys[i], Datum(static_cast<int64_t>(i))},
                             Interval(0, 10), 0.5)
                    .ok());
  }
  for (size_t i = 0; i < s_keys.size(); ++i) {
    ASSERT_TRUE(s.AppendBase({s_keys[i], Datum(static_cast<int64_t>(i))},
                             Interval(0, 10), 0.5)
                    .ok());
  }
  const JoinCondition theta = JoinCondition::Equals("key");
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r, s, theta), 0.5);

  // A hot key made only of NULLs counts nothing.
  TPRelation r_null("rn", KeyIdSchema(), &manager);
  TPRelation s_null("sn", KeyIdSchema(), &manager);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(r_null.AppendBase({Datum::Null(), Datum(i)}, Interval(0, 10),
                                  0.5)
                    .ok());
    ASSERT_TRUE(s_null.AppendBase({Datum::Null(), Datum(i)}, Interval(0, 10),
                                  0.5)
                    .ok());
  }
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r_null, s_null, theta), 0.0);
  EXPECT_EQ(Auto(r_null, s_null, theta), OverlapAlgorithm::kPartitioned);
}

TEST(PhysicalPlanOverlapChoiceTest, TinyInputsKeepTheProbe) {
  LineageManager manager;
  TPRelation empty_r("er", KeyIdSchema(), &manager);
  TPRelation empty_s("es", KeyIdSchema(), &manager);
  TPRelation r("r", KeyIdSchema(), &manager);
  TPRelation s("s", KeyIdSchema(), &manager);
  FillHotKey(&r, 3, 0);
  FillHotKey(&s, 3, 100);
  const JoinCondition theta = JoinCondition::Equals("key");
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(empty_r, empty_s, theta), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r, empty_s, theta), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCandidatesPerRow(r, s, theta), 1.5);
  EXPECT_EQ(Auto(empty_r, empty_s, theta), OverlapAlgorithm::kPartitioned);
  EXPECT_EQ(Auto(r, empty_s, theta), OverlapAlgorithm::kPartitioned);
  EXPECT_EQ(Auto(r, s, theta), OverlapAlgorithm::kPartitioned);
}

TEST(PhysicalPlanOverlapChoiceTest, ExplainNamesTheSweepOnAHotKey) {
  TPDatabase db;
  StatusOr<TPRelation*> r = db.CreateRelation("r", KeyIdSchema());
  StatusOr<TPRelation*> s = db.CreateRelation("s", KeyIdSchema());
  ASSERT_TRUE(r.ok() && s.ok());
  FillHotKey(*r, 120, 0);
  FillHotKey(*s, 120, 1000);
  const std::string sql = "SELECT * FROM r LEFT JOIN s ON key";

  // The plan leaves the choice to run time: no label before execution.
  StatusOr<LogicalPlan> logical = db.Plan(sql);
  ASSERT_TRUE(logical.ok()) << logical.status().ToString();
  StatusOr<PhysicalPlan> lowered = Planner(&db, {}).Lower(*logical);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  EXPECT_EQ(lowered->ToString().find("alg="), std::string::npos)
      << lowered->ToString();

  for (const int parallelism : {1, 4}) {
    SessionOptions options;
    options.parallelism = parallelism;
    options.min_parallel_rows = 64;
    StatusOr<std::string> explain = Session(&db, options).Explain(sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find("Join[left-outer, on key=key, alg=sweep]"),
              std::string::npos)
        << *explain;
  }
}

TEST(PhysicalPlanOverlapChoiceTest, ExplainLabelsNothingOnThePaperDatasets) {
  TPDatabase db;
  WebkitOptions webkit_options;
  webkit_options.num_tuples = 1000;
  StatusOr<WebkitDataset> webkit =
      MakeWebkitDataset(db.manager(), webkit_options);
  ASSERT_TRUE(webkit.ok());
  ASSERT_TRUE(db.Register(std::move(webkit->r)).ok());
  ASSERT_TRUE(db.Register(std::move(webkit->s)).ok());
  MeteoOptions meteo_options;
  meteo_options.num_tuples = 1000;
  StatusOr<MeteoDataset> meteo = MakeMeteoDataset(db.manager(), meteo_options);
  ASSERT_TRUE(meteo.ok());
  ASSERT_TRUE(db.Register(std::move(meteo->r)).ok());
  ASSERT_TRUE(db.Register(std::move(meteo->s)).ok());

  for (const std::string sql :
       {"SELECT * FROM webkit_r FULL JOIN webkit_s ON file",
        "SELECT * FROM meteo_r ANTI JOIN meteo_s ON metric"}) {
    StatusOr<std::string> explain = Session(&db, {}).Explain(sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find("Join["), std::string::npos) << *explain;
    EXPECT_EQ(explain->find("alg="), std::string::npos) << *explain;
  }
}

TEST(PhysicalPlanOverlapChoiceTest, AutoMatchesEveryForcedAlgorithmInOrder) {
  LineageManager manager;
  const JoinCondition theta = JoinCondition::Equals("key");
  const Pair shapes[] = {MakeKeyed(&manager, 400, 0.0, 7),   // probe
                         MakeKeyed(&manager, 400, 2.0, 8)};  // sweep
  ASSERT_EQ(Auto(*shapes[0].r, *shapes[0].s, theta),
            OverlapAlgorithm::kPartitioned);
  ASSERT_EQ(Auto(*shapes[1].r, *shapes[1].s, theta),
            OverlapAlgorithm::kSweep);
  for (const Pair& shape : shapes) {
    for (const TPJoinKind kind : kAllKinds) {
      SCOPED_TRACE(TPJoinKindName(kind));
      StatusOr<TPRelation> chosen = TPJoin(kind, *shape.r, *shape.s, theta);
      ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
      for (const OverlapAlgorithm forced : kForced) {
        SCOPED_TRACE(OverlapAlgorithmName(forced));
        TPJoinOptions options;
        options.overlap_algorithm = forced;
        StatusOr<TPRelation> run =
            TPJoin(kind, *shape.r, *shape.s, theta, options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectIdentical(*run, *chosen);
      }
    }
    // Set operations have no algorithm option; force one through the
    // pipeline entry point, in the serial emit order.
    StatusOr<JoinCondition> set_theta = SetOpCondition(*shape.r, *shape.s);
    ASSERT_TRUE(set_theta.ok());
    for (const TPSetOpKind kind : kAllSetOps) {
      SCOPED_TRACE(TPSetOpKindName(kind));
      StatusOr<TPRelation> chosen = TPSetOp(kind, *shape.r, *shape.s);
      ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
      for (const OverlapAlgorithm forced : kForced) {
        SCOPED_TRACE(OverlapAlgorithmName(forced));
        TPRelation run("run", shape.r->fact_schema(), &manager);
        ASSERT_TRUE(RunSetOpPipeline(kind, /*s_driven=*/false, *shape.r,
                                     *shape.s, forced, &run)
                        .ok());
        if (SetOpHasSDrivenPipeline(kind)) {
          ASSERT_TRUE(RunSetOpPipeline(kind, /*s_driven=*/true, *shape.r,
                                       *shape.s, forced, &run)
                          .ok());
        }
        ExpectIdentical(run, *chosen);
      }
    }
  }
}

TEST(PhysicalPlanOverlapChoiceTest, ParallelMatchesSerialUnderSkew) {
  LineageManager manager;
  const Pair skewed = MakeKeyed(&manager, 800, 2.0, 9);
  const JoinCondition theta = JoinCondition::Equals("key");
  ASSERT_EQ(Auto(*skewed.r, *skewed.s, theta), OverlapAlgorithm::kSweep);
  ThreadPool pool(4);
  ExecOptions exec_options;
  exec_options.parallelism = 4;
  exec_options.min_parallel_rows = 64;
  ExecContext ctx(&pool, exec_options);
  for (const TPJoinKind kind : kAllKinds) {
    SCOPED_TRACE(TPJoinKindName(kind));
    StatusOr<TPRelation> serial = TPJoin(kind, *skewed.r, *skewed.s, theta);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    StatusOr<TPRelation> parallel =
        ParallelTPJoin(&ctx, kind, *skewed.r, *skewed.s, theta);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdentical(*serial, *parallel);
  }
  // On the sweep the parallel set operation runs the serial plan, so even
  // its order matches.
  for (const TPSetOpKind kind : kAllSetOps) {
    SCOPED_TRACE(TPSetOpKindName(kind));
    StatusOr<TPRelation> serial = TPSetOp(kind, *skewed.r, *skewed.s);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    StatusOr<TPRelation> parallel =
        ParallelTPSetOp(&ctx, kind, *skewed.r, *skewed.s);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectIdentical(*serial, *parallel);
  }
}

TEST(AutoAlgorithm, MatchesExplicitChoicesOnFig1SizedData) {
  // The kAuto plan must produce the same windows as both explicit plans.
  LineageManager manager;
  WebkitOptions opts;
  opts.num_tuples = 300;
  StatusOr<WebkitDataset> ds = MakeWebkitDataset(&manager, opts);
  ASSERT_TRUE(ds.ok());
  for (const OverlapAlgorithm forced :
       {OverlapAlgorithm::kPartitioned, OverlapAlgorithm::kSweep}) {
    StatusOr<std::vector<TPWindow>> autow = ComputeWindows(
        ds->r, ds->s, ds->theta, WindowStage::kWuon, OverlapAlgorithm::kAuto);
    StatusOr<std::vector<TPWindow>> explicit_windows =
        ComputeWindows(ds->r, ds->s, ds->theta, WindowStage::kWuon, forced);
    ASSERT_TRUE(autow.ok());
    ASSERT_TRUE(explicit_windows.ok());
    SortWindows(&*autow);
    SortWindows(&*explicit_windows);
    ASSERT_EQ(autow->size(), explicit_windows->size());
    for (size_t i = 0; i < autow->size(); ++i) {
      EXPECT_EQ((*autow)[i].window, (*explicit_windows)[i].window);
      EXPECT_EQ((*autow)[i].lin_s, (*explicit_windows)[i].lin_s);
    }
  }
}

}  // namespace
}  // namespace tpdb
