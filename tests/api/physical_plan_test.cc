// Physical plan IR: pass-by-pass golden trees (constant folding, predicate
// & probability pushdown, projection pruning, mode selection) and
// element-wise execution parity of the optimized PhysicalPlan against the
// unoptimized baseline across parallelism {1, 4} × warm/cold inputs ×
// seeds — values, intervals, and exact probabilities must match in emit
// order under every configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/passes/passes.h"
#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/random.h"
#include "exec/session.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

/// Position of `needle` in `text`; -1 when absent.
ptrdiff_t Find(const std::string& text, const std::string& needle) {
  const size_t at = text.find(needle);
  return at == std::string::npos ? -1 : static_cast<ptrdiff_t>(at);
}

/// The node's own line of the plan rendering, without its children.
std::string OwnLine(const PhysicalNode& node) {
  const std::string text = node.ToString();
  return text.substr(0, text.find('\n'));
}

class PhysicalPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<TPRelation*> rel = db_.CreateRelation(
        "t", Schema({{"key", DatumType::kInt64},
                     {"score", DatumType::kDouble},
                     {"city", DatumType::kString}}));
    ASSERT_TRUE(rel.ok());
    Random rng(7);
    const std::vector<std::string> cities = {"ZAK", "GVA", "BRN"};
    for (int64_t i = 0; i < 1500; ++i) {
      Row fact{Datum(i % 101),
               i % 9 == 0 ? Datum::Null()
                          : Datum(static_cast<double>(i % 40) / 2.0),
               Datum(cities[static_cast<size_t>(i) % cities.size()])};
      ASSERT_TRUE((*rel)
                      ->AppendBase(std::move(fact), Interval(i, i + 3),
                                   0.2 + 0.6 * rng.NextDouble())
                      .ok());
    }
  }

  StatusOr<PhysicalPlan> Build(const std::string& query) {
    StatusOr<LogicalPlan> plan = db_.Plan(query);
    if (!plan.ok()) return plan.status();
    return BuildPhysicalPlan(*plan, &db_);
  }

  TPDatabase db_;
};

// -- Pass-by-pass golden trees ---------------------------------------------

TEST_F(PhysicalPlanTest, ConstantFoldingRemovesAlwaysTrueFilters) {
  StatusOr<PhysicalPlan> plan = Build("SELECT * FROM t WHERE 1 = 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(FoldConstantsPass(&*plan).ok());
  const std::string tree = plan->ToString();
  EXPECT_EQ(Find(tree, "Filter["), -1) << tree;
  EXPECT_NE(Find(tree, "Scan(t)"), -1) << tree;
}

TEST_F(PhysicalPlanTest, ConstantFoldingEvaluatesLiteralSubtrees) {
  // (1 = 2 OR key >= 10) AND 3 < 4  →  key >= 10
  StatusOr<PhysicalPlan> plan = Build(
      "SELECT * FROM t WHERE (1 = 2 OR key >= 10) AND 3 < 4");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(FoldConstantsPass(&*plan).ok());
  const std::string tree = plan->ToString();
  EXPECT_NE(Find(tree, "Filter[(key >= 10)]"), -1) << tree;
  EXPECT_EQ(Find(tree, "OR"), -1) << tree;
  EXPECT_EQ(Find(tree, "AND"), -1) << tree;
}

TEST_F(PhysicalPlanTest, ConstantFoldingKeepsDropAllFilters) {
  StatusOr<PhysicalPlan> plan = Build("SELECT * FROM t WHERE 1 = 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(FoldConstantsPass(&*plan).ok());
  const std::string tree = plan->ToString();
  EXPECT_NE(Find(tree, "Filter[0]"), -1) << tree;  // folded to literal false
}

TEST_F(PhysicalPlanTest, FoldAstExprUsesThreeValuedLogic) {
  // NULL must NOT fold to false (they differ under NOT).
  const AstExprPtr null_and =
      FoldAstExpr(AstAnd(AstLiteral(Datum::Null()), AstColumn("key")));
  ASSERT_NE(null_and, nullptr);
  EXPECT_EQ(null_and->kind, AstExprKind::kAnd);
  // false AND x = false even for non-literal x (exact in 3VL).
  const AstExprPtr false_and = FoldAstExpr(
      AstAnd(AstLiteral(Datum(static_cast<int64_t>(0))), AstColumn("key")));
  ASSERT_EQ(false_and->kind, AstExprKind::kLiteral);
  EXPECT_EQ(false_and->literal.AsInt64(), 0);
  // NOT NULL = NULL.
  const AstExprPtr not_null = FoldAstExpr(AstNot(AstLiteral(Datum::Null())));
  ASSERT_EQ(not_null->kind, AstExprKind::kLiteral);
  EXPECT_TRUE(not_null->literal.is_null());
  // int64 vs double comparisons promote (1 = 1.0 is true).
  const AstExprPtr promoted = FoldAstExpr(AstCompare(
      CompareOp::kEq, AstLiteral(Datum(static_cast<int64_t>(1))),
      AstLiteral(Datum(1.0))));
  ASSERT_EQ(promoted->kind, AstExprKind::kLiteral);
  EXPECT_EQ(promoted->literal.AsInt64(), 1);
}

TEST_F(PhysicalPlanTest, PushdownSinksFiltersBelowSortAndProject) {
  // Hand-build: Filter above Sort above Project — the filter must sink to
  // the bottom, rewritten through the projection's alias.
  StatusOr<LogicalPlan> logical =
      QueryBuilder("t").Select({"key"}, {"k"}).OrderBy("k").Build();
  ASSERT_TRUE(logical.ok());
  logical->root = LogicalNode::Filter(
      std::move(logical->root),
      AstCompare(CompareOp::kGe, AstColumn("k"),
                 AstLiteral(Datum(static_cast<int64_t>(10)))));
  StatusOr<PhysicalPlan> plan = BuildPhysicalPlan(*logical, &db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(PushdownPass(&*plan).ok());
  const std::string tree = plan->ToString();
  // Bottom-up the filter now sits under both, renamed back to `key`.
  const ptrdiff_t filter = Find(tree, "Filter[(key >= 10)]");
  const ptrdiff_t sort = Find(tree, "Sort[");
  const ptrdiff_t project = Find(tree, "Project[");
  ASSERT_NE(filter, -1) << tree;
  ASSERT_NE(sort, -1) << tree;
  ASSERT_NE(project, -1) << tree;
  // ToString prints top-down: deeper nodes appear later.
  EXPECT_GT(filter, sort) << tree;
  EXPECT_GT(filter, project) << tree;
}

TEST_F(PhysicalPlanTest, PushdownOrdersPredicateFiltersBeforeProbability) {
  StatusOr<PhysicalPlan> plan =
      Build("SELECT * FROM t WHERE key >= 50 WITH PROB >= 0.5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Parser order already has the filter below; flip them to prove the
  // pass restores cheap-first.
  PhysicalNode* prob = plan->root.get();
  ASSERT_TRUE(prob->op == PhysOp::kFilter && prob->is_prob);
  ASSERT_TRUE(PushdownPass(&*plan).ok());
  const std::string tree = plan->ToString();
  const ptrdiff_t predicate = Find(tree, "Filter[(key >= 50)]");
  const ptrdiff_t threshold = Find(tree, "ProbThreshold[");
  ASSERT_NE(predicate, -1) << tree;
  ASSERT_NE(threshold, -1) << tree;
  EXPECT_GT(predicate, threshold) << tree;  // filter deeper than threshold
}

TEST_F(PhysicalPlanTest, PushdownNeverCrossesLimit) {
  StatusOr<LogicalPlan> logical = QueryBuilder("t").Limit(10).Build();
  ASSERT_TRUE(logical.ok());
  logical->root = LogicalNode::Filter(
      std::move(logical->root),
      AstCompare(CompareOp::kGe, AstColumn("key"),
                 AstLiteral(Datum(static_cast<int64_t>(10)))));
  StatusOr<PhysicalPlan> plan = BuildPhysicalPlan(*logical, &db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(PushdownPass(&*plan).ok());
  const std::string tree = plan->ToString();
  const ptrdiff_t filter = Find(tree, "Filter[");
  const ptrdiff_t limit = Find(tree, "Limit[");
  ASSERT_NE(filter, -1) << tree;
  ASSERT_NE(limit, -1) << tree;
  EXPECT_LT(filter, limit) << tree;  // filter stays ABOVE the limit
}

TEST_F(PhysicalPlanTest, ProjectionPruningCollapsesAndDropsIdentity) {
  // Project(Project(x)) collapses into one.
  StatusOr<LogicalPlan> logical = QueryBuilder("t").Select({"key", "score"}).Build();
  ASSERT_TRUE(logical.ok());
  logical->root = LogicalNode::Project(std::move(logical->root), {"key"});
  StatusOr<PhysicalPlan> plan = BuildPhysicalPlan(*logical, &db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(PruneProjectionsPass(&*plan).ok());
  std::string tree = plan->ToString();
  EXPECT_EQ(plan->root->op, PhysOp::kProject);
  EXPECT_EQ(plan->root->children[0]->op, PhysOp::kScan) << tree;

  // An identity projection disappears entirely.
  StatusOr<LogicalPlan> identity =
      QueryBuilder("t").Select({"key", "score", "city"}).Build();
  ASSERT_TRUE(identity.ok());
  StatusOr<PhysicalPlan> plan2 = BuildPhysicalPlan(*identity, &db_);
  ASSERT_TRUE(plan2.ok());
  ASSERT_TRUE(PruneProjectionsPass(&*plan2).ok());
  EXPECT_EQ(plan2->root->op, PhysOp::kScan) << plan2->ToString();
}

// -- Mode selection --------------------------------------------------------

/// True when the chain feeding some Aggregate of the tree holds an Exchange.
bool ExchangeFeedsAggregate(const PhysicalNode& node) {
  if (node.op == PhysOp::kAggregate) {
    for (const PhysicalNode* below = node.children[0].get();
         IsPipelinedPhysOp(below->op) || below->op == PhysOp::kExchange;
         below = below->children[0].get())
      if (below->op == PhysOp::kExchange) return true;
  }
  for (const PhysicalNodePtr& child : node.children)
    if (ExchangeFeedsAggregate(*child)) return true;
  return false;
}

TEST_F(PhysicalPlanTest, AggregateChainsRunSerially) {
  StatusOr<TPRelation*> u = db_.CreateRelation(
      "u", Schema({{"key", DatumType::kInt64}, {"w", DatumType::kInt64}}));
  ASSERT_TRUE(u.ok());
  for (int64_t i = 0; i < 1500; ++i)
    ASSERT_TRUE((*u)->AppendBase({Datum(i % 101), Datum(i)},
                                 Interval(i, i + 2), 0.5)
                    .ok());
  PlannerOptions options;
  options.parallelism = 4;
  options.min_parallel_rows = 64;
  Planner planner(&db_, options);
  // (query, whether an exchange belongs anywhere in the plan): the same
  // filter chain gets one without the aggregate, and a join's filtered
  // inputs keep theirs under one.
  const std::vector<std::pair<std::string, bool>> cases = {
      {"SELECT * FROM t WHERE key >= 10", true},
      {"SELECT key, COUNT(*) FROM t WHERE key >= 10 GROUP BY key", false},
      {"SELECT key, COUNT(*), MAX(w) FROM t INNER JOIN u ON key "
       "WHERE key >= 10 GROUP BY key",
       true},
  };
  for (const auto& [query, exchange] : cases) {
    SCOPED_TRACE(query);
    StatusOr<LogicalPlan> logical = db_.Plan(query);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    StatusOr<PhysicalPlan> plan = planner.Lower(*logical);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string tree = plan->ToString();
    EXPECT_FALSE(ExchangeFeedsAggregate(*plan->root)) << tree;
    EXPECT_EQ(Find(tree, "Exchange[4 workers]") >= 0, exchange) << tree;
  }
}

/// Fills `db` with the 2 560-row `events` relation the cold fixture saves.
void AddEvents(TPDatabase* db) {
  StatusOr<TPRelation*> rel = db->CreateRelation(
      "events",
      Schema({{"key", DatumType::kInt64}, {"val", DatumType::kDouble}}));
  ASSERT_TRUE(rel.ok());
  Random rng(13);
  for (int64_t i = 0; i < 2560; ++i)
    ASSERT_TRUE((*rel)
                    ->AppendBase({Datum(i % 97),
                                  Datum(static_cast<double>(i) / 4.0)},
                                 Interval(i, i + 2),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
}

class PhysicalPlanColdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("physical_plan_cold.tpdb");
    TPDatabase source;
    AddEvents(&source);
    if (HasFatalFailure()) return;
    storage::SnapshotOptions options;
    options.segment_rows = 512;  // 5 segments
    ASSERT_TRUE(source.SaveSnapshot(path_, options).ok());
    ASSERT_TRUE(cold_.LoadSnapshot(path_).ok());
    ASSERT_NE((*cold_.Get("events"))->cold_storage(), nullptr);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  TPDatabase cold_;
};

TEST_F(PhysicalPlanColdTest, CostModelPicksBatchOnColdScansWithoutHint) {
  // Every cold scan query reads its segments as batches.
  Planner planner(&cold_, {});
  for (const std::string& query : std::vector<std::string>{
           "SELECT * FROM events WHERE key >= 10",
           "SELECT * FROM events WHERE val < 300.0",
           "SELECT * FROM events WHERE _ts >= 512",
           "SELECT key FROM events WHERE key >= 3 WITH PROB >= 0.4",
       }) {
    SCOPED_TRACE(query);
    StatusOr<LogicalPlan> logical = cold_.Plan(query);
    ASSERT_TRUE(logical.ok());
    StatusOr<PhysicalPlan> plan = planner.Lower(*logical);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string tree = plan->ToString();
    EXPECT_NE(Find(tree, "BatchScan(events)"), -1) << tree;
    EXPECT_NE(Find(tree, "{batch"), -1) << tree;
  }
}

TEST_F(PhysicalPlanColdTest, SortIsARowBarrierBetweenBatchStages) {
  Planner planner(&cold_, {});
  StatusOr<LogicalPlan> logical = cold_.Plan(
      "SELECT key FROM events WHERE key >= 10 ORDER BY key LIMIT 5");
  ASSERT_TRUE(logical.ok());
  StatusOr<PhysicalPlan> plan = planner.Lower(*logical);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string tree = plan->ToString();
  // Limit {batch} over Sort {row} over batch stages over the batch scan.
  const PhysicalNode* limit = plan->root.get();
  ASSERT_EQ(limit->op, PhysOp::kLimit) << tree;
  EXPECT_NE(Find(OwnLine(*limit), "{batch"), -1) << tree;
  const PhysicalNode* sort = limit->children[0].get();
  ASSERT_EQ(sort->op, PhysOp::kSort) << tree;
  EXPECT_NE(Find(OwnLine(*sort), "{row"), -1) << tree;
  const PhysicalNode* below = sort->children[0].get();
  while (true) {
    if (below->op != PhysOp::kExchange) {
      EXPECT_NE(Find(OwnLine(*below), "{batch"), -1) << tree;
    }
    if (below->children.empty()) break;
    below = below->children[0].get();
  }
  EXPECT_EQ(below->op, PhysOp::kBatchScan) << tree;

  StatusOr<TPRelation> got = Session(&cold_, {}).Query(
      "SELECT key FROM events WHERE key >= 10 ORDER BY key LIMIT 5");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 5u);
  for (size_t i = 0; i < got->size(); ++i)
    EXPECT_EQ(got->tuple(i).fact[0].AsInt64(), 10);
}

TEST_F(PhysicalPlanColdTest, ZoneMapEstimatesDriveTheScanCardinality) {
  // _ts >= 2048 prunes 4 of 5 segments: the scan estimate must reflect
  // the surviving segment, not the whole relation.
  Planner planner(&cold_, {});
  StatusOr<LogicalPlan> logical =
      cold_.Plan("SELECT * FROM events WHERE _ts >= 2048");
  ASSERT_TRUE(logical.ok());
  StatusOr<PhysicalPlan> plan = planner.Lower(*logical);
  ASSERT_TRUE(plan.ok());
  const PhysicalNode* scan = plan->root.get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  EXPECT_EQ(scan->est.rows, 512.0) << plan->ToString();
  EXPECT_NE(Find(plan->ToString(), "pushdown=[_ts in"), -1)
      << plan->ToString();
}

TEST_F(PhysicalPlanColdTest, ParallelPlansInsertExchange) {
  PlannerOptions options;
  options.parallelism = 4;
  options.min_parallel_rows = 64;
  Planner planner(&cold_, options);
  StatusOr<LogicalPlan> logical =
      cold_.Plan("SELECT * FROM events WHERE key >= 10");
  ASSERT_TRUE(logical.ok());
  StatusOr<PhysicalPlan> plan = planner.Lower(*logical);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(Find(plan->ToString(), "Exchange[4 workers]"), -1)
      << plan->ToString();

  // Serial sessions never get an exchange.
  PlannerOptions serial;
  serial.parallelism = 1;
  Planner serial_planner(&cold_, serial);
  StatusOr<PhysicalPlan> serial_plan = serial_planner.Lower(*logical);
  ASSERT_TRUE(serial_plan.ok());
  EXPECT_EQ(Find(serial_plan->ToString(), "Exchange["), -1)
      << serial_plan->ToString();
}

TEST_F(PhysicalPlanColdTest, ExplainReportsPruningOnTheParallelMorselRoute) {
  // Satellite: StorageStats must aggregate across morsels — the parallel
  // batch route has to report the same pruned-segment counts the serial
  // path does.
  SessionOptions options;
  options.parallelism = 4;
  options.min_parallel_rows = 64;
  StatusOr<std::string> parallel =
      Session(&cold_, options).Explain("SELECT * FROM events WHERE _ts >= 2048");
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_NE(Find(*parallel, "Exchange[4 workers]"), -1) << *parallel;
  EXPECT_NE(Find(*parallel, "segments scanned: 1"), -1) << *parallel;
  EXPECT_NE(Find(*parallel, "segments skipped: 4"), -1) << *parallel;
  EXPECT_NE(Find(*parallel, "(cold)"), -1) << *parallel;
  EXPECT_NE(Find(*parallel, "vectorized:"), -1) << *parallel;

  SessionOptions serial = options;
  serial.parallelism = 1;
  StatusOr<std::string> baseline =
      Session(&cold_, serial).Explain("SELECT * FROM events WHERE _ts >= 2048");
  ASSERT_TRUE(baseline.ok());
  EXPECT_NE(Find(*baseline, "segments scanned: 1"), -1) << *baseline;
  EXPECT_NE(Find(*baseline, "segments skipped: 4"), -1) << *baseline;
}

/// The count after `rows scanned: ` in an Explain text, or -1.
long long RowsScanned(const std::string& text) {
  const ptrdiff_t at = Find(text, "rows scanned: ");
  if (at < 0) return -1;
  return std::stoll(text.substr(at + 14));
}

TEST_F(PhysicalPlanColdTest, ExplainCountsEachSourceRowScannedOnce) {
  // A parallel region's merged table and a sort's output are rescanned as
  // batches by the stages above them; those rescans must not count as
  // scanned rows again. No zone map prunes `key >= 10` (every segment
  // holds keys 0..96), so every route scans the 2 560 rows once.
  TPDatabase warm;
  AddEvents(&warm);
  ASSERT_FALSE(HasFatalFailure());
  for (TPDatabase* db : {&warm, &cold_}) {
    for (int parallelism : {1, 4}) {
      SessionOptions options;
      options.parallelism = parallelism;
      options.min_parallel_rows = 64;
      options.morsel_size = 256;
      for (const std::string& query : std::vector<std::string>{
               "SELECT key, COUNT(*) FROM events WHERE key >= 10 GROUP BY key",
               "SELECT key FROM events WHERE key >= 10 LIMIT 3000",
               "SELECT key, val FROM events WHERE key >= 10 ORDER BY val LIMIT 5",
           }) {
        SCOPED_TRACE(query + (db == &cold_ ? " cold" : " warm") +
                     " parallelism " + std::to_string(parallelism));
        StatusOr<std::string> text = Session(db, options).Explain(query);
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        // The chain under an aggregate runs serially.
        const bool aggregate = Find(query, "GROUP BY") >= 0;
        EXPECT_EQ(Find(*text, "Exchange[4 workers]") >= 0,
                  parallelism > 1 && !aggregate)
            << *text;
        EXPECT_EQ(RowsScanned(*text), 2560) << *text;
      }
    }
  }
}

TEST_F(PhysicalPlanColdTest, ExplainRendersEstimatesNextToActuals) {
  StatusOr<std::string> text =
      Session(&cold_, {}).Explain("SELECT * FROM events WHERE key >= 50");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(Find(*text, "Physical plan (est | actual):"), -1) << *text;
  EXPECT_NE(Find(*text, "est "), -1) << *text;
  EXPECT_NE(Find(*text, "(actual "), -1) << *text;
  EXPECT_NE(Find(*text, "cost "), -1) << *text;
}

// -- Execution parity ------------------------------------------------------

/// Element-wise equality: facts, intervals, exact probabilities, order.
void ExpectSameRelation(const TPRelation& a, const TPRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(a.fact_schema() == b.fact_schema())
      << a.fact_schema().ToString() << " vs " << b.fact_schema().ToString();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(CompareRows(a.tuple(i).fact, b.tuple(i).fact), 0)
        << "fact mismatch at tuple " << i;
    EXPECT_EQ(a.tuple(i).interval, b.tuple(i).interval)
        << "interval mismatch at tuple " << i;
    EXPECT_EQ(a.Probability(i), b.Probability(i))
        << "probability mismatch at tuple " << i;
  }
}

std::vector<std::string> ParityQueries(const std::string& rel) {
  return {
      "SELECT * FROM " + rel + " WHERE key >= 40",
      "SELECT * FROM " + rel + " WHERE 1 = 1 AND key < 70",
      "SELECT * FROM " + rel + " WHERE 1 = 2",
      "SELECT key FROM " + rel + " WHERE key >= 10 ORDER BY key LIMIT 25",
      "SELECT key AS k, score AS s FROM " + rel + " WHERE score >= 5.0",
      "SELECT * FROM " + rel + " WHERE key > 5 LIMIT 37 OFFSET 11",
      "SELECT * FROM " + rel + " WITH PROB >= 0.5",
      "SELECT * FROM " + rel + " WHERE key >= 10 LIMIT 50 WITH PROB > 0.4",
      "SELECT city, COUNT(*) AS n, MIN(score) FROM " + rel +
          " WHERE key < 80 GROUP BY city",
      "SELECT key, COUNT(*) AS n FROM " + rel +
          " GROUP BY key ORDER BY n DESC LIMIT 10",
  };
}

/// Runs the queries under every configuration and compares against the
/// unoptimized serial baseline.
void SweepParity(TPDatabase* db, const std::string& rel) {
  SessionOptions baseline;
  baseline.optimize = false;
  baseline.parallelism = 1;
  for (const std::string& query : ParityQueries(rel)) {
    SCOPED_TRACE(query);
    StatusOr<TPRelation> expected = Session(db, baseline).Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const bool optimize : {false, true}) {
      for (const int parallelism : {1, 4}) {
        SCOPED_TRACE("optimize=" + std::to_string(optimize) +
                     " parallelism=" + std::to_string(parallelism));
        SessionOptions options;
        options.optimize = optimize;
        options.parallelism = parallelism;
        options.min_parallel_rows = 64;
        options.morsel_size = 256;
        StatusOr<TPRelation> got = Session(db, options).Query(query);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameRelation(*expected, *got);
      }
    }
  }
}

TEST(PhysicalPlanParityTest, WarmAcrossModesAndSeeds) {
  for (const uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TPDatabase db;
    StatusOr<TPRelation*> rel = db.CreateRelation(
        "m", Schema({{"key", DatumType::kInt64},
                     {"score", DatumType::kDouble},
                     {"city", DatumType::kString}}));
    ASSERT_TRUE(rel.ok());
    Random rng(seed);
    const std::vector<std::string> cities = {"ZAK", "GVA", "BRN", "LSN"};
    for (int64_t i = 0; i < 1500; ++i) {
      Row fact{Datum(i % 97),
               i % 7 == 0 ? Datum::Null()
                          : Datum(static_cast<double>(i % 50) / 2.0),
               i % 11 == 0
                   ? Datum::Null()
                   : Datum(cities[static_cast<size_t>(i) % cities.size()])};
      ASSERT_TRUE((*rel)
                      ->AppendBase(std::move(fact), Interval(i * 3, i * 3 + 4),
                                   0.2 + 0.6 * rng.NextDouble())
                      .ok());
    }
    SweepParity(&db, "m");
  }
}

TEST(PhysicalPlanParityTest, ColdSnapshotAcrossModes) {
  const std::string path = TempPath("physical_plan_parity_cold.tpdb");
  TPDatabase source;
  StatusOr<TPRelation*> rel = source.CreateRelation(
      "m", Schema({{"key", DatumType::kInt64},
                   {"score", DatumType::kDouble},
                   {"city", DatumType::kString}}));
  ASSERT_TRUE(rel.ok());
  Random rng(23);
  const std::vector<std::string> cities = {"ZAK", "GVA", "BRN"};
  for (int64_t i = 0; i < 1537; ++i) {  // 4 segments with a 1-row tail
    Row fact{Datum(i % 89),
             i % 5 == 0 ? Datum::Null()
                        : Datum(static_cast<double>(i % 60) / 3.0),
             Datum(cities[static_cast<size_t>(i) % cities.size()])};
    ASSERT_TRUE((*rel)
                    ->AppendBase(std::move(fact), Interval(i, i + 2),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
  }
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 512;
  ASSERT_TRUE(source.SaveSnapshot(path, snapshot_options).ok());

  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("m"))->cold_storage(), nullptr);
  SweepParity(&cold, "m");
  std::remove(path.c_str());
}

TEST(PhysicalPlanParityTest, JoinsAndSetOpsRouteThroughTheSameTree) {
  TPDatabase db;
  StatusOr<TPRelation*> r =
      db.CreateRelation("r", Schema({{"key", DatumType::kInt64},
                                     {"a", DatumType::kInt64}}));
  StatusOr<TPRelation*> s =
      db.CreateRelation("s", Schema({{"key", DatumType::kInt64},
                                     {"b", DatumType::kInt64}}));
  ASSERT_TRUE(r.ok() && s.ok());
  Random rng(5);
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE((*r)->AppendBase({Datum(i % 23), Datum(i)},
                                 Interval(i, i + 4),
                                 0.3 + 0.5 * rng.NextDouble())
                    .ok());
    ASSERT_TRUE((*s)->AppendBase({Datum(i % 19), Datum(i)},
                                 Interval(i + 1, i + 5),
                                 0.3 + 0.5 * rng.NextDouble())
                    .ok());
  }
  SessionOptions baseline;
  baseline.optimize = false;
  baseline.parallelism = 1;
  // (query, order_sensitive): parallel set operations emit in the
  // deterministic hash-partition order rather than the serial emit order
  // (exec/parallel.h), so those compare as multisets.
  for (const auto& [query, ordered] :
       std::vector<std::pair<std::string, bool>>{
           {"SELECT * FROM r LEFT JOIN s ON key WHERE key >= 3 LIMIT 50",
            true},
           {"SELECT * FROM r ANTI JOIN s ON key WITH PROB >= 0.4", true},
           {"SELECT * FROM r INNER JOIN s ON key USING TA", true},
           {"r UNION r", false},
           {"r EXCEPT r", false},
       }) {
    SCOPED_TRACE(query);
    StatusOr<TPRelation> expected = Session(&db, baseline).Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const int parallelism : {1, 4}) {
      SessionOptions options;
      options.parallelism = parallelism;
      options.min_parallel_rows = 64;
      StatusOr<TPRelation> got = Session(&db, options).Query(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (ordered || parallelism == 1) {
        ExpectSameRelation(*expected, *got);
      } else {
        ASSERT_EQ(expected->size(), got->size());
        const auto describe = [](const TPRelation& rel, size_t i) {
          std::string out;
          for (const Datum& d : rel.tuple(i).fact) out += d.ToString() + "|";
          out += std::to_string(rel.tuple(i).interval.start) + "," +
                 std::to_string(rel.tuple(i).interval.end) + " p=" +
                 std::to_string(rel.Probability(i));
          return out;
        };
        std::vector<std::string> a, b;
        for (size_t i = 0; i < expected->size(); ++i) {
          a.push_back(describe(*expected, i));
          b.push_back(describe(*got, i));
        }
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b);
      }
    }
  }
}

}  // namespace
}  // namespace tpdb
