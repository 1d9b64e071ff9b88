// Predicate pushdown through TP joins (api/passes/pushdown.cc): a
// predicate filter on a PhysTPJoin moves into the input(s) whose facts it
// reads when the join kind lets it commute, and nowhere else. The plan
// shapes are checked node by node; the results are checked element-wise
// (values, intervals, exact probabilities, emit order) against the
// unoptimized baseline across all six join kinds, warm and cold, serial
// and parallel, after appends and compaction, over the wire — and against
// the snapshot-semantics oracle at every time point.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/random.h"
#include "exec/session.h"
#include "server/client.h"
#include "server/server.h"
#include "tests/reference/fixtures.h"
#include "tests/reference/reference.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

const std::vector<std::string> kJoinKinds = {"INNER", "LEFT", "RIGHT",
                                             "FULL",  "ANTI", "SEMI"};

/// r(key, a, v) and s(key, b, v): `key` is the equi-θ column, NULL on
/// every 13th tuple of both sides, and clustered by position so the zone
/// maps of a cold copy can prune on it; `v` is shared by name, so the join
/// output renames s's copies to key_s / v_s.
void FillJoinInputs(TPDatabase* db, int64_t n, uint64_t seed) {
  StatusOr<TPRelation*> r = db->CreateRelation(
      "r", Schema({{"key", DatumType::kInt64},
                   {"a", DatumType::kInt64},
                   {"v", DatumType::kDouble}}));
  StatusOr<TPRelation*> s = db->CreateRelation(
      "s", Schema({{"key", DatumType::kInt64},
                   {"b", DatumType::kInt64},
                   {"v", DatumType::kDouble}}));
  ASSERT_TRUE(r.ok() && s.ok());
  Random rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const Datum key = i % 13 == 0 ? Datum::Null() : Datum((i / 12) % 25);
    ASSERT_TRUE((*r)
                    ->AppendBase({key, Datum(i), Datum((i % 9) / 2.0)},
                                 Interval(i * 2, i * 2 + 1 + i % 7),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
    ASSERT_TRUE((*s)
                    ->AppendBase({key, Datum(i % 50), Datum((i % 7) / 2.0)},
                                 Interval(i * 2 + 1, i * 2 + 3 + i % 5),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
  }
}

/// The optimized physical plan of `sql`.
PhysicalPlan Lower(TPDatabase* db, const std::string& sql) {
  StatusOr<LogicalPlan> logical = db->Plan(sql);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  PlannerOptions options;
  options.parallelism = 1;
  StatusOr<PhysicalPlan> plan = Planner(db, options).Lower(*logical);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? std::move(*plan) : PhysicalPlan{};
}

const PhysicalNode* FindJoin(const PhysicalNode* node) {
  if (node->op == PhysOp::kTPJoin || node->op == PhysOp::kAlign) return node;
  for (const PhysicalNodePtr& child : node->children)
    if (const PhysicalNode* join = FindJoin(child.get())) return join;
  return nullptr;
}

/// The predicate filters stacked directly on top of `input`'s source, as
/// "Filter[...]" labels, top-down.
std::vector<std::string> InputFilters(const PhysicalNode& input) {
  std::vector<std::string> labels;
  for (const PhysicalNode* node = &input; node->op == PhysOp::kFilter;
       node = node->children[0].get())
    labels.push_back(node->Label());
  return labels;
}

/// True when some filter sits above the join in the tree.
bool FilterAboveJoin(const PhysicalNode* node) {
  if (node->op == PhysOp::kTPJoin || node->op == PhysOp::kAlign) return false;
  if (node->op == PhysOp::kFilter) return true;
  for (const PhysicalNodePtr& child : node->children)
    if (FilterAboveJoin(child.get())) return true;
  return false;
}

class PhysicalPlanJoinPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override { FillJoinInputs(&db_, 120, 7); }
  TPDatabase db_;
};

TEST_F(PhysicalPlanJoinPushdownTest, PointKeyedLeftJoinFiltersBothInputs) {
  const PhysicalPlan plan =
      Lower(&db_, "SELECT * FROM r LEFT JOIN s ON key WHERE key = 7");
  ASSERT_NE(plan.root, nullptr);
  const std::string tree = plan.ToString();
  ASSERT_EQ(plan.root->op, PhysOp::kTPJoin) << tree;
  EXPECT_EQ(InputFilters(*plan.root->children[0]),
            std::vector<std::string>{"Filter[(key = 7)]"})
      << tree;
  EXPECT_EQ(InputFilters(*plan.root->children[1]),
            std::vector<std::string>{"Filter[(key = 7)]"})
      << tree;

  // Explain renders the same shape: both filters under the join.
  StatusOr<std::string> explain = Session(&db_, {}).Explain(
      "SELECT * FROM r LEFT JOIN s ON key WHERE key = 7");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const size_t physical = explain->find("Physical plan (est | actual):");
  ASSERT_NE(physical, std::string::npos) << *explain;
  const std::string section = explain->substr(physical);
  const size_t join = section.find("Join[left-outer, on key=key]");
  const size_t first = section.find("  Filter[(key = 7)]", join);
  ASSERT_NE(join, std::string::npos) << *explain;
  ASSERT_NE(first, std::string::npos) << *explain;
  EXPECT_NE(section.find("  Filter[(key = 7)]", first + 1), std::string::npos)
      << *explain;
}

TEST_F(PhysicalPlanJoinPushdownTest, EachSideMovesOnlyWhereItCommutes) {
  struct Case {
    std::string sql;
    std::vector<std::string> left;   // filters expected on r, top-down
    std::vector<std::string> right;  // filters expected on s, top-down
  };
  const std::vector<Case> cases = {
      // Left facts: INNER / LEFT / ANTI / SEMI; not a key, so no mirror.
      {"SELECT * FROM r INNER JOIN s ON key WHERE a < 40",
       {"Filter[(a < 40)]"}, {}},
      {"SELECT * FROM r ANTI JOIN s ON key WHERE a < 40",
       {"Filter[(a < 40)]"}, {}},
      {"SELECT * FROM r SEMI JOIN s ON key WHERE key = 3",
       {"Filter[(key = 3)]"}, {"Filter[(key = 3)]"}},
      // Right facts, mapped back through the `_s` renames: INNER / RIGHT.
      {"SELECT * FROM r RIGHT JOIN s ON key WHERE key_s = 4",
       {"Filter[(key = 4)]"}, {"Filter[(key = 4)]"}},
      {"SELECT * FROM r INNER JOIN s ON key WHERE v_s > 1.5",
       {}, {"Filter[(v > 1.5)]"}},
      {"SELECT * FROM r RIGHT JOIN s ON key WHERE b IS NULL",
       {}, {"Filter[(b IS NULL)]"}},
      // Key-only predicates mirror, also through OR and IS NULL.
      {"SELECT * FROM r LEFT JOIN s ON key WHERE key = 2 OR key = 5",
       {"Filter[((key = 2) OR (key = 5))]"},
       {"Filter[((key = 2) OR (key = 5))]"}},
      {"SELECT * FROM r LEFT JOIN s ON key WHERE key IS NULL",
       {"Filter[(key IS NULL)]"}, {"Filter[(key IS NULL)]"}},
      // Conjuncts move on their own; the rest stays above the join.
      {"SELECT * FROM r INNER JOIN s ON key WHERE b > 3 AND a < 90",
       {"Filter[(a < 90)]"}, {"Filter[(b > 3)]"}},
      {"SELECT * FROM r LEFT JOIN s ON key WHERE _ts < 90 AND key = 5",
       {"Filter[(key = 5)]"}, {"Filter[(key = 5)]"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    const PhysicalPlan plan = Lower(&db_, c.sql);
    ASSERT_NE(plan.root, nullptr);
    const PhysicalNode* join = FindJoin(plan.root.get());
    ASSERT_NE(join, nullptr);
    EXPECT_EQ(InputFilters(*join->children[0]), c.left) << plan.ToString();
    EXPECT_EQ(InputFilters(*join->children[1]), c.right) << plan.ToString();
  }

  // The conjunct that cannot move stays on the join, alone.
  const PhysicalPlan split = Lower(
      &db_, "SELECT * FROM r LEFT JOIN s ON key WHERE _ts < 90 AND key = 5");
  ASSERT_NE(split.root, nullptr);
  EXPECT_EQ(split.root->Label(), "Filter[(_ts < 90)]") << split.ToString();
  EXPECT_EQ(split.root->children[0]->op, PhysOp::kTPJoin) << split.ToString();
}

TEST_F(PhysicalPlanJoinPushdownTest, ExcludedCasesKeepTheirFilterAboveTheJoin) {
  const std::vector<std::string> queries = {
      "SELECT * FROM r FULL JOIN s ON key WHERE key = 7",
      "SELECT * FROM r FULL JOIN s ON key WHERE key_s = 7",
      "SELECT * FROM r LEFT JOIN s ON key WITH PROB >= 0.3",
      "SELECT * FROM r LEFT JOIN s ON key WHERE _ts < 60",
      "SELECT * FROM r INNER JOIN s ON key WHERE _te >= 100",
      "SELECT * FROM r LEFT JOIN s ON key WHERE key_s = 7",
      "SELECT * FROM r LEFT JOIN s ON key WHERE b IS NULL",
      "SELECT * FROM r RIGHT JOIN s ON key WHERE key = 7",
      "SELECT * FROM r INNER JOIN s ON key WHERE a = b",
      "SELECT * FROM r INNER JOIN s ON key WHERE key = 7 OR b = 3",
      "SELECT * FROM r LEFT JOIN s ON key USING TA WHERE key = 7",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    const PhysicalPlan plan = Lower(&db_, sql);
    ASSERT_NE(plan.root, nullptr);
    const PhysicalNode* join = FindJoin(plan.root.get());
    ASSERT_NE(join, nullptr);
    EXPECT_TRUE(FilterAboveJoin(plan.root.get())) << plan.ToString();
    EXPECT_TRUE(InputFilters(*join->children[0]).empty()) << plan.ToString();
    EXPECT_TRUE(InputFilters(*join->children[1]).empty()) << plan.ToString();
  }

  // A probability threshold stays above the join while the key filter
  // under it still moves.
  const PhysicalPlan mixed =
      Lower(&db_,
            "SELECT * FROM r LEFT JOIN s ON key WHERE key = 7 "
            "WITH PROB >= 0.3");
  ASSERT_NE(mixed.root, nullptr);
  EXPECT_TRUE(mixed.root->op == PhysOp::kFilter && mixed.root->is_prob)
      << mixed.ToString();
  const PhysicalNode* join = FindJoin(mixed.root.get());
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(InputFilters(*join->children[0]).size(), 1u) << mixed.ToString();

  // Nothing crosses a Limit: Filter → Limit → Join keeps its order.
  StatusOr<LogicalPlan> logical =
      db_.Plan("SELECT * FROM r LEFT JOIN s ON key LIMIT 50");
  ASSERT_TRUE(logical.ok());
  logical->root = LogicalNode::Filter(
      std::move(logical->root),
      AstCompare(CompareOp::kEq, AstColumn("key"),
                 AstLiteral(Datum(static_cast<int64_t>(7)))));
  PlannerOptions options;
  options.parallelism = 1;
  StatusOr<PhysicalPlan> limited = Planner(&db_, options).Lower(*logical);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited->root->op, PhysOp::kFilter) << limited->ToString();
  EXPECT_EQ(limited->root->children[0]->op, PhysOp::kLimit)
      << limited->ToString();
  const PhysicalNode* limited_join = FindJoin(limited->root.get());
  ASSERT_NE(limited_join, nullptr);
  EXPECT_TRUE(InputFilters(*limited_join->children[0]).empty())
      << limited->ToString();
}

TEST_F(PhysicalPlanJoinPushdownTest, MismatchedKeyTypesAreNotMirrored) {
  StatusOr<TPRelation*> d = db_.CreateRelation(
      "d", Schema({{"dkey", DatumType::kDouble}, {"c", DatumType::kInt64}}));
  ASSERT_TRUE(d.ok());
  const PhysicalPlan plan = Lower(
      &db_, "SELECT * FROM r LEFT JOIN d ON key = dkey WHERE key = 7");
  ASSERT_NE(plan.root, nullptr);
  ASSERT_EQ(plan.root->op, PhysOp::kTPJoin) << plan.ToString();
  EXPECT_EQ(InputFilters(*plan.root->children[0]).size(), 1u)
      << plan.ToString();
  EXPECT_TRUE(InputFilters(*plan.root->children[1]).empty())
      << plan.ToString();
}

// -- Element-wise parity against optimize=false ---------------------------

/// Element-wise equality: facts, intervals, exact probabilities, order.
void ExpectSameRelation(const TPRelation& a, const TPRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(a.fact_schema() == b.fact_schema())
      << a.fact_schema().ToString() << " vs " << b.fact_schema().ToString();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareRows(a.tuple(i).fact, b.tuple(i).fact), 0)
        << "fact mismatch at tuple " << i;
    ASSERT_EQ(a.tuple(i).interval, b.tuple(i).interval)
        << "interval mismatch at tuple " << i;
    ASSERT_EQ(a.Probability(i), b.Probability(i))
        << "probability mismatch at tuple " << i;
  }
}

/// r-only, s-only, mixed, `_ts`, OR, IS NULL and int64-vs-double literal
/// predicates. ANTI / SEMI outputs have no s columns, so their s-side and
/// mixed queries fail — identically with and without the pass.
std::vector<std::string> ParityPredicates() {
  return {
      "key = 7",           "a >= 30 AND a < 90",  "key = 3 OR key = 11",
      "key IS NULL",       "key IS NOT NULL",     "v = 2",
      "key = 7.0",         "key_s = 4",           "b < 20",
      "key_s IS NULL",     "v_s >= 1",            "key_s = 4.0",
      "a = b",             "key = 7 OR b = 3",    "_ts < 150",
      "_ts >= 40 AND key = 5",
  };
}

/// Runs every kind × predicate optimized at parallelism 1 and 4 and
/// compares with the unoptimized serial baseline.
void SweepJoinParity(TPDatabase* db) {
  SessionOptions baseline;
  baseline.optimize = false;
  baseline.parallelism = 1;
  for (const std::string& kind : kJoinKinds) {
    for (const std::string& predicate : ParityPredicates()) {
      const std::string sql =
          "SELECT * FROM r " + kind + " JOIN s ON key WHERE " + predicate;
      SCOPED_TRACE(sql);
      StatusOr<TPRelation> expected = Session(db, baseline).Query(sql);
      for (const int parallelism : {1, 4}) {
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
        SessionOptions options;
        options.parallelism = parallelism;
        options.min_parallel_rows = 32;
        options.morsel_size = 32;
        StatusOr<TPRelation> got = Session(db, options).Query(sql);
        if (!expected.ok()) {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().ToString(), expected.status().ToString());
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameRelation(*expected, *got);
      }
    }
  }
}

TEST(PhysicalPlanJoinPushdownParityTest, WarmAcrossKindsAndPredicates) {
  TPDatabase db;
  FillJoinInputs(&db, 300, 3);
  SweepJoinParity(&db);
}

TEST(PhysicalPlanJoinPushdownParityTest, ColdThenAppendThenCompaction) {
  const std::string path =
      testing::TestTempDir() + "/join_pushdown_cold.tpdb";
  {
    TPDatabase source;
    FillJoinInputs(&source, 300, 11);
    storage::SnapshotOptions snapshot_options;
    snapshot_options.segment_rows = 64;
    ASSERT_TRUE(source.SaveSnapshot(path, snapshot_options).ok());
  }
  TPDatabase cold;
  cold.set_compaction_threshold(0);  // compaction only where asked
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("r"))->cold_storage(), nullptr);
  {
    SCOPED_TRACE("cold");
    SweepJoinParity(&cold);
  }

  // The pushed key filter reaches the cold scans' zone maps.
  StatusOr<std::string> explain = Session(&cold, {}).Explain(
      "SELECT * FROM r LEFT JOIN s ON key WHERE key = 7");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("pushdown=[key in [7, 7]"), std::string::npos)
      << *explain;
  EXPECT_EQ(explain->find("segments skipped: 0"), std::string::npos)
      << *explain;

  // Appends land in delta segments next to the mapped base segments.
  for (const char* rel : {"r", "s"}) {
    std::vector<TPDatabase::AppendRow> rows;
    for (int64_t i = 0; i < 20; ++i) {
      TPDatabase::AppendRow row;
      row.fact = {i % 4 == 0 ? Datum::Null() : Datum(i % 9),
                  Datum(1000 + i), Datum(i / 2.0)};
      row.interval = Interval(100 + i * 3, 104 + i * 3);
      row.prob = 0.25 + 0.02 * static_cast<double>(i);
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(cold.Append(rel, std::move(rows)).ok());
  }
  {
    SCOPED_TRACE("after append");
    SweepJoinParity(&cold);
  }
  ASSERT_TRUE(cold.Compact("r").ok());
  ASSERT_TRUE(cold.Compact("s").ok());
  {
    SCOPED_TRACE("after compaction");
    SweepJoinParity(&cold);
  }
  std::remove(path.c_str());
}

// -- Snapshot reducibility --------------------------------------------------

TEST(PhysicalPlanJoinPushdownSnapshotTest, PushedPlansMatchTheOracle) {
  struct Case {
    std::string kind_sql;
    TPJoinKind kind;
    std::string predicate;
    /// The predicate over one output fact row (r facts ++ s facts).
    std::function<bool(const Row&)> keep;
  };
  const auto key_is = [](size_t column, int64_t value) {
    return [column, value](const Row& fact) {
      return !fact[column].is_null() && fact[column].AsInt64() == value;
    };
  };
  // Output facts: key, tag (r) ++ key_s, tag_s (s).
  const std::vector<Case> cases = {
      {"INNER", TPJoinKind::kInner, "key = 1", key_is(0, 1)},
      {"LEFT", TPJoinKind::kLeftOuter, "key = 1", key_is(0, 1)},
      {"ANTI", TPJoinKind::kAnti, "key = 2", key_is(0, 2)},
      {"SEMI", TPJoinKind::kSemi, "key = 0", key_is(0, 0)},
      {"RIGHT", TPJoinKind::kRightOuter, "key_s = 1", key_is(2, 1)},
      {"INNER", TPJoinKind::kInner, "tag_s = 1", key_is(3, 1)},
      {"LEFT", TPJoinKind::kLeftOuter, "tag = 0", key_is(1, 0)},
  };
  for (const uint64_t seed : {1u, 2u, 3u}) {
    TPDatabase db;
    Random rng(seed * 7919);
    testing::RandomRelationOptions opts;
    opts.num_tuples = 14;
    opts.num_keys = 3;
    opts.horizon = 25;
    opts.max_duration = 7;
    for (const char* name : {"r", "s"}) {
      std::unique_ptr<TPRelation> rel =
          testing::MakeRandomRelation(db.manager(), name, opts, &rng);
      ASSERT_TRUE(db.Register(std::move(*rel)).ok());
    }
    const TPRelation& r = **db.Get("r");
    const TPRelation& s = **db.Get("s");
    const JoinCondition theta = JoinCondition::Equals("key");
    for (const Case& c : cases) {
      const std::string sql = "SELECT * FROM r " + c.kind_sql +
                              " JOIN s ON key WHERE " + c.predicate;
      SCOPED_TRACE(sql + " seed " + std::to_string(seed));
      const PhysicalPlan plan = Lower(&db, sql);
      ASSERT_NE(plan.root, nullptr);
      ASSERT_EQ(plan.root->op, PhysOp::kTPJoin) << plan.ToString();
      StatusOr<TPRelation> result = Session(&db, {}).Query(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (TimePoint t = 0; t < opts.horizon + 4 * opts.max_duration; ++t) {
        std::vector<testing::SnapshotTuple> expected;
        for (testing::SnapshotTuple& tuple :
             testing::ReferenceJoinSnapshot(c.kind, r, s, theta, t))
          if (c.keep(tuple.fact)) expected.push_back(std::move(tuple));
        const std::string diff = testing::CompareSnapshots(
            std::move(expected), testing::SnapshotOf(*result, t));
        ASSERT_TRUE(diff.empty()) << "at t=" << t << ":\n" << diff;
      }
    }
  }
}

// -- Over the wire ----------------------------------------------------------

TEST(PhysicalPlanJoinPushdownWireTest, PointKeyedJoinMatchesTheBaseline) {
  TPDatabase db;
  FillJoinInputs(&db, 300, 5);
  server::Server srv(&db);
  ASSERT_TRUE(srv.Start().ok());
  StatusOr<std::unique_ptr<server::Client>> client =
      server::Client::Connect({.host = "127.0.0.1", .port = srv.port()});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  SessionOptions baseline;
  baseline.optimize = false;
  baseline.parallelism = 1;
  for (const std::string& sql :
       {std::string("SELECT * FROM r LEFT JOIN s ON key WHERE key = 7"),
        std::string("SELECT * FROM r RIGHT JOIN s ON key WHERE key_s = 3")}) {
    SCOPED_TRACE(sql);
    StatusOr<TPRelation> expected = Session(&db, baseline).Query(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_GT(expected->size(), 0u);
    StatusOr<server::ClientResult> wire = (*client)->Query(sql);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    // Wire rows: fact columns ++ _ts ++ _te ++ _prob, in emit order.
    ASSERT_EQ(wire->rows.size(), expected->size());
    for (size_t i = 0; i < wire->rows.size(); ++i) {
      const Row& row = wire->rows[i];
      const size_t n = row.size();
      ASSERT_EQ(n, expected->fact_schema().num_columns() + 3);
      EXPECT_EQ(CompareRows(Row(row.begin(), row.end() - 3),
                            expected->tuple(i).fact),
                0)
          << "row " << i;
      EXPECT_EQ(Interval(row[n - 3].AsInt64(), row[n - 2].AsInt64()),
                expected->tuple(i).interval)
          << "row " << i;
      EXPECT_EQ(row[n - 1].AsDouble(), expected->Probability(i)) << "row " << i;
    }
  }
  srv.Shutdown();
}

}  // namespace
}  // namespace tpdb
