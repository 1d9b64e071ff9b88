// The pruned `ORDER BY _prob DESC LIMIT k` path: element-wise parity with
// the unoptimized full-sort baseline (values, intervals, probabilities, and
// order — ties included) on warm and cold inputs, correctness when the
// zone maps go stale after a probability update, routing of the shapes the
// pruned path must NOT take, and the `WITH PROB APPROX` contract
// end-to-end.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/random.h"
#include "exec/session.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

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

SessionOptions Baseline() {
  SessionOptions options;
  options.optimize = false;  // top-k fusion never fires: the full sort
  options.parallelism = 1;
  return options;
}

/// Optimized-vs-baseline parity for one query.
void ExpectParity(TPDatabase* db, const std::string& query) {
  SCOPED_TRACE(query);
  StatusOr<TPRelation> expected = Session(db, Baseline()).Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  StatusOr<TPRelation> got = Session(db, {}).Query(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameRelation(*expected, *got);
}

/// Warm relation `e`: continuous probabilities by default, or quantized to
/// 16 levels (`ties`) so the stable tie-break carries the ordering.
void FillWarm(TPDatabase* db, int64_t rows, bool ties) {
  StatusOr<TPRelation*> rel = db->CreateRelation(
      "e", Schema({{"key", DatumType::kInt64}, {"val", DatumType::kDouble}}));
  ASSERT_TRUE(rel.ok());
  Random rng(29);
  for (int64_t i = 0; i < rows; ++i) {
    const double prob = ties ? 0.1 + 0.05 * static_cast<double>(i % 16)
                             : 0.2 + 0.6 * rng.NextDouble();
    ASSERT_TRUE((*rel)
                    ->AppendBase({Datum(i % 53),
                                  Datum(static_cast<double>(i % 40) / 4.0)},
                                 Interval(i, i + 2), prob)
                    .ok());
  }
}

TEST(TopKProbTest, WarmTopKMatchesFullSort) {
  TPDatabase db;
  FillWarm(&db, 600, /*ties=*/false);
  for (const int k : {1, 7, 50, 1000}) {  // 1000 > table size
    ExpectParity(&db, "SELECT * FROM e ORDER BY _prob DESC LIMIT " +
                          std::to_string(k));
  }
  ExpectParity(&db,
               "SELECT key FROM e WHERE key >= 20 ORDER BY _prob DESC "
               "LIMIT 9");
}

TEST(TopKProbTest, WarmTiesResolveInStableOrder) {
  TPDatabase db;
  FillWarm(&db, 400, /*ties=*/true);
  // 16 probability levels over 400 rows: every kept prefix cuts through a
  // tie group, so parity here is parity of the stable tie-break.
  for (const int k : {3, 25, 99}) {
    ExpectParity(&db, "SELECT * FROM e ORDER BY _prob DESC LIMIT " +
                          std::to_string(k));
  }
}

class TopKProbColdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("topk_prob_cold.tpdb");
    TPDatabase source;
    StatusOr<TPRelation*> rel = source.CreateRelation(
        "events",
        Schema({{"key", DatumType::kInt64}, {"val", DatumType::kDouble}}));
    ASSERT_TRUE(rel.ok());
    Random rng(41);
    for (int64_t i = 0; i < 2560; ++i)
      ASSERT_TRUE(
          (*rel)
              ->AppendBase({Datum(i % 97), Datum(static_cast<double>(i) / 4.0)},
                           Interval(i, i + 2), 0.2 + 0.6 * rng.NextDouble())
              .ok());
    storage::SnapshotOptions options;
    options.segment_rows = 512;  // 5 segments, distinct max_prob per segment
    ASSERT_TRUE(source.SaveSnapshot(path_, options).ok());
    ASSERT_TRUE(cold_.LoadSnapshot(path_).ok());
    ASSERT_NE((*cold_.Get("events"))->cold_storage(), nullptr);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  TPDatabase cold_;
};

TEST_F(TopKProbColdTest, ColdTopKMatchesFullSort) {
  for (const int k : {1, 10, 100}) {
    ExpectParity(&cold_, "SELECT * FROM events ORDER BY _prob DESC LIMIT " +
                             std::to_string(k));
  }
  ExpectParity(&cold_,
               "SELECT key FROM events WHERE key < 60 ORDER BY _prob DESC "
               "LIMIT 40");
}

TEST_F(TopKProbColdTest, ExplainSurfacesTopKAndProbMethod) {
  StatusOr<std::string> text = Session(&cold_, {}).Explain(
      "SELECT * FROM events ORDER BY _prob DESC LIMIT 5");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(Contains(*text, "(top-k)")) << *text;
  EXPECT_TRUE(Contains(*text, "top-k visited")) << *text;
  EXPECT_TRUE(Contains(*text, "prob=")) << *text;
}

TEST_F(TopKProbColdTest, StaleZoneMapsStayCorrectAfterProbabilityUpdate) {
  // Snapshot zone maps describe load-time probabilities. After an update
  // the epoch gate must stop the pruning (upper bound 1.0), not the
  // correctness: parity is re-checked against a baseline that sees the
  // same updated marginals.
  LineageManager* mgr = cold_.manager();
  for (VarId v = 0; v < 32; ++v)
    mgr->SetVariableProbability(v * 80, 0.99 - 0.01 * static_cast<double>(v));
  for (const int k : {5, 64}) {
    ExpectParity(&cold_, "SELECT * FROM events ORDER BY _prob DESC LIMIT " +
                             std::to_string(k));
  }
}

TEST_F(TopKProbColdTest, NonTopKShapesRouteThroughTheGenericSort) {
  // ASC, no LIMIT, and mixed keys must not take the pruned path — and must
  // still agree with the baseline through the full sort.
  ExpectParity(&cold_, "SELECT * FROM events ORDER BY _prob LIMIT 20");
  ExpectParity(&cold_,
               "SELECT * FROM events WHERE key >= 90 ORDER BY _prob DESC");
  ExpectParity(&cold_,
               "SELECT * FROM events ORDER BY key, _prob DESC LIMIT 15");
  StatusOr<std::string> text = Session(&cold_, {}).Explain(
      "SELECT * FROM events ORDER BY _prob LIMIT 20");
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(Contains(*text, "(top-k)")) << *text;
}

TEST(TopKProbTest, ApproxThresholdRunsEndToEnd) {
  TPDatabase db;
  FillWarm(&db, 500, /*ties=*/false);
  // Base-tuple lineage is decomposable, so APPROX(eps, delta) computes the
  // exact values and keeps exactly the tuples the exact threshold keeps.
  const StatusOr<TPRelation> exact =
      Session(&db, {}).Query("SELECT * FROM e WITH PROB >= 0.5");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  StatusOr<TPRelation> got = Session(&db, {}).Query(
      "SELECT * FROM e WITH PROB APPROX(0.1, 0.05) >= 0.5");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameRelation(*exact, *got);
  EXPECT_GT(got->size(), 0u);
  EXPECT_LT(got->size(), 500u);

  // Explain labels the filter with its contract and the rung that ran.
  StatusOr<std::string> text = Session(&db, {}).Explain(
      "SELECT * FROM e WITH PROB APPROX(0.1, 0.05) >= 0.5");
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(Contains(*text, "APPROX(0.1, 0.05)")) << *text;
  EXPECT_TRUE(Contains(*text, "prob=exact")) << *text;
  EXPECT_FALSE(Contains(*text, "prob=mc")) << *text;
  EXPECT_FALSE(Contains(*text, "+mc")) << *text;
}

TEST(TopKProbTest, ApproxCombinesWithTopK) {
  TPDatabase db;
  FillWarm(&db, 300, /*ties=*/false);
  // Approximate threshold below a top-k sort: both features engage in one
  // query; the result is deterministic under the fixed seed, so optimized
  // and baseline plans must agree element-wise.
  ExpectParity(&db,
               "SELECT * FROM e ORDER BY _prob DESC LIMIT 12 "
               "WITH PROB APPROX(0.1, 0.05) >= 0.4");
}

}  // namespace
}  // namespace tpdb
