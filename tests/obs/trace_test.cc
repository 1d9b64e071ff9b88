// Tracing invariants: spans nest, the chrome://tracing JSON is sound, and
// — the load-bearing property — a traced query's plan-node spans mirror
// the Explain "Physical plan (est | actual)" tree node-for-node: same
// node count, same pre-order, same actual row counts, because both views
// read the same NodeStats of the same run.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "exec/session.h"
#include "obs/metrics.h"
#include "obs/slow_query.h"

namespace tpdb::obs {
namespace {

/// The "actual N rows" sequence of a physical-plan rendering, in line
/// (pre-)order — the reference the plan spans must match element-wise.
std::vector<uint64_t> ActualRowsInPlanText(const std::string& plan) {
  std::vector<uint64_t> rows;
  size_t pos = 0;
  while ((pos = plan.find("(actual ", pos)) != std::string::npos) {
    pos += 8;
    rows.push_back(std::strtoull(plan.c_str() + pos, nullptr, 10));
  }
  return rows;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(123);
    UniformWorkloadOptions options;
    options.num_tuples = 400;
    options.num_facts = 60;
    options.history_length = 1500;
    options.gap_probability = 0.3;
    for (const char* name : {"r", "s"}) {
      StatusOr<TPRelation> rel =
          MakeUniformWorkload(db_.manager(), name, options, &rng);
      ASSERT_TRUE(rel.ok()) << rel.status().ToString();
      ASSERT_TRUE(db_.Register(std::move(*rel)).ok());
    }
  }

  TPDatabase db_;
};

TEST(TraceContextTest, SpansNestAndParentsResolve) {
  TraceContext trace(7);
  EXPECT_EQ(trace.trace_id(), 7u);
  const uint64_t outer = trace.StartSpan("outer");
  const uint64_t inner = trace.StartSpan("inner");
  trace.EndSpan(inner);
  const uint64_t sibling = trace.StartSpan("sibling");
  trace.EndSpan(sibling);
  trace.EndSpan(outer);
  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[outer - 1].parent, 0u);
  EXPECT_EQ(trace.spans()[inner - 1].parent, outer);
  EXPECT_EQ(trace.spans()[sibling - 1].parent, outer);
  EXPECT_TRUE(trace.PlanSpans().empty());
}

TEST(TraceContextTest, ChromeJsonEscapesAndEmbedsPlan) {
  TraceContext trace(42);
  TraceSpan span;
  span.name = "scan \"r\"";
  span.detail = "line\nbreak";
  span.rows = 5;
  span.plan_node = true;
  trace.AddSpan(span);
  const std::string json = trace.ToChromeJson("Physical plan\n  Scan r");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":5"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  // Raw quotes and newlines must never survive into the JSON text.
  EXPECT_NE(json.find("scan \\\"r\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
  EXPECT_NE(json.find("\"physical_plan\":\"Physical plan\\n  Scan r\""),
            std::string::npos)
      << json;
}

TEST_F(TraceTest, PlanSpansMatchExplainTreeNodeForNode) {
  const std::vector<std::string> queries = {
      "SELECT * FROM r WHERE key < 40",
      // `_ts` reads the join's window intervals, so the filter stays above
      // the join and the mode pass puts an Exchange over it.
      "SELECT * FROM r INNER JOIN s ON key WHERE _ts < 600 ORDER BY key",
      "r UNION s",
  };
  // Serial; an Exchange whose region falls back to serial at run time
  // (the join emits fewer rows than the estimate); an Exchange whose
  // region runs on the morsel drivers.
  struct Config {
    int parallelism;
    size_t min_parallel_rows;
    size_t morsel_size;
  };
  for (const Config& config :
       {Config{1, 512, 1024}, Config{4, 512, 1024}, Config{4, 16, 32}}) {
    SessionOptions options;
    options.parallelism = config.parallelism;
    options.min_parallel_rows = config.min_parallel_rows;
    options.morsel_size = config.morsel_size;
    Session session(&db_, options);
    for (const std::string& sql : queries) {
      SCOPED_TRACE(sql + " parallelism=" + std::to_string(config.parallelism) +
                   " min_parallel_rows=" +
                   std::to_string(config.min_parallel_rows));
      StatusOr<Session::TraceResult> traced = session.Trace(sql, 9);
      ASSERT_TRUE(traced.ok()) << traced.status().ToString();
      const std::vector<uint64_t> expected =
          ActualRowsInPlanText(traced->physical_plan);
      ASSERT_FALSE(expected.empty()) << traced->physical_plan;
      const std::vector<const TraceSpan*> plan_spans =
          traced->trace.PlanSpans();
      ASSERT_EQ(plan_spans.size(), expected.size()) << traced->physical_plan;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(plan_spans[i]->rows, expected[i]) << "node " << i;
        // Each plan span's detail is the node's Label(), which the Explain
        // rendering prints verbatim on the matching line.
        EXPECT_NE(traced->physical_plan.find(plan_spans[i]->detail),
                  std::string::npos)
            << plan_spans[i]->detail;
      }
      // Every Exchange reports actuals, whether its region ran on the
      // morsel drivers or fell back to serial.
      const std::string& plan = traced->physical_plan;
      for (size_t at = plan.find("Exchange["); at != std::string::npos;
           at = plan.find("Exchange[", at + 1)) {
        const std::string line = plan.substr(at, plan.find('\n', at) - at);
        EXPECT_NE(line.find("(actual "), std::string::npos) << plan;
      }
      // The phase skeleton is present and the plan spans hang under execute.
      const std::vector<TraceSpan>& spans = traced->trace.spans();
      ASSERT_GE(spans.size(), 4u);
      EXPECT_EQ(spans[0].name, "query");
      EXPECT_EQ(spans[1].name, "parse");
      uint64_t execute_id = 0;
      for (const TraceSpan& span : spans)
        if (span.name == "execute") execute_id = span.id;
      ASSERT_NE(execute_id, 0u);
      EXPECT_EQ(plan_spans.front()->parent, execute_id);
    }
  }
  // The join query's plan keeps its Exchange at parallelism 4.
  SessionOptions parallel;
  parallel.parallelism = 4;
  StatusOr<std::string> explain = Session(&db_, parallel).Explain(queries[1]);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Exchange[4 workers]"), std::string::npos)
      << *explain;
}

TEST_F(TraceTest, TraceRowsMatchUntracedQuery) {
  Session session(&db_);
  const std::string sql = "SELECT * FROM r WHERE key < 25";
  StatusOr<TPRelation> plain = session.Query(sql);
  ASSERT_TRUE(plain.ok());
  StatusOr<Session::TraceResult> traced = session.Trace(sql);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(traced->rows, plain->size());
  const std::string tree = traced->trace.ToTreeString();
  EXPECT_NE(tree.find("query"), std::string::npos) << tree;
  EXPECT_NE(tree.find("ms"), std::string::npos);
}

TEST_F(TraceTest, SlowQueryLogCountsWhenThresholdCrossed) {
  Counter* slow = MetricsRegistry::Default().counter(
      "tpdb_engine_slow_queries_total", "engine", "");
  const uint64_t before = slow->Value();
  SlowQueryLog::SetThresholdMs(0.0);  // every finished query is "slow"
  Session session(&db_);
  ASSERT_TRUE(session.Query("SELECT * FROM r WHERE key < 10").ok());
  SlowQueryLog::SetThresholdMs(-1.0);  // back to disabled
  if (kMetricsCompiledIn)
    EXPECT_GT(slow->Value(), before);
  else
    EXPECT_EQ(slow->Value(), before);
  // Disabled again: no further counting.
  const uint64_t after = slow->Value();
  ASSERT_TRUE(session.Query("SELECT * FROM r WHERE key < 10").ok());
  EXPECT_EQ(slow->Value(), after);
}

}  // namespace
}  // namespace tpdb::obs
