#include "tp/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "lineage/probability.h"
#include "tests/reference/fixtures.h"
#include "tests/reference/reference.h"

namespace tpdb {
namespace {

using testing::BruteForceProbability;
using testing::MakeFig1Example;
using testing::MakeRandomRelation;
using testing::RandomRelationOptions;

TEST(TemporalAggregate, EmptyRelation) {
  LineageManager mgr;
  Schema schema;
  schema.AddColumn({"k", DatumType::kInt64});
  TPRelation rel("r", schema, &mgr);
  StatusOr<std::vector<TemporalAggregateRow>> agg = TemporalAggregate(rel);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->empty());
}

TEST(TemporalAggregate, Fig1HotelAvailabilityTimeline) {
  auto fx = MakeFig1Example();
  StatusOr<std::vector<TemporalAggregateRow>> agg =
      TemporalAggregate(*fx->b);
  ASSERT_TRUE(agg.ok());
  // b: b1 [1,4) 0.9, b3 [4,6) 0.7, b2 [5,8) 0.6 -> runs:
  // [1,4)={b1}, [4,5)={b3}, [5,6)={b3,b2}, [6,8)={b2}.
  ASSERT_EQ(agg->size(), 4u);
  EXPECT_EQ((*agg)[0].interval, Interval(1, 4));
  EXPECT_EQ((*agg)[0].valid_tuples, 1u);
  EXPECT_NEAR((*agg)[0].expected_count, 0.9, 1e-12);
  EXPECT_NEAR((*agg)[0].prob_any, 0.9, 1e-12);

  EXPECT_EQ((*agg)[2].interval, Interval(5, 6));
  EXPECT_EQ((*agg)[2].valid_tuples, 2u);
  EXPECT_NEAR((*agg)[2].expected_count, 0.7 + 0.6, 1e-12);
  EXPECT_NEAR((*agg)[2].prob_any, 1.0 - 0.3 * 0.4, 1e-12);
  EXPECT_NEAR((*agg)[2].prob_none, 0.3 * 0.4, 1e-12);

  EXPECT_EQ((*agg)[3].interval, Interval(6, 8));
  EXPECT_NEAR((*agg)[3].expected_count, 0.6, 1e-12);
}

TEST(TemporalAggregate, IncludeEmptyRunsFillsGaps) {
  LineageManager mgr;
  Schema schema;
  schema.AddColumn({"k", DatumType::kInt64});
  TPRelation rel("r", schema, &mgr);
  ASSERT_TRUE(rel.AppendBase({Datum(static_cast<int64_t>(1))},
                             Interval(0, 2), 0.5)
                  .ok());
  ASSERT_TRUE(rel.AppendBase({Datum(static_cast<int64_t>(2))},
                             Interval(5, 7), 0.5)
                  .ok());
  TemporalAggregateOptions options;
  options.include_empty_runs = true;
  StatusOr<std::vector<TemporalAggregateRow>> agg =
      TemporalAggregate(rel, options);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 3u);
  EXPECT_EQ((*agg)[1].interval, Interval(2, 5));
  EXPECT_EQ((*agg)[1].valid_tuples, 0u);
  EXPECT_DOUBLE_EQ((*agg)[1].prob_none, 1.0);
}

TEST(TemporalAggregate, WindowClipsTimeline) {
  auto fx = MakeFig1Example();
  TemporalAggregateOptions options;
  options.window = Interval(5, 7);
  StatusOr<std::vector<TemporalAggregateRow>> agg =
      TemporalAggregate(*fx->b, options);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->size(), 2u);  // [5,6)={b3,b2}, [6,7)={b2}
  EXPECT_EQ((*agg)[0].interval, Interval(5, 6));
  EXPECT_EQ((*agg)[1].interval, Interval(6, 7));
}

TEST(TemporalAggregate, RunsTileTheExtentAndAreMaximal) {
  LineageManager mgr;
  Random rng(3);
  RandomRelationOptions opts;
  opts.num_tuples = 25;
  auto rel = MakeRandomRelation(&mgr, "r", opts, &rng);
  TemporalAggregateOptions options;
  options.include_empty_runs = true;
  StatusOr<std::vector<TemporalAggregateRow>> agg =
      TemporalAggregate(*rel, options);
  ASSERT_TRUE(agg.ok());
  ASSERT_FALSE(agg->empty());
  for (size_t i = 1; i < agg->size(); ++i) {
    // Tiling: runs are adjacent and ordered.
    EXPECT_EQ((*agg)[i - 1].interval.end, (*agg)[i].interval.start);
  }
  // Spot-check counts against direct evaluation at each run's midpoint.
  for (const TemporalAggregateRow& row : *agg) {
    const TimePoint t = row.interval.start;
    size_t valid = 0;
    double expected = 0.0;
    ProbabilityEngine prob(&mgr);
    for (size_t i = 0; i < rel->size(); ++i) {
      if (!rel->tuple(i).interval.Contains(t)) continue;
      ++valid;
      expected += prob.Probability(rel->tuple(i).lineage);
    }
    EXPECT_EQ(row.valid_tuples, valid) << row.interval.ToString();
    EXPECT_NEAR(row.expected_count, expected, 1e-9);
  }
}

TEST(TemporalAggregate, ProbAnyMatchesBruteForce) {
  LineageManager mgr;
  Random rng(9);
  RandomRelationOptions opts;
  opts.num_tuples = 10;
  auto rel = MakeRandomRelation(&mgr, "r", opts, &rng);
  StatusOr<std::vector<TemporalAggregateRow>> agg = TemporalAggregate(*rel);
  ASSERT_TRUE(agg.ok());
  for (const TemporalAggregateRow& row : *agg) {
    const TimePoint t = row.interval.start;
    std::vector<LineageRef> lineages;
    for (size_t i = 0; i < rel->size(); ++i)
      if (rel->tuple(i).interval.Contains(t))
        lineages.push_back(rel->tuple(i).lineage);
    ASSERT_FALSE(lineages.empty());
    const double brute = BruteForceProbability(&mgr, mgr.OrAll(lineages));
    EXPECT_NEAR(row.prob_any, brute, 1e-9) << row.interval.ToString();
  }
}

}  // namespace
}  // namespace tpdb
