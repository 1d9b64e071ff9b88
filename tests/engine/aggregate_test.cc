// Unit tests of the batch hash aggregate and limit, and of the row
// instrumentation wrapper.
#include <gtest/gtest.h>

#include "engine/explain.h"
#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/sort.h"
#include "engine/vector/batch_ops.h"
#include "lineage/lineage.h"
#include "tp/tp_relation.h"

namespace tpdb {
namespace {

Datum I(int64_t v) { return Datum(v); }

Table SalesTable() {
  Table t;
  t.schema.AddColumn({"region", DatumType::kString});
  t.schema.AddColumn({"units", DatumType::kInt64});
  t.schema.AddColumn({"price", DatumType::kDouble});
  t.rows = {
      {Datum("east"), I(3), Datum(1.5)},
      {Datum("west"), I(5), Datum(2.0)},
      {Datum("east"), I(2), Datum(4.0)},
      {Datum("east"), I(7), Datum(0.5)},
      {Datum("west"), I(1), Datum(3.0)},
  };
  return t;
}

/// Groups `input` on `group_by` with BatchHashAggregate. The input gets
/// the reserved interval and (certain) lineage columns the aggregate
/// requires; `out` names the output fact columns.
Table Aggregate(const Table& input, std::vector<int> group_by,
                std::vector<vec::BatchAggItem> aggs, std::vector<Column> out) {
  static LineageManager manager;
  Table flat = input;
  flat.schema.AddColumn({kTsColumn, DatumType::kInt64});
  flat.schema.AddColumn({kTeColumn, DatumType::kInt64});
  flat.schema.AddColumn({kLineageColumn, DatumType::kLineage});
  for (Row& row : flat.rows) {
    row.push_back(I(0));
    row.push_back(I(1));
    row.push_back(Datum(manager.True()));
  }
  Schema schema(std::move(out));
  schema.AddColumn({kTsColumn, DatumType::kInt64});
  schema.AddColumn({kTeColumn, DatumType::kInt64});
  schema.AddColumn({kLineageColumn, DatumType::kLineage});
  vec::BatchHashAggregate agg(std::make_unique<vec::TableBatchScan>(&flat),
                              std::move(group_by), std::move(aggs),
                              std::move(schema), &manager);
  return vec::MaterializeBatches(&agg);
}

constexpr vec::BatchAggFn kCount = vec::BatchAggFn::kCount;
constexpr vec::BatchAggFn kSum = vec::BatchAggFn::kSum;
constexpr vec::BatchAggFn kMin = vec::BatchAggFn::kMin;
constexpr vec::BatchAggFn kMax = vec::BatchAggFn::kMax;

TEST(HashAggregate, CountPerGroup) {
  const Table t = SalesTable();
  const Table out = Aggregate(t, {0}, {{kCount, -1}},
                              {{"region", DatumType::kString},
                               {"n", DatumType::kInt64}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.rows[0][0].AsString(), "east");
  EXPECT_EQ(out.rows[0][1].AsInt64(), 3);
  EXPECT_EQ(out.rows[1][0].AsString(), "west");
  EXPECT_EQ(out.rows[1][1].AsInt64(), 2);
}

TEST(HashAggregate, SumMinMax) {
  const Table t = SalesTable();
  const Table out =
      Aggregate(t, {0}, {{kSum, 1}, {kMin, 2}, {kMax, 2}},
                {{"region", DatumType::kString},
                 {"total", DatumType::kInt64},
                 {"lo", DatumType::kDouble},
                 {"hi", DatumType::kDouble}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.rows[0][1].AsInt64(), 12);  // east: 3+2+7
  EXPECT_DOUBLE_EQ(out.rows[0][2].AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(out.rows[0][3].AsDouble(), 4.0);
  EXPECT_EQ(out.rows[1][1].AsInt64(), 6);  // west: 5+1
}

TEST(HashAggregate, DoubleSum) {
  const Table t = SalesTable();
  const Table out = Aggregate(t, {0}, {{kSum, 2}},
                              {{"region", DatumType::kString},
                               {"revenue", DatumType::kDouble}});
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), 6.0);  // east 1.5+4.0+0.5
}

TEST(HashAggregate, NullsIgnoredInAggregates) {
  Table t;
  t.schema.AddColumn({"g", DatumType::kInt64});
  t.schema.AddColumn({"v", DatumType::kInt64});
  t.rows = {{I(1), I(5)}, {I(1), Datum::Null()}, {I(1), I(3)}};
  const Table out = Aggregate(t, {0}, {{kSum, 1}, {kCount, -1}},
                              {{"g", DatumType::kInt64},
                               {"s", DatumType::kInt64},
                               {"n", DatumType::kInt64}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows[0][1].AsInt64(), 8);
  EXPECT_EQ(out.rows[0][2].AsInt64(), 3);  // COUNT(*) counts null rows
}

TEST(HashAggregate, EmptyInputNoGroups) {
  Table t;
  t.schema.AddColumn({"g", DatumType::kInt64});
  EXPECT_EQ(Aggregate(t, {0}, {{kCount, -1}},
                      {{"g", DatumType::kInt64}, {"n", DatumType::kInt64}})
                .size(),
            0u);
}

TEST(HashAggregate, MultiColumnGroups) {
  Table t;
  t.schema.AddColumn({"a", DatumType::kInt64});
  t.schema.AddColumn({"b", DatumType::kInt64});
  t.rows = {{I(1), I(1)}, {I(1), I(2)}, {I(1), I(1)}, {I(2), I(1)}};
  const Table out = Aggregate(t, {0, 1}, {{kCount, -1}},
                              {{"a", DatumType::kInt64},
                               {"b", DatumType::kInt64},
                               {"n", DatumType::kInt64}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.rows[0][2].AsInt64(), 2);  // (1,1)
}

TEST(Limit, BoundsAndOffsets) {
  const Table t = SalesTable();
  const auto limited = [&t](size_t limit, size_t offset) {
    vec::BatchLimit op(std::make_unique<vec::TableBatchScan>(&t), limit,
                       offset);
    return vec::MaterializeBatches(&op);
  };
  EXPECT_EQ(limited(2, 0).size(), 2u);
  const Table out = limited(10, 3);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.rows[0][1].AsInt64(), 7);  // 4th row
  EXPECT_EQ(limited(0, 0).size(), 0u);
  EXPECT_EQ(limited(5, 99).size(), 0u);
}

TEST(Explain, CountsRowsPerNode) {
  // The count is the rows a consumer pulled, not the input's size: stop
  // after 3 of the 5 rows.
  const Table t = SalesTable();
  ExecStats stats;
  OperatorPtr scan =
      Instrument("scan", std::make_unique<TableScan>(&t), &stats);
  scan->Open();
  Row row;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(scan->Next(&row));
  scan->Close();
  ASSERT_EQ(stats.nodes().size(), 1u);
  EXPECT_EQ(stats.nodes()[0]->rows, 3u);
  EXPECT_EQ(stats.nodes()[0]->open_calls, 1u);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("rows=3"), std::string::npos);
}

TEST(Explain, CountsRowsPerNodeUnderASort) {
  const Table t = SalesTable();
  ExecStats stats;
  OperatorPtr plan =
      Instrument("scan", std::make_unique<TableScan>(&t), &stats);
  plan = Instrument(
      "sort",
      std::make_unique<Sort>(std::move(plan),
                             std::vector<SortKey>{SortKey{1, true}}),
      &stats);
  EXPECT_EQ(Drain(plan.get()), 5u);
  ASSERT_EQ(stats.nodes().size(), 2u);
  EXPECT_EQ(stats.nodes()[0]->rows, 5u);  // the sort pulled every row
  EXPECT_EQ(stats.nodes()[1]->rows, 5u);
  EXPECT_EQ(stats.nodes()[0]->open_calls, 1u);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("rows=5"), std::string::npos);
}

TEST(Explain, TimeIsInclusiveOfChildren) {
  const Table t = SalesTable();
  ExecStats stats;
  OperatorPtr plan =
      Instrument("inner", std::make_unique<TableScan>(&t), &stats);
  plan = Instrument("outer", std::move(plan), &stats);
  Drain(plan.get());
  EXPECT_GE(stats.nodes()[1]->seconds, stats.nodes()[0]->seconds);
}

}  // namespace
}  // namespace tpdb
