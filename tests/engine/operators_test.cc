// Unit tests of the basic operators: the row scan, sort and materialize,
// the batch filter and project, plus schema/row utilities.
#include <gtest/gtest.h>

#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/sort.h"
#include "engine/vector/batch_ops.h"

namespace tpdb {
namespace {

Table MakeNumbersTable() {
  Table t;
  t.schema.AddColumn({"id", DatumType::kInt64});
  t.schema.AddColumn({"name", DatumType::kString});
  t.rows = {
      {Datum(static_cast<int64_t>(3)), Datum("c")},
      {Datum(static_cast<int64_t>(1)), Datum("a")},
      {Datum(static_cast<int64_t>(2)), Datum("b")},
      {Datum(static_cast<int64_t>(1)), Datum("a")},
  };
  return t;
}

/// Batch filter on `column = value` over a scan of `t`.
Table FilterEq(const Table& t, int column, int64_t value) {
  vec::BatchFilter filter(
      std::make_unique<vec::TableBatchScan>(&t),
      vec::VCompare(CompareOp::kEq, /*promote_numeric=*/false,
                    vec::VOperand::Column(column),
                    vec::VOperand::Literal(Datum(value))));
  return vec::MaterializeBatches(&filter);
}

TEST(Schema, IndexOfAndAdd) {
  Schema s;
  EXPECT_EQ(s.IndexOf("x"), -1);
  EXPECT_EQ(s.AddColumn({"x", DatumType::kInt64}), 0);
  EXPECT_EQ(s.AddColumn({"y", DatumType::kString}), 1);
  EXPECT_EQ(s.IndexOf("y"), 1);
  EXPECT_EQ(s.num_columns(), 2u);
}

TEST(Schema, ConcatDisambiguatesNames) {
  Schema a;
  a.AddColumn({"k", DatumType::kInt64});
  Schema b;
  b.AddColumn({"k", DatumType::kInt64});
  b.AddColumn({"v", DatumType::kDouble});
  const Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 3u);
  EXPECT_EQ(c.column(1).name, "k_r");
  EXPECT_EQ(c.IndexOf("v"), 2);
}

TEST(Schema, EqualityAndToString) {
  Schema a;
  a.AddColumn({"x", DatumType::kInt64});
  Schema b;
  b.AddColumn({"x", DatumType::kInt64});
  EXPECT_TRUE(a == b);
  b.AddColumn({"y", DatumType::kLineage});
  EXPECT_FALSE(a == b);
  EXPECT_EQ(b.ToString(), "x:int64, y:lineage");
}

TEST(RowUtils, CompareConcatNull) {
  const Row a = {Datum(static_cast<int64_t>(1))};
  const Row b = {Datum(static_cast<int64_t>(2))};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
  EXPECT_LT(CompareRows(a, ConcatRows(a, b)), 0);  // prefix sorts first
  EXPECT_EQ(ConcatRows(a, b).size(), 2u);
  EXPECT_EQ(NullRow(3).size(), 3u);
  EXPECT_TRUE(NullRow(3)[1].is_null());
  EXPECT_EQ(RowToString(ConcatRows(a, b)), "1 | 2");
}

TEST(TableScan, ProducesAllRowsAndSupportsReopen) {
  const Table t = MakeNumbersTable();
  TableScan scan(&t);
  EXPECT_EQ(Drain(&scan), 4u);
  EXPECT_EQ(Drain(&scan), 4u);  // reopen
}

TEST(Filter, KeepsOnlyMatchingRows) {
  const Table out = FilterEq(MakeNumbersTable(), 0, 1);
  ASSERT_EQ(out.size(), 2u);
  for (const Row& row : out.rows) EXPECT_EQ(row[0].AsInt64(), 1);
}

TEST(Filter, NullPredicateDropsRow) {
  Table t;
  t.schema.AddColumn({"x", DatumType::kInt64});
  t.rows = {{Datum(static_cast<int64_t>(1))}, {Datum::Null()}};
  EXPECT_EQ(FilterEq(t, 0, 1).size(), 1u);
}

TEST(Project, SelectsReordersRenames) {
  const Table t = MakeNumbersTable();
  vec::BatchProject project(std::make_unique<vec::TableBatchScan>(&t),
                            {1, 0}, {"n", "i"});
  const Table out = vec::MaterializeBatches(&project);
  EXPECT_EQ(out.schema.ToString(), "n:string, i:int64");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.rows[0][0].AsString(), "c");
  EXPECT_EQ(out.rows[0][1].AsInt64(), 3);
}

TEST(Sort, OrdersByKeys) {
  const Table t = MakeNumbersTable();
  Sort sort(std::make_unique<TableScan>(&t), {{0, true}});
  const Table out = Materialize(&sort);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.rows[0][0].AsInt64(), 1);
  EXPECT_EQ(out.rows[3][0].AsInt64(), 3);
}

TEST(Sort, DescendingAndMultiKey) {
  const Table t = MakeNumbersTable();
  Sort sort(std::make_unique<TableScan>(&t), {{0, false}, {1, true}});
  const Table out = Materialize(&sort);
  EXPECT_EQ(out.rows[0][0].AsInt64(), 3);
  EXPECT_EQ(out.rows[3][0].AsInt64(), 1);
}

TEST(Sort, StableForEqualKeys) {
  Table t;
  t.schema.AddColumn({"k", DatumType::kInt64});
  t.schema.AddColumn({"seq", DatumType::kInt64});
  for (int64_t i = 0; i < 6; ++i)
    t.rows.push_back({Datum(static_cast<int64_t>(0)), Datum(i)});
  Sort sort(std::make_unique<TableScan>(&t), {{0, true}});
  const Table out = Materialize(&sort);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(out.rows[i][1].AsInt64(), i);
}

TEST(Materialize, PreservesSchemaAndOrder) {
  const Table t = MakeNumbersTable();
  TableScan scan(&t);
  const Table out = Materialize(&scan);
  EXPECT_TRUE(out.schema == t.schema);
  ASSERT_EQ(out.size(), t.size());
  for (size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(CompareRows(out.rows[i], t.rows[i]), 0);
}

TEST(Pipeline, ComposedOperatorsWork) {
  // σ(id <= 2) then π(name), then a sort.
  const Table t = MakeNumbersTable();
  vec::BatchOperatorPtr plan = std::make_unique<vec::TableBatchScan>(&t);
  plan = std::make_unique<vec::BatchFilter>(
      std::move(plan),
      vec::VCompare(CompareOp::kLe, /*promote_numeric=*/false,
                    vec::VOperand::Column(0),
                    vec::VOperand::Literal(Datum(static_cast<int64_t>(2)))));
  plan = std::make_unique<vec::BatchProject>(std::move(plan),
                                             std::vector<int>{1});
  const Table projected = vec::MaterializeBatches(plan.get());
  Sort sort(std::make_unique<TableScan>(&projected), {{0, true}});
  const Table out = Materialize(&sort);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.rows[0][0].AsString(), "a");
  EXPECT_EQ(out.rows[1][0].AsString(), "a");
  EXPECT_EQ(out.rows[2][0].AsString(), "b");
}

}  // namespace
}  // namespace tpdb
