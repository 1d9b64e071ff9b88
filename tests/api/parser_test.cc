#include "api/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "api/logical_plan.h"

namespace tpdb {
namespace {

// -- Malformed input: every case must return a Status, never crash --------

TEST(ParserErrorsTest, RejectsMalformedQueries) {
  const char* kBad[] = {
      "",
      "   ",
      "SELECT",
      "SELECT *",
      "SELECT * FROM",
      "SELECT FROM wants",
      "SELECT * FROM wants JOIN hotels",          // missing ON
      "SELECT * FROM wants JOIN hotels ON",       // dangling ON
      "SELECT * FROM wants JOIN hotels ON ,",     // empty condition list
      "SELECT * FROM wants SIDEWAYS JOIN hotels ON Loc",  // bad join kind
      "SELECT * FROM wants WHERE",
      "SELECT * FROM wants WHERE Loc",            // no comparison
      "SELECT * FROM wants WHERE Loc = ",
      "SELECT * FROM wants WHERE (Loc = 'ZAK'",   // unbalanced paren
      "SELECT * FROM wants WHERE Loc = 'ZAK",     // unterminated string
      "SELECT * FROM wants GROUP Loc",            // GROUP without BY
      "SELECT * FROM wants ORDER Name",           // ORDER without BY
      "SELECT * FROM wants ORDER BY",
      "SELECT * FROM wants LIMIT",
      "SELECT * FROM wants LIMIT abc",
      "SELECT * FROM wants LIMIT 2.5",
      "SELECT * FROM wants LIMIT 999999999999999999999",  // overflow
      "SELECT * FROM wants WITH PROB >= 0.7.9",           // malformed number
      "SELECT * FROM wants WITH PROB 0.5",        // missing >= / >
      "SELECT * FROM wants WITH PROB >=",
      "SELECT SUM(*) FROM wants",                 // * only valid for COUNT
      "SELECT COUNT( FROM wants",
      "SELECT * FROM wants UNION",
      "SELECT * FROM wants EXTRA tokens here",
      "SELECT * FROM wants @ hotels",             // bad character
      // Legacy forms.
      "wants",
      "wants FROB hotels",
      "wants SIDEWAYS JOIN hotels ON Loc",
      "wants LEFT JOIN hotels",
      "wants LEFT JOIN hotels ON",
      "wants LEFT JOIN hotels ON Loc EXTRA",
      "wants LEFT JOIN hotels ON Loc USING",      // USING without TA
  };
  for (const char* text : kBad) {
    StatusOr<SelectStatement> stmt = ParseQuery(text);
    EXPECT_FALSE(stmt.ok()) << "should not parse: '" << text << "'";
  }
}

TEST(ParserErrorsTest, RejectsMalformedPredicates) {
  const char* kBad[] = {"", "AND", "Loc =", "= 3", "Loc = 'ZAK' trailing",
                        "(a = 1", "a = 1 AND", "NOT"};
  for (const char* text : kBad) {
    EXPECT_FALSE(ParsePredicate(text).ok())
        << "should not parse predicate: '" << text << "'";
  }
}

// -- Structure of accepted queries ----------------------------------------

TEST(ParserTest, ParsesFullSelect) {
  StatusOr<SelectStatement> stmt = ParseQuery(
      "SELECT Name, Hotel AS H FROM wants "
      "LEFT OUTER JOIN hotels ON Loc = Loc USING TA "
      "WHERE Loc = 'ZAK' AND _ts >= 4 "
      "ORDER BY Name DESC, Hotel "
      "LIMIT 5 OFFSET 2 WITH PROB > 0.25");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->core.from, "wants");
  ASSERT_EQ(stmt->core.items.size(), 2u);
  EXPECT_EQ(stmt->core.items[0].column, "Name");
  EXPECT_EQ(stmt->core.items[1].column, "Hotel");
  EXPECT_EQ(stmt->core.items[1].alias, "H");
  ASSERT_EQ(stmt->core.joins.size(), 1u);
  EXPECT_EQ(stmt->core.joins[0].kind, TPJoinKind::kLeftOuter);
  EXPECT_EQ(stmt->core.joins[0].relation, "hotels");
  EXPECT_TRUE(stmt->core.joins[0].using_ta);
  ASSERT_EQ(stmt->core.joins[0].on.size(), 1u);
  EXPECT_EQ(stmt->core.joins[0].on[0].first, "Loc");
  ASSERT_NE(stmt->core.where, nullptr);
  EXPECT_EQ(stmt->core.where->kind, AstExprKind::kAnd);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  ASSERT_TRUE(stmt->limit.has_value());
  EXPECT_EQ(*stmt->limit, 5);
  EXPECT_EQ(stmt->offset, 2);
  ASSERT_TRUE(stmt->min_prob.has_value());
  EXPECT_DOUBLE_EQ(*stmt->min_prob, 0.25);
  EXPECT_TRUE(stmt->min_prob_strict);
}

TEST(ParserTest, ParsesAggregatesAndGroupBy) {
  StatusOr<SelectStatement> stmt = ParseQuery(
      "SELECT Station, COUNT(*) AS n, SUM(Temp), MIN(Temp), MAX(Temp) "
      "FROM readings GROUP BY Station");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->core.items.size(), 5u);
  EXPECT_FALSE(stmt->core.items[0].is_aggregate);
  EXPECT_TRUE(stmt->core.items[1].is_aggregate);
  EXPECT_EQ(stmt->core.items[1].fn, AggFn::kCount);
  EXPECT_EQ(stmt->core.items[1].column, "*");
  EXPECT_EQ(stmt->core.items[1].alias, "n");
  EXPECT_EQ(stmt->core.items[2].fn, AggFn::kSum);
  EXPECT_EQ(stmt->core.items[3].fn, AggFn::kMin);
  EXPECT_EQ(stmt->core.items[4].fn, AggFn::kMax);
  EXPECT_EQ(stmt->core.group_by, (std::vector<std::string>{"Station"}));
}

TEST(ParserTest, ParsesSetOperations) {
  StatusOr<SelectStatement> stmt = ParseQuery(
      "SELECT * FROM x UNION SELECT * FROM y WHERE v > 3 EXCEPT z");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->set_ops.size(), 2u);
  EXPECT_EQ(stmt->set_ops[0].first, SetOpKind::kUnion);
  EXPECT_EQ(stmt->set_ops[0].second.from, "y");
  ASSERT_NE(stmt->set_ops[0].second.where, nullptr);
  EXPECT_EQ(stmt->set_ops[1].first, SetOpKind::kExcept);
  EXPECT_EQ(stmt->set_ops[1].second.from, "z");
}

TEST(ParserTest, ParsesLegacyForms) {
  StatusOr<SelectStatement> join =
      ParseQuery("r ANTI JOIN s ON key=id, Loc USING TA");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join->core.from, "r");
  ASSERT_EQ(join->core.joins.size(), 1u);
  EXPECT_EQ(join->core.joins[0].kind, TPJoinKind::kAnti);
  ASSERT_EQ(join->core.joins[0].on.size(), 2u);
  EXPECT_EQ(join->core.joins[0].on[0],
            (std::pair<std::string, std::string>{"key", "id"}));
  EXPECT_EQ(join->core.joins[0].on[1],
            (std::pair<std::string, std::string>{"Loc", "Loc"}));
  EXPECT_TRUE(join->core.joins[0].using_ta);

  StatusOr<SelectStatement> uni = ParseQuery("x INTERSECT y");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->core.from, "x");
  ASSERT_EQ(uni->set_ops.size(), 1u);
  EXPECT_EQ(uni->set_ops[0].first, SetOpKind::kIntersect);
}

TEST(ParserTest, PredicateStructure) {
  StatusOr<AstExprPtr> pred = ParsePredicate(
      "(Loc = 'ZAK' OR Loc <> 'WEN') AND NOT Temp <= -0.5 AND Hotel IS "
      "NULL");
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_EQ((*pred)->kind, AstExprKind::kAnd);
  EXPECT_EQ((*pred)->ToString(),
            "((((Loc = 'ZAK') OR (Loc <> 'WEN')) AND (NOT (Temp <= -0.5))) "
            "AND (Hotel IS NULL))");
}

// -- QueryBuilder ≡ parsed text: identical logical plans ------------------

void ExpectSamePlan(const std::string& text, const QueryBuilder& builder) {
  StatusOr<SelectStatement> stmt = ParseQuery(text);
  ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  StatusOr<LogicalPlan> from_text = BuildLogicalPlan(*stmt);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  StatusOr<LogicalPlan> from_builder = builder.Build();
  ASSERT_TRUE(from_builder.ok()) << from_builder.status().ToString();
  EXPECT_EQ(from_text->ToString(), from_builder->ToString()) << text;
}

TEST(RoundTripTest, SelectStar) {
  ExpectSamePlan("SELECT * FROM wants", QueryBuilder("wants"));
}

TEST(RoundTripTest, FullQuery) {
  ExpectSamePlan(
      "SELECT Name, Hotel FROM wants LEFT JOIN hotels ON Loc "
      "WHERE Loc = 'ZAK' ORDER BY Name DESC LIMIT 5 OFFSET 1 "
      "WITH PROB >= 0.25",
      QueryBuilder("wants")
          .Join(TPJoinKind::kLeftOuter, "hotels", "Loc")
          .Where("Loc = 'ZAK'")
          .Select({"Name", "Hotel"})
          .OrderBy("Name", /*ascending=*/false)
          .Limit(5, 1)
          .WithMinProb(0.25));
}

TEST(RoundTripTest, JoinWithExplicitPairsAndTa) {
  ExpectSamePlan(
      "SELECT * FROM r ANTI JOIN s ON key=id USING TA",
      QueryBuilder("r").Join(TPJoinKind::kAnti, "s", {{"key", "id"}},
                             /*using_ta=*/true));
}

TEST(RoundTripTest, LegacyEqualsSelectForm) {
  // The legacy one-liner and the explicit SELECT produce the same plan.
  StatusOr<SelectStatement> legacy =
      ParseQuery("wants LEFT JOIN hotels ON Loc");
  StatusOr<SelectStatement> select =
      ParseQuery("SELECT * FROM wants LEFT JOIN hotels ON Loc");
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(BuildLogicalPlan(*legacy)->ToString(),
            BuildLogicalPlan(*select)->ToString());
}

TEST(RoundTripTest, Aggregates) {
  ExpectSamePlan(
      "SELECT Station, COUNT(*) AS n, SUM(Temp) FROM readings "
      "GROUP BY Station",
      QueryBuilder("readings")
          .Select({"Station"})
          .Aggregate(AggFn::kCount, "*", "n")
          .Aggregate(AggFn::kSum, "Temp")
          .GroupBy({"Station"}));
}

TEST(RoundTripTest, SetOps) {
  ExpectSamePlan("x UNION y", QueryBuilder("x").Union(QueryBuilder("y")));
  ExpectSamePlan(
      "SELECT * FROM x EXCEPT SELECT * FROM y WHERE v > 3",
      QueryBuilder("x").Except(QueryBuilder("y").Where("v > 3")));
}

TEST(ParserTest, ParsesProbApprox) {
  StatusOr<SelectStatement> stmt = ParseQuery(
      "SELECT * FROM wants WITH PROB APPROX(0.05, 0.01) >= 0.5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_DOUBLE_EQ(stmt->approx_eps, 0.05);
  EXPECT_DOUBLE_EQ(stmt->approx_delta, 0.01);
  ASSERT_TRUE(stmt->min_prob.has_value());
  EXPECT_DOUBLE_EQ(*stmt->min_prob, 0.5);
  EXPECT_FALSE(stmt->min_prob_strict);

  // Strict comparator composes with APPROX; plain PROB leaves eps at 0.
  StatusOr<SelectStatement> strict = ParseQuery(
      "SELECT * FROM wants WITH PROB APPROX(0.1, 0.2) > 0.25");
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_TRUE(strict->min_prob_strict);
  StatusOr<SelectStatement> plain =
      ParseQuery("SELECT * FROM wants WITH PROB >= 0.5");
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(plain->approx_eps, 0.0);

  // ~1.8e6 samples per tuple: within the sampler's cap.
  StatusOr<SelectStatement> fine = ParseQuery(
      "SELECT * FROM wants WITH PROB APPROX(0.001, 0.05) >= 0.5");
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_DOUBLE_EQ(fine->approx_eps, 0.001);
}

TEST(ParserErrorsTest, RejectsMalformedApprox) {
  const char* kBad[] = {
      "SELECT * FROM wants WITH PROB APPROX >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX( >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05 >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05,) >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05, 0.01 >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05, 0.01)",  // no threshold
      "SELECT * FROM wants WITH PROB APPROX(0, 0.01) >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(1.5, 0.01) >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05, 0) >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(0.05, 1) >= 0.5",
      "SELECT * FROM wants WITH PROB APPROX(-0.05, 0.01) >= 0.5",
  };
  for (const char* text : kBad) {
    StatusOr<SelectStatement> stmt = ParseQuery(text);
    EXPECT_FALSE(stmt.ok()) << "should not parse: '" << text << "'";
  }
  // eps = 1e-9 would need ~1.8e18 samples per tuple: a contract the
  // sampler cannot meet is refused up front, in either spelling.
  for (const char* text :
       {"SELECT * FROM wants WITH PROB APPROX(0.000000001, 0.05) >= 0.5",
        "SELECT * FROM wants WITH PROB APPROX(1e-9, 0.05) >= 0.5"}) {
    StatusOr<SelectStatement> tiny = ParseQuery(text);
    ASSERT_FALSE(tiny.ok()) << text;
    EXPECT_EQ(tiny.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(tiny.status().message().find("samples per tuple"),
              std::string::npos)
        << tiny.status().ToString();
  }
  EXPECT_FALSE(QueryBuilder("wants")
                   .WithMinProbApprox(0.5, 1e-9, 0.05)
                   .Build()
                   .ok());
}

/// The literal on the right of a parsed `lhs op literal` predicate.
Datum RightLiteral(const std::string& predicate) {
  StatusOr<AstExprPtr> pred = ParsePredicate(predicate);
  EXPECT_TRUE(pred.ok()) << predicate << ": " << pred.status().ToString();
  if (!pred.ok()) return Datum::Null();
  EXPECT_EQ((*pred)->kind, AstExprKind::kCompare) << predicate;
  return (*pred)->right->literal;
}

TEST(ParserTest, NumberLiteralsTakeExponentsAndTheFullInt64Range) {
  const Datum thousand = RightLiteral("key > 1e3");
  ASSERT_EQ(thousand.type(), DatumType::kDouble);
  EXPECT_EQ(thousand.AsDouble(), 1000.0);
  EXPECT_EQ(RightLiteral("key > 2.5E-2").AsDouble(), 0.025);
  EXPECT_EQ(RightLiteral("key > 1e+2").AsDouble(), 100.0);
  EXPECT_EQ(RightLiteral("key > -1e3").AsDouble(), -1000.0);
  const Datum min = RightLiteral("key > -9223372036854775808");
  ASSERT_EQ(min.type(), DatumType::kInt64);
  EXPECT_EQ(min.AsInt64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(RightLiteral("key < 9223372036854775807").AsInt64(),
            std::numeric_limits<int64_t>::max());

  StatusOr<SelectStatement> approx = ParseQuery(
      "SELECT * FROM wants WITH PROB APPROX(1e-2, 0.05) >= 5e-1");
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx->approx_eps, 0.01);
  EXPECT_EQ(*approx->min_prob, 0.5);
}

TEST(ParserErrorsTest, RejectsNumbersOutOfRangeAndDanglingExponents) {
  for (const char* text : {
           "SELECT * FROM wants WHERE key < 99999999999999999999",
           "SELECT * FROM wants WHERE key > -99999999999999999999",
           "SELECT * FROM wants WHERE key > 9223372036854775808",
           "SELECT * FROM wants WHERE key > -9223372036854775809",
           "SELECT * FROM wants WHERE key > 1e999",
           "SELECT * FROM wants WHERE key > -1e999",
           "SELECT * FROM wants WHERE key > 1e",
           "SELECT * FROM wants WHERE key > 1e+",
           "SELECT * FROM wants WHERE key > 1.5e- 3",
           "SELECT * FROM wants WITH PROB APPROX(1e999, 0.05) >= 0.5",
           "SELECT * FROM wants WITH PROB >= 1e999",
       }) {
    StatusOr<SelectStatement> stmt = ParseQuery(text);
    ASSERT_FALSE(stmt.ok()) << "should not parse: '" << text << "'";
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(RoundTripTest, BuilderDefersErrors) {
  // An unparsable Where string surfaces at Build(), not as a crash.
  StatusOr<LogicalPlan> plan =
      QueryBuilder("wants").Where("Loc = ").Build();
  EXPECT_FALSE(plan.ok());
  // A set-op operand with modifiers is rejected.
  StatusOr<LogicalPlan> bad_setop =
      QueryBuilder("x").Union(QueryBuilder("y").Limit(3)).Build();
  EXPECT_FALSE(bad_setop.ok());
  // GROUP BY without aggregates is rejected at plan building.
  EXPECT_FALSE(QueryBuilder("x").GroupBy({"a"}).Build().ok());
}

}  // namespace
}  // namespace tpdb
