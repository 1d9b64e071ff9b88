// Abstract syntax of the query language: scalar predicate expressions and
// SELECT statements. The parser (api/parser.h) produces these; the logical
// plan builder (api/logical_plan.h) consumes them. The AST is deliberately
// name-based — columns and relations are resolved against the catalog only
// when the planner lowers the plan, so a statement can be built (by hand,
// by QueryBuilder, or by the parser) without a database in scope.
#ifndef TPDB_API_AST_H_
#define TPDB_API_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/datum.h"
#include "engine/expr.h"
#include "tp/operators.h"

namespace tpdb {

// -- Scalar predicate expressions -----------------------------------------

/// Node kinds of the predicate AST (kNot and kIsNull use `left` only).
enum class AstExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kAnd,
  kOr,
  kNot,
  kIsNull,
};

struct AstExpr;
using AstExprPtr = std::shared_ptr<const AstExpr>;

/// Immutable predicate node. Only the fields of its `kind` are meaningful.
struct AstExpr {
  AstExprKind kind = AstExprKind::kLiteral;
  std::string column;                      ///< kColumn: unresolved name
  Datum literal;                           ///< kLiteral
  CompareOp compare_op = CompareOp::kEq;   ///< kCompare
  AstExprPtr left;
  AstExprPtr right;

  /// SQL-ish rendering, e.g. "(Loc = 'ZAK' AND _ts >= 4)".
  std::string ToString() const;
};

AstExprPtr AstColumn(std::string name);
AstExprPtr AstLiteral(Datum value);
AstExprPtr AstCompare(CompareOp op, AstExprPtr a, AstExprPtr b);
AstExprPtr AstAnd(AstExprPtr a, AstExprPtr b);
AstExprPtr AstOr(AstExprPtr a, AstExprPtr b);
AstExprPtr AstNot(AstExprPtr a);
AstExprPtr AstIsNull(AstExprPtr a);

/// The symbol of `op` ("=", "<>", "<", "<=", ">", ">=").
const char* CompareOpSymbol(CompareOp op);

// -- SELECT statements ----------------------------------------------------

/// Aggregate functions of the select list.
enum class AggFn { kCount, kSum, kMin, kMax };

/// One entry of the select list: a plain column or an aggregate call.
struct SelectItem {
  bool is_aggregate = false;
  AggFn fn = AggFn::kCount;  ///< aggregate function (is_aggregate only)
  std::string column;        ///< source column; "*" for COUNT(*)
  std::string alias;         ///< output name ("" = derived from the source)

  static SelectItem Col(std::string column, std::string alias = "");
  static SelectItem Agg(AggFn fn, std::string column, std::string alias = "");

  /// e.g. "Loc", "SUM(Price) AS total".
  std::string ToString() const;
};

/// One JOIN clause of a select core.
struct JoinClause {
  TPJoinKind kind = TPJoinKind::kInner;
  std::string relation;
  /// ON terms: (left column, right column) equality pairs.
  std::vector<std::pair<std::string, std::string>> on;
  /// USING TA — run the Temporal Alignment baseline instead of NJ.
  bool using_ta = false;
};

/// One ORDER BY key.
struct OrderItem {
  std::string column;
  bool ascending = true;
};

/// Set operations combining select cores.
enum class SetOpKind { kUnion, kIntersect, kExcept };

const char* SetOpKindName(SetOpKind kind);

/// SELECT ... FROM ... [JOIN ...] [WHERE ...] [GROUP BY ...] — everything
/// that produces one relation before set operations and output modifiers.
struct SelectCore {
  std::vector<SelectItem> items;  ///< empty = SELECT *
  std::string from;
  std::vector<JoinClause> joins;
  AstExprPtr where;               ///< null = no WHERE
  std::vector<std::string> group_by;
};

/// A full query: a core, optional set operations against further cores,
/// and the output modifiers ORDER BY / LIMIT / WITH PROB.
struct SelectStatement {
  SelectCore core;
  std::vector<std::pair<SetOpKind, SelectCore>> set_ops;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  int64_t offset = 0;
  /// WITH PROB >= p (or > p when `min_prob_strict`): keep only result
  /// tuples whose exact lineage probability clears the threshold.
  std::optional<double> min_prob;
  bool min_prob_strict = false;
  /// WITH PROB APPROX(eps, delta) >= p: exact where affordable; a
  /// probability the Shannon expansion budget cannot finish is sampled to
  /// P(|p̂ − p| ≤ eps) ≥ 1 − delta. 0 = no contract.
  double approx_eps = 0.0;
  double approx_delta = 0.0;
};

// -- Top-level statements -------------------------------------------------

/// Statement forms of the query language beyond SELECT.
enum class StatementKind {
  kSelect,        ///< SELECT ... (or a legacy one-liner)
  kSaveSnapshot,  ///< SAVE SNAPSHOT 'path'
  kLoadSnapshot,  ///< LOAD SNAPSHOT 'path'
};

/// One parsed top-level statement. Only the payload of its `kind` is
/// meaningful.
struct ParsedStatement {
  StatementKind kind = StatementKind::kSelect;
  SelectStatement select;      ///< kSelect
  std::string snapshot_path;   ///< kSaveSnapshot / kLoadSnapshot
};

}  // namespace tpdb

#endif  // TPDB_API_AST_H_
