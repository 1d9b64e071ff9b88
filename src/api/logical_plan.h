// Logical query plans — the middle stage of the layered API. A plan is a
// tree of typed nodes built either from a parsed SelectStatement
// (BuildLogicalPlan) or programmatically through the fluent QueryBuilder;
// the planner (api/planner.h) lowers it onto engine/ operator pipelines and
// tp/ window plans. Names are still unresolved at this level: binding
// against the catalog happens in the planner.
#ifndef TPDB_API_LOGICAL_PLAN_H_
#define TPDB_API_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/ast.h"
#include "common/status.h"

namespace tpdb {

/// Node types of the logical algebra.
enum class LogicalOp {
  kScan,           ///< read one named catalog relation
  kFilter,         ///< σ over fact / _ts / _te columns
  kProject,        ///< π over fact columns (interval + lineage are kept)
  kJoin,           ///< TP join (Table II) of the two children
  kSetOp,          ///< TP union / intersection / difference
  kAggregate,      ///< grouped aggregation with lineage disjunction
  kSort,           ///< ORDER BY
  kLimit,          ///< LIMIT / OFFSET
  kProbThreshold,  ///< WITH PROB >= p over exact lineage probabilities
  kSaveSnapshot,   ///< persist the whole database (storage/snapshot.h)
  kLoadSnapshot,   ///< restore a snapshot into this database
};

const char* LogicalOpName(LogicalOp op);

struct LogicalNode;
using LogicalNodePtr = std::unique_ptr<LogicalNode>;

/// One node of a logical plan. Only the payload fields of its `op` are
/// meaningful; factory functions below construct each shape.
struct LogicalNode {
  LogicalOp op = LogicalOp::kScan;
  std::vector<LogicalNodePtr> children;

  std::string relation;                      // kScan
  AstExprPtr predicate;                      // kFilter
  std::vector<std::string> columns;          // kProject
  std::vector<std::string> aliases;          // kProject ("" = keep name)
  TPJoinKind join_kind = TPJoinKind::kInner;                    // kJoin
  std::vector<std::pair<std::string, std::string>> join_on;     // kJoin
  JoinStrategy strategy = JoinStrategy::kLineageAware;          // kJoin
  SetOpKind set_op = SetOpKind::kUnion;      // kSetOp
  std::vector<std::string> group_by;         // kAggregate
  std::vector<std::string> group_aliases;    // kAggregate ("" = keep name)
  std::vector<SelectItem> aggregates;        // kAggregate
  std::vector<OrderItem> order_by;           // kSort
  int64_t limit = 0;                         // kLimit
  int64_t offset = 0;                        // kLimit
  double min_prob = 0.0;                     // kProbThreshold
  bool min_prob_strict = false;              // kProbThreshold
  double approx_eps = 0.0;                   // kProbThreshold (0 = none)
  double approx_delta = 0.0;                 // kProbThreshold
  std::string snapshot_path;                 // kSaveSnapshot / kLoadSnapshot

  static LogicalNodePtr Scan(std::string relation);
  static LogicalNodePtr Filter(LogicalNodePtr child, AstExprPtr predicate);
  static LogicalNodePtr Project(LogicalNodePtr child,
                                std::vector<std::string> columns,
                                std::vector<std::string> aliases = {});
  static LogicalNodePtr Join(
      LogicalNodePtr left, LogicalNodePtr right, TPJoinKind kind,
      std::vector<std::pair<std::string, std::string>> on,
      JoinStrategy strategy = JoinStrategy::kLineageAware);
  static LogicalNodePtr SetOp(LogicalNodePtr left, LogicalNodePtr right,
                              SetOpKind kind);
  static LogicalNodePtr Aggregate(LogicalNodePtr child,
                                  std::vector<std::string> group_by,
                                  std::vector<SelectItem> aggregates);
  static LogicalNodePtr Sort(LogicalNodePtr child,
                             std::vector<OrderItem> order_by);
  static LogicalNodePtr Limit(LogicalNodePtr child, int64_t limit,
                              int64_t offset = 0);
  static LogicalNodePtr ProbThreshold(LogicalNodePtr child, double min_prob,
                                      bool strict = false);
  static LogicalNodePtr SaveSnapshot(std::string path);
  static LogicalNodePtr LoadSnapshot(std::string path);

  /// One-line description of this node, e.g. "Join[LEFT OUTER, on Loc=Loc]".
  std::string Label() const;

  /// Multi-line indented tree rendering (this node and its subtree).
  std::string ToString(int indent = 0) const;
};

/// A complete logical plan (owning its node tree).
struct LogicalPlan {
  LogicalNodePtr root;

  std::string ToString() const { return root ? root->ToString() : "<empty>"; }
};

/// Lowers a parsed statement into a logical plan. Per core:
/// Scan → Join* → Filter → Aggregate|Project; then set operations fold the
/// cores, and ProbThreshold → Sort → Limit apply to the combined result.
StatusOr<LogicalPlan> BuildLogicalPlan(const SelectStatement& stmt);

/// Same for a top-level statement; snapshot statements become single
/// kSaveSnapshot / kLoadSnapshot root nodes.
StatusOr<LogicalPlan> BuildLogicalPlan(const ParsedStatement& stmt);

/// Fluent construction of logical plans, bypassing the string front end:
///
///   StatusOr<LogicalPlan> plan =
///       QueryBuilder("wants")
///           .Join(TPJoinKind::kLeftOuter, "hotels", "Loc")
///           .Where("Loc = 'ZAK'")
///           .OrderBy("Name")
///           .Limit(10)
///           .WithMinProb(0.2)
///           .Build();
///
/// A builder wraps a SelectStatement, so a builder chain and the equivalent
/// query text produce identical plans. Errors (e.g. an unparsable Where
/// string) are deferred and reported by Build().
class QueryBuilder {
 public:
  /// Starts a query reading `from` (SELECT * FROM from).
  explicit QueryBuilder(std::string from);

  /// Restricts the output to `columns` (π). `aliases`, when given, renames
  /// them pairwise.
  QueryBuilder& Select(std::vector<std::string> columns,
                       std::vector<std::string> aliases = {});

  /// Adds an aggregate to the select list, e.g. Aggregate(AggFn::kCount,
  /// "*", "n"). Combine with GroupBy for grouped aggregation.
  QueryBuilder& Aggregate(AggFn fn, std::string column,
                          std::string alias = "");
  QueryBuilder& GroupBy(std::vector<std::string> columns);

  /// Appends a join clause against `relation` with explicit ON pairs.
  QueryBuilder& Join(TPJoinKind kind, std::string relation,
                     std::vector<std::pair<std::string, std::string>> on,
                     bool using_ta = false);
  /// Convenience: single shared-name equality column.
  QueryBuilder& Join(TPJoinKind kind, std::string relation,
                     const std::string& column, bool using_ta = false);

  /// Sets the WHERE predicate (AND-ed onto an existing one).
  QueryBuilder& Where(AstExprPtr predicate);
  /// Same, parsing the WHERE sub-language, e.g. "Loc = 'ZAK' AND _ts >= 4".
  QueryBuilder& Where(const std::string& predicate);

  /// Combines with another builder's core via a set operation. The other
  /// builder must not carry ORDER BY / LIMIT / WITH PROB modifiers.
  QueryBuilder& Union(const QueryBuilder& other);
  QueryBuilder& Intersect(const QueryBuilder& other);
  QueryBuilder& Except(const QueryBuilder& other);

  QueryBuilder& OrderBy(std::string column, bool ascending = true);
  QueryBuilder& Limit(int64_t limit, int64_t offset = 0);
  QueryBuilder& WithMinProb(double min_prob, bool strict = false);
  /// WITH PROB APPROX(eps, delta) >= min_prob: sampled evaluation with an
  /// (eps, delta) accuracy contract instead of exact probabilities.
  QueryBuilder& WithMinProbApprox(double min_prob, double eps, double delta,
                                  bool strict = false);

  /// The statement assembled so far.
  const SelectStatement& statement() const { return stmt_; }

  /// Builds the logical plan (or the first deferred error).
  StatusOr<LogicalPlan> Build() const;

 private:
  QueryBuilder& AddSetOp(SetOpKind kind, const QueryBuilder& other);

  SelectStatement stmt_;
  Status error_;  // first deferred error, reported by Build()
};

}  // namespace tpdb

#endif  // TPDB_API_LOGICAL_PLAN_H_
