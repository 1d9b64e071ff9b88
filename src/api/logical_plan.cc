#include "api/logical_plan.h"

#include <algorithm>
#include <cstdio>

#include "api/parser.h"
#include "common/strings.h"
#include "lineage/monte_carlo.h"
#include "tp/operators.h"

namespace tpdb {

const char* LogicalOpName(LogicalOp op) {
  switch (op) {
    case LogicalOp::kScan: return "Scan";
    case LogicalOp::kFilter: return "Filter";
    case LogicalOp::kProject: return "Project";
    case LogicalOp::kJoin: return "Join";
    case LogicalOp::kSetOp: return "SetOp";
    case LogicalOp::kAggregate: return "Aggregate";
    case LogicalOp::kSort: return "Sort";
    case LogicalOp::kLimit: return "Limit";
    case LogicalOp::kProbThreshold: return "ProbThreshold";
    case LogicalOp::kSaveSnapshot: return "SaveSnapshot";
    case LogicalOp::kLoadSnapshot: return "LoadSnapshot";
  }
  return "?";
}

LogicalNodePtr LogicalNode::Scan(std::string relation) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kScan;
  node->relation = std::move(relation);
  return node;
}

LogicalNodePtr LogicalNode::Filter(LogicalNodePtr child,
                                   AstExprPtr predicate) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kFilter;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::Project(LogicalNodePtr child,
                                    std::vector<std::string> columns,
                                    std::vector<std::string> aliases) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kProject;
  node->columns = std::move(columns);
  node->aliases = std::move(aliases);
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::Join(
    LogicalNodePtr left, LogicalNodePtr right, TPJoinKind kind,
    std::vector<std::pair<std::string, std::string>> on,
    JoinStrategy strategy) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kJoin;
  node->join_kind = kind;
  node->join_on = std::move(on);
  node->strategy = strategy;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

LogicalNodePtr LogicalNode::SetOp(LogicalNodePtr left, LogicalNodePtr right,
                                  SetOpKind kind) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kSetOp;
  node->set_op = kind;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

LogicalNodePtr LogicalNode::Aggregate(LogicalNodePtr child,
                                      std::vector<std::string> group_by,
                                      std::vector<SelectItem> aggregates) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kAggregate;
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggregates);
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::Sort(LogicalNodePtr child,
                                 std::vector<OrderItem> order_by) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kSort;
  node->order_by = std::move(order_by);
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::Limit(LogicalNodePtr child, int64_t limit,
                                  int64_t offset) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kLimit;
  node->limit = limit;
  node->offset = offset;
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::ProbThreshold(LogicalNodePtr child,
                                          double min_prob, bool strict) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kProbThreshold;
  node->min_prob = min_prob;
  node->min_prob_strict = strict;
  node->children.push_back(std::move(child));
  return node;
}

LogicalNodePtr LogicalNode::SaveSnapshot(std::string path) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kSaveSnapshot;
  node->snapshot_path = std::move(path);
  return node;
}

LogicalNodePtr LogicalNode::LoadSnapshot(std::string path) {
  auto node = std::make_unique<LogicalNode>();
  node->op = LogicalOp::kLoadSnapshot;
  node->snapshot_path = std::move(path);
  return node;
}

std::string LogicalNode::Label() const {
  switch (op) {
    case LogicalOp::kScan:
      return "Scan(" + relation + ")";
    case LogicalOp::kFilter:
      return "Filter[" + (predicate ? predicate->ToString() : "true") + "]";
    case LogicalOp::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < columns.size(); ++i) {
        std::string part = columns[i];
        if (i < aliases.size() && !aliases[i].empty() &&
            aliases[i] != columns[i])
          part += " AS " + aliases[i];
        parts.push_back(std::move(part));
      }
      return "Project[" + tpdb::Join(parts, ", ") + "]";
    }
    case LogicalOp::kJoin: {
      std::vector<std::string> terms;
      for (const auto& [l, r] : join_on) terms.push_back(l + "=" + r);
      std::string label = std::string("Join[") + TPJoinKindName(join_kind) +
                          ", on " + tpdb::Join(terms, ",");
      if (strategy == JoinStrategy::kTemporalAlignment) label += ", TA";
      return label + "]";
    }
    case LogicalOp::kSetOp:
      return std::string("SetOp[") + SetOpKindName(set_op) + "]";
    case LogicalOp::kAggregate: {
      std::vector<std::string> parts;
      for (const SelectItem& item : aggregates)
        parts.push_back(item.ToString());
      std::string label = "Aggregate[" + tpdb::Join(parts, ", ");
      if (!group_by.empty())
        label += " BY " + tpdb::Join(group_by, ", ");
      return label + "]";
    }
    case LogicalOp::kSort: {
      std::vector<std::string> parts;
      for (const OrderItem& item : order_by)
        parts.push_back(item.column + (item.ascending ? " ASC" : " DESC"));
      return "Sort[" + tpdb::Join(parts, ", ") + "]";
    }
    case LogicalOp::kLimit: {
      std::string label = "Limit[" + std::to_string(limit);
      if (offset > 0) label += " OFFSET " + std::to_string(offset);
      return label + "]";
    }
    case LogicalOp::kProbThreshold: {
      char buf[80];
      if (approx_eps > 0.0) {
        std::snprintf(buf, sizeof(buf), "ProbThreshold[APPROX(%g, %g) %s %g]",
                      approx_eps, approx_delta, min_prob_strict ? ">" : ">=",
                      min_prob);
      } else {
        std::snprintf(buf, sizeof(buf), "ProbThreshold[%s %g]",
                      min_prob_strict ? ">" : ">=", min_prob);
      }
      return buf;
    }
    case LogicalOp::kSaveSnapshot:
      return "SaveSnapshot['" + snapshot_path + "']";
    case LogicalOp::kLoadSnapshot:
      return "LoadSnapshot['" + snapshot_path + "']";
  }
  return "?";
}

std::string LogicalNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Label();
  out += "\n";
  for (const LogicalNodePtr& child : children)
    out += child->ToString(indent + 1);
  return out;
}

namespace {

/// Lowers one select core: Scan → Join* → Filter → Aggregate|Project.
StatusOr<LogicalNodePtr> BuildCore(const SelectCore& core) {
  if (core.from.empty())
    return Status::InvalidArgument("query has no FROM relation");
  LogicalNodePtr node = LogicalNode::Scan(core.from);

  for (const JoinClause& join : core.joins) {
    if (join.on.empty())
      return Status::InvalidArgument("join against '" + join.relation +
                                     "' has an empty condition list");
    node = LogicalNode::Join(
        std::move(node), LogicalNode::Scan(join.relation), join.kind,
        join.on,
        join.using_ta ? JoinStrategy::kTemporalAlignment
                      : JoinStrategy::kLineageAware);
  }

  if (core.where)
    node = LogicalNode::Filter(std::move(node), core.where);

  std::vector<SelectItem> aggregates;
  std::vector<std::string> plain_columns;
  std::vector<std::string> plain_aliases;
  for (const SelectItem& item : core.items) {
    if (item.is_aggregate) {
      aggregates.push_back(item);
    } else {
      plain_columns.push_back(item.column);
      plain_aliases.push_back(item.alias);
    }
  }

  if (!aggregates.empty()) {
    // Grouped aggregation: the group columns are GROUP BY if given, else
    // the plain columns of the select list; plain columns must be grouped.
    std::vector<std::string> group_by =
        core.group_by.empty() ? plain_columns : core.group_by;
    for (const std::string& col : plain_columns) {
      if (std::find(group_by.begin(), group_by.end(), col) == group_by.end())
        return Status::InvalidArgument(
            "column '" + col +
            "' must appear in GROUP BY to be selected with aggregates");
    }
    // Carry select-list aliases over to the matching group columns.
    std::vector<std::string> group_aliases(group_by.size());
    for (size_t g = 0; g < group_by.size(); ++g) {
      for (size_t p = 0; p < plain_columns.size(); ++p) {
        if (plain_columns[p] == group_by[g]) {
          group_aliases[g] = plain_aliases[p];
          break;
        }
      }
    }
    node = LogicalNode::Aggregate(std::move(node), std::move(group_by),
                                  std::move(aggregates));
    node->group_aliases = std::move(group_aliases);
  } else if (!core.group_by.empty()) {
    return Status::InvalidArgument(
        "GROUP BY requires at least one aggregate in the select list");
  } else if (!plain_columns.empty()) {
    node = LogicalNode::Project(std::move(node), std::move(plain_columns),
                                std::move(plain_aliases));
  }
  return node;
}

}  // namespace

StatusOr<LogicalPlan> BuildLogicalPlan(const SelectStatement& stmt) {
  StatusOr<LogicalNodePtr> node = BuildCore(stmt.core);
  if (!node.ok()) return node.status();
  LogicalNodePtr root = std::move(*node);

  for (const auto& [kind, core] : stmt.set_ops) {
    StatusOr<LogicalNodePtr> other = BuildCore(core);
    if (!other.ok()) return other.status();
    root = LogicalNode::SetOp(std::move(root), std::move(*other), kind);
  }

  if (stmt.min_prob.has_value()) {
    root = LogicalNode::ProbThreshold(std::move(root), *stmt.min_prob,
                                      stmt.min_prob_strict);
    root->approx_eps = stmt.approx_eps;
    root->approx_delta = stmt.approx_delta;
  }
  if (!stmt.order_by.empty())
    root = LogicalNode::Sort(std::move(root), stmt.order_by);
  if (stmt.limit.has_value())
    root = LogicalNode::Limit(std::move(root), *stmt.limit, stmt.offset);

  LogicalPlan plan;
  plan.root = std::move(root);
  return plan;
}

StatusOr<LogicalPlan> BuildLogicalPlan(const ParsedStatement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return BuildLogicalPlan(stmt.select);
    case StatementKind::kSaveSnapshot: {
      LogicalPlan plan;
      plan.root = LogicalNode::SaveSnapshot(stmt.snapshot_path);
      return plan;
    }
    case StatementKind::kLoadSnapshot: {
      LogicalPlan plan;
      plan.root = LogicalNode::LoadSnapshot(stmt.snapshot_path);
      return plan;
    }
  }
  return Status::Internal("unhandled statement kind");
}

QueryBuilder::QueryBuilder(std::string from) {
  stmt_.core.from = std::move(from);
}

QueryBuilder& QueryBuilder::Select(std::vector<std::string> columns,
                                   std::vector<std::string> aliases) {
  if (!aliases.empty() && aliases.size() != columns.size()) {
    if (error_.ok())
      error_ = Status::InvalidArgument(
          "Select: aliases must match columns in length");
    return *this;
  }
  for (size_t i = 0; i < columns.size(); ++i)
    stmt_.core.items.push_back(SelectItem::Col(
        std::move(columns[i]), aliases.empty() ? "" : std::move(aliases[i])));
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(AggFn fn, std::string column,
                                      std::string alias) {
  stmt_.core.items.push_back(
      SelectItem::Agg(fn, std::move(column), std::move(alias)));
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(std::vector<std::string> columns) {
  stmt_.core.group_by = std::move(columns);
  return *this;
}

QueryBuilder& QueryBuilder::Join(
    TPJoinKind kind, std::string relation,
    std::vector<std::pair<std::string, std::string>> on, bool using_ta) {
  JoinClause join;
  join.kind = kind;
  join.relation = std::move(relation);
  join.on = std::move(on);
  join.using_ta = using_ta;
  stmt_.core.joins.push_back(std::move(join));
  return *this;
}

QueryBuilder& QueryBuilder::Join(TPJoinKind kind, std::string relation,
                                 const std::string& column, bool using_ta) {
  return Join(kind, std::move(relation), {{column, column}}, using_ta);
}

QueryBuilder& QueryBuilder::Where(AstExprPtr predicate) {
  if (!predicate) return *this;
  stmt_.core.where = stmt_.core.where
                         ? AstAnd(stmt_.core.where, std::move(predicate))
                         : std::move(predicate);
  return *this;
}

QueryBuilder& QueryBuilder::Where(const std::string& predicate) {
  StatusOr<AstExprPtr> parsed = ParsePredicate(predicate);
  if (!parsed.ok()) {
    if (error_.ok()) error_ = parsed.status();
    return *this;
  }
  return Where(std::move(*parsed));
}

QueryBuilder& QueryBuilder::AddSetOp(SetOpKind kind,
                                     const QueryBuilder& other) {
  if (!other.error_.ok()) {
    if (error_.ok()) error_ = other.error_;
    return *this;
  }
  if (!other.stmt_.set_ops.empty() || !other.stmt_.order_by.empty() ||
      other.stmt_.limit.has_value() || other.stmt_.min_prob.has_value()) {
    if (error_.ok())
      error_ = Status::InvalidArgument(
          std::string(SetOpKindName(kind)) +
          ": the right-hand builder must be a bare select core");
    return *this;
  }
  stmt_.set_ops.emplace_back(kind, other.stmt_.core);
  return *this;
}

QueryBuilder& QueryBuilder::Union(const QueryBuilder& other) {
  return AddSetOp(SetOpKind::kUnion, other);
}
QueryBuilder& QueryBuilder::Intersect(const QueryBuilder& other) {
  return AddSetOp(SetOpKind::kIntersect, other);
}
QueryBuilder& QueryBuilder::Except(const QueryBuilder& other) {
  return AddSetOp(SetOpKind::kExcept, other);
}

QueryBuilder& QueryBuilder::OrderBy(std::string column, bool ascending) {
  stmt_.order_by.push_back(OrderItem{std::move(column), ascending});
  return *this;
}

QueryBuilder& QueryBuilder::Limit(int64_t limit, int64_t offset) {
  stmt_.limit = limit;
  stmt_.offset = offset;
  return *this;
}

QueryBuilder& QueryBuilder::WithMinProb(double min_prob, bool strict) {
  stmt_.min_prob = min_prob;
  stmt_.min_prob_strict = strict;
  return *this;
}

QueryBuilder& QueryBuilder::WithMinProbApprox(double min_prob, double eps,
                                              double delta, bool strict) {
  if (Status valid = ValidateApproxContract(eps, delta); !valid.ok()) {
    if (error_.ok()) error_ = std::move(valid);
    return *this;
  }
  stmt_.min_prob = min_prob;
  stmt_.min_prob_strict = strict;
  stmt_.approx_eps = eps;
  stmt_.approx_delta = delta;
  return *this;
}

StatusOr<LogicalPlan> QueryBuilder::Build() const {
  if (!error_.ok()) return error_;
  return BuildLogicalPlan(stmt_);
}

}  // namespace tpdb
