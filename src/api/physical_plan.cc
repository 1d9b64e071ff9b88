#include "api/physical_plan.h"

#include <cstdio>
#include <utility>

#include "api/database.h"
#include "api/lowering_common.h"
#include "common/strings.h"
#include "lineage/compile/prob_eval.h"
#include "tp/operators.h"

namespace tpdb {

const char* PhysOpName(PhysOp op) {
  switch (op) {
    case PhysOp::kScan: return "Scan";
    case PhysOp::kBatchScan: return "BatchScan";
    case PhysOp::kFilter: return "Filter";
    case PhysOp::kProject: return "Project";
    case PhysOp::kAggregate: return "Aggregate";
    case PhysOp::kTPJoin: return "TPJoin";
    case PhysOp::kTPSetOp: return "TPSetOp";
    case PhysOp::kAlign: return "Align";
    case PhysOp::kSort: return "Sort";
    case PhysOp::kLimit: return "Limit";
    case PhysOp::kExchange: return "Exchange";
  }
  return "?";
}

bool IsPipelinedPhysOp(PhysOp op) {
  return op == PhysOp::kFilter || op == PhysOp::kProject ||
         op == PhysOp::kSort || op == PhysOp::kLimit;
}

bool IsCatalogSource(const PhysicalNode& source) {
  return (source.op == PhysOp::kScan || source.op == PhysOp::kBatchScan) &&
         source.rel != nullptr;
}

std::string PhysicalNode::Label() const {
  switch (op) {
    case PhysOp::kScan:
      return "Scan(" + relation + ")";
    case PhysOp::kBatchScan:
      return "BatchScan(" + relation + ")";
    case PhysOp::kFilter: {
      if (is_prob) {
        char buf[96];
        if (approx_eps > 0.0) {
          std::snprintf(buf, sizeof(buf),
                        "ProbThreshold[APPROX(%g, %g) %s %g]", approx_eps,
                        approx_delta, min_prob_strict ? ">" : ">=", min_prob);
        } else {
          std::snprintf(buf, sizeof(buf), "ProbThreshold[%s %g]",
                        min_prob_strict ? ">" : ">=", min_prob);
        }
        std::string label = buf;
        // Filled in at run time; Explain of an executed plan shows which
        // rungs of the evaluation ladder fired.
        const std::string methods = ProbMethodsLabel(prob_methods);
        if (!methods.empty()) label += " prob=" + methods;
        return label;
      }
      return "Filter[" + (predicate ? predicate->ToString() : "true") + "]";
    }
    case PhysOp::kProject: {
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
    case PhysOp::kAggregate: {
      std::vector<std::string> parts;
      for (const SelectItem& item : aggregates)
        parts.push_back(item.ToString());
      std::string label = "Aggregate[" + tpdb::Join(parts, ", ");
      if (!group_by.empty()) label += " BY " + tpdb::Join(group_by, ", ");
      return label + "]";
    }
    case PhysOp::kTPJoin:
    case PhysOp::kAlign: {
      std::vector<std::string> terms;
      for (const auto& [l, r] : join_on) terms.push_back(l + "=" + r);
      std::string label = std::string("Join[") + TPJoinKindName(join_kind) +
                          ", on " + tpdb::Join(terms, ",");
      if (op == PhysOp::kAlign) label += ", TA";
      // Only a join that ran off the paper's plan is labelled.
      if (op == PhysOp::kTPJoin &&
          join_algorithm != OverlapAlgorithm::kPartitioned &&
          join_algorithm != OverlapAlgorithm::kAuto)
        label += std::string(", alg=") + OverlapAlgorithmName(join_algorithm);
      return label + "]";
    }
    case PhysOp::kTPSetOp:
      return std::string("SetOp[") + SetOpKindName(set_op) + "]";
    case PhysOp::kSort: {
      std::vector<std::string> parts;
      for (const OrderItem& item : order_by)
        parts.push_back(item.column + (item.ascending ? " ASC" : " DESC"));
      std::string label = "Sort[" + tpdb::Join(parts, ", ");
      if (top_k >= 0) label += ", top " + std::to_string(top_k);
      label += "]";
      const std::string methods = ProbMethodsLabel(prob_methods);
      if (!methods.empty()) label += " prob=" + methods;
      return label;
    }
    case PhysOp::kLimit: {
      std::string label = "Limit[" + std::to_string(limit);
      if (offset > 0) label += " OFFSET " + std::to_string(offset);
      return label + "]";
    }
    case PhysOp::kExchange:
      return "Exchange[" + std::to_string(workers) + " workers]";
  }
  return "?";
}

std::string PhysicalNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Label();
  if ((op == PhysOp::kScan || op == PhysOp::kBatchScan) &&
      !scan_predicate.Empty())
    out += " pushdown=[" + scan_predicate.ToString() + "]";
  char buf[96];
  if (op == PhysOp::kExchange) {
    std::snprintf(buf, sizeof(buf), "  {est %.3g rows, cost %.3g}",
                  est.rows, est.cost);
  } else {
    const bool batch = op == PhysOp::kBatchScan || op == PhysOp::kFilter ||
                       op == PhysOp::kProject || op == PhysOp::kLimit ||
                       op == PhysOp::kAggregate;
    std::snprintf(buf, sizeof(buf), "  {%s, est %.3g rows, cost %.3g}",
                  batch ? "batch" : "row", est.rows, est.cost);
  }
  out += buf;
  if (actual != nullptr) {
    std::snprintf(buf, sizeof(buf), "  (actual %llu rows, %.3f ms)",
                  static_cast<unsigned long long>(actual->rows),
                  actual->seconds * 1000.0);
    out += buf;
  }
  out += "\n";
  for (const PhysicalNodePtr& child : children)
    out += child->ToString(indent + 1);
  return out;
}

namespace {

StatusOr<PhysicalNodePtr> Build(const LogicalNode& node, TPDatabase* db) {
  auto phys = std::make_unique<PhysicalNode>();
  for (const LogicalNodePtr& child : node.children) {
    StatusOr<PhysicalNodePtr> built = Build(*child, db);
    if (!built.ok()) return built.status();
    phys->children.push_back(std::move(*built));
  }
  switch (node.op) {
    case LogicalOp::kScan: {
      phys->op = PhysOp::kScan;
      phys->relation = node.relation;
      StatusOr<TPRelation*> rel = db->GetAssumingLocked(node.relation);
      if (!rel.ok()) return rel.status();
      phys->rel = *rel;
      phys->cold = (*rel)->cold_storage() != nullptr;
      phys->schema = phys->cold ? (*rel)->cold_storage()->schema()
                                : FlattenFactSchema((*rel)->fact_schema());
      break;
    }
    case LogicalOp::kFilter:
      phys->op = PhysOp::kFilter;
      phys->predicate = node.predicate;
      phys->schema = phys->children[0]->schema;
      break;
    case LogicalOp::kProbThreshold:
      phys->op = PhysOp::kFilter;
      phys->is_prob = true;
      phys->min_prob = node.min_prob;
      phys->min_prob_strict = node.min_prob_strict;
      phys->approx_eps = node.approx_eps;
      phys->approx_delta = node.approx_delta;
      phys->schema = phys->children[0]->schema;
      break;
    case LogicalOp::kProject: {
      phys->op = PhysOp::kProject;
      phys->columns = node.columns;
      phys->aliases = node.aliases;
      StatusOr<ProjectPlan> plan = PlanProjectStage(
          phys->columns, phys->aliases, phys->children[0]->schema);
      if (!plan.ok()) return plan.status();
      phys->schema = ProjectOutputSchema(*plan, phys->children[0]->schema);
      break;
    }
    case LogicalOp::kSort:
      phys->op = PhysOp::kSort;
      phys->order_by = node.order_by;
      phys->schema = phys->children[0]->schema;
      break;
    case LogicalOp::kLimit:
      phys->op = PhysOp::kLimit;
      phys->limit = node.limit;
      phys->offset = node.offset;
      phys->schema = phys->children[0]->schema;
      break;
    case LogicalOp::kAggregate: {
      phys->op = PhysOp::kAggregate;
      phys->group_by = node.group_by;
      phys->group_aliases = node.group_aliases;
      phys->aggregates = node.aggregates;
      StatusOr<AggPlan> plan = ResolveAggregatePlan(
          phys->group_by, phys->group_aliases, phys->aggregates,
          FactSchemaOf(phys->children[0]->schema));
      if (!plan.ok()) return plan.status();
      phys->schema = FlattenFactSchema(Schema(std::move(plan->out_cols)));
      break;
    }
    case LogicalOp::kJoin: {
      phys->op = node.strategy == JoinStrategy::kTemporalAlignment
                     ? PhysOp::kAlign
                     : PhysOp::kTPJoin;
      phys->join_kind = node.join_kind;
      phys->join_on = node.join_on;
      phys->schema = FlattenFactSchema(
          TPJoinOutputSchema(node.join_kind,
                             FactSchemaOf(phys->children[0]->schema),
                             FactSchemaOf(phys->children[1]->schema)));
      break;
    }
    case LogicalOp::kSetOp:
      phys->op = PhysOp::kTPSetOp;
      phys->set_op = node.set_op;
      phys->schema = phys->children[0]->schema;
      break;
    case LogicalOp::kSaveSnapshot:
    case LogicalOp::kLoadSnapshot:
      return Status::InvalidArgument(
          "snapshot statements are only valid as the plan root");
  }
  return phys;
}

}  // namespace

StatusOr<PhysicalPlan> BuildPhysicalPlan(const LogicalPlan& plan,
                                         TPDatabase* db) {
  if (plan.root == nullptr)
    return Status::InvalidArgument("empty logical plan");
  TPDB_CHECK(db != nullptr);
  StatusOr<PhysicalNodePtr> root = Build(*plan.root, db);
  if (!root.ok()) return root.status();
  PhysicalPlan physical;
  physical.root = std::move(*root);
  return physical;
}

}  // namespace tpdb
