#include "api/lowering_common.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <utility>

#include "api/physical_plan.h"
#include "lineage/compile/prob_eval.h"

namespace tpdb {

bool IsReservedColumn(const std::string& name) {
  return name == kTsColumn || name == kTeColumn || name == kLineageColumn;
}

Schema FlattenFactSchema(const Schema& facts) {
  Schema flat = facts;
  flat.AddColumn({kTsColumn, DatumType::kInt64});
  flat.AddColumn({kTeColumn, DatumType::kInt64});
  flat.AddColumn({kLineageColumn, DatumType::kLineage});
  return flat;
}

Schema FactSchemaOf(const Schema& flat) {
  TPDB_CHECK_GE(flat.num_columns(), 3u);
  return Schema(std::vector<Column>(flat.columns().begin(),
                                    flat.columns().end() - 3));
}

DatumType StaticPredicateType(const AstExpr& e, const Schema& schema) {
  switch (e.kind) {
    case AstExprKind::kColumn: {
      const int idx = schema.IndexOf(e.column);
      return idx >= 0 ? schema.column(static_cast<size_t>(idx)).type
                      : DatumType::kNull;
    }
    case AstExprKind::kLiteral:
      return e.literal.type();
    default:
      return DatumType::kInt64;  // comparisons and connectives are boolean
  }
}

bool DatumToDouble(const Datum& d, double* out) {
  if (d.type() == DatumType::kInt64) {
    *out = static_cast<double>(d.AsInt64());
    return true;
  }
  if (d.type() == DatumType::kDouble) {
    *out = d.AsDouble();
    return true;
  }
  return false;
}

namespace {

/// A comparison operand: a column, a literal, or a nested predicate.
StatusOr<vec::VOperand> CompileVectorOperand(const AstExprPtr& e,
                                             const Schema& schema) {
  if (e == nullptr) return Status::InvalidArgument("empty predicate operand");
  if (e->kind == AstExprKind::kColumn) {
    const int idx = schema.IndexOf(e->column);
    if (idx < 0)
      return Status::NotFound("unknown column '" + e->column +
                              "' (have: " + schema.ToString() + ")");
    return vec::VOperand::Column(idx);
  }
  if (e->kind == AstExprKind::kLiteral)
    return vec::VOperand::Literal(e->literal);
  StatusOr<vec::VectorExprPtr> sub = CompileVectorPredicate(e, schema);
  if (!sub.ok()) return sub.status();
  return vec::VOperand::Truth(std::move(*sub));
}

}  // namespace

StatusOr<vec::VectorExprPtr> CompileVectorPredicate(const AstExprPtr& e,
                                                    const Schema& schema) {
  if (e == nullptr) return Status::InvalidArgument("empty predicate");
  switch (e->kind) {
    case AstExprKind::kColumn:
    case AstExprKind::kLiteral: {
      StatusOr<vec::VOperand> op = CompileVectorOperand(e, schema);
      if (!op.ok()) return op.status();
      return vec::VTruthy(std::move(*op));
    }
    case AstExprKind::kCompare: {
      StatusOr<vec::VOperand> a = CompileVectorOperand(e->left, schema);
      if (!a.ok()) return a.status();
      StatusOr<vec::VOperand> b = CompileVectorOperand(e->right, schema);
      if (!b.ok()) return b.status();
      const DatumType ta = StaticPredicateType(*e->left, schema);
      const DatumType tb = StaticPredicateType(*e->right, schema);
      const bool numeric_mix =
          (ta == DatumType::kInt64 && tb == DatumType::kDouble) ||
          (ta == DatumType::kDouble && tb == DatumType::kInt64);
      return vec::VCompare(e->compare_op, numeric_mix, std::move(*a),
                           std::move(*b));
    }
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      StatusOr<vec::VectorExprPtr> a = CompileVectorPredicate(e->left, schema);
      if (!a.ok()) return a.status();
      StatusOr<vec::VectorExprPtr> b =
          CompileVectorPredicate(e->right, schema);
      if (!b.ok()) return b.status();
      return e->kind == AstExprKind::kAnd
                 ? vec::VAnd(std::move(*a), std::move(*b))
                 : vec::VOr(std::move(*a), std::move(*b));
    }
    case AstExprKind::kNot: {
      StatusOr<vec::VectorExprPtr> a = CompileVectorPredicate(e->left, schema);
      if (!a.ok()) return a.status();
      return vec::VNot(std::move(*a));
    }
    case AstExprKind::kIsNull: {
      if (e->left != nullptr && (e->left->kind == AstExprKind::kColumn ||
                                 e->left->kind == AstExprKind::kLiteral)) {
        StatusOr<vec::VOperand> op = CompileVectorOperand(e->left, schema);
        if (!op.ok()) return op.status();
        return vec::VIsNull(std::move(*op));
      }
      StatusOr<vec::VectorExprPtr> a = CompileVectorPredicate(e->left, schema);
      if (!a.ok()) return a.status();
      return vec::VIsNullOf(std::move(*a));
    }
  }
  return Status::Internal("unhandled predicate node");
}

StatusOr<ProjectPlan> PlanProjectStage(const std::vector<std::string>& columns,
                                       const std::vector<std::string>& aliases,
                                       const Schema& schema) {
  ProjectPlan plan;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string& name = columns[i];
    if (IsReservedColumn(name))
      return Status::InvalidArgument(
          "cannot project reserved column '" + name +
          "' (interval and lineage are kept implicitly)");
    const int idx = schema.IndexOf(name);
    if (idx < 0)
      return Status::NotFound("unknown column '" + name +
                              "' (have: " + schema.ToString() + ")");
    plan.indices.push_back(idx);
    plan.names.push_back(i < aliases.size() && !aliases[i].empty()
                             ? aliases[i]
                             : name);
  }
  // Interval and lineage ride along on every projection.
  for (const char* reserved : {kTsColumn, kTeColumn, kLineageColumn}) {
    plan.indices.push_back(schema.IndexOf(reserved));
    plan.names.push_back(reserved);
  }
  return plan;
}

Schema ProjectOutputSchema(const ProjectPlan& plan, const Schema& schema) {
  std::vector<Column> cols;
  cols.reserve(plan.indices.size());
  for (size_t i = 0; i < plan.indices.size(); ++i) {
    Column c = schema.column(static_cast<size_t>(plan.indices[i]));
    c.name = plan.names[i];
    cols.push_back(std::move(c));
  }
  return Schema(std::move(cols));
}

CompareOp MirrorCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

void CollectScanBounds(const AstExprPtr& e, storage::ScanPredicate* pred) {
  if (e == nullptr) return;
  if (e->kind == AstExprKind::kAnd) {
    CollectScanBounds(e->left, pred);
    CollectScanBounds(e->right, pred);
    return;
  }
  if (e->kind != AstExprKind::kCompare) return;
  const AstExpr* column = nullptr;
  const AstExpr* literal = nullptr;
  bool flipped = false;
  if (e->left->kind == AstExprKind::kColumn &&
      e->right->kind == AstExprKind::kLiteral) {
    column = e->left.get();
    literal = e->right.get();
  } else if (e->left->kind == AstExprKind::kLiteral &&
             e->right->kind == AstExprKind::kColumn) {
    column = e->right.get();
    literal = e->left.get();
    flipped = true;
  } else {
    return;
  }
  double value = 0.0;
  if (!DatumToDouble(literal->literal, &value)) return;
  switch (flipped ? MirrorCompare(e->compare_op) : e->compare_op) {
    case CompareOp::kEq:
      pred->AddEquals(column->column, value);
      break;
    case CompareOp::kLt:
      pred->AddUpperBound(column->column, value, /*strict=*/true);
      break;
    case CompareOp::kLe:
      pred->AddUpperBound(column->column, value, /*strict=*/false);
      break;
    case CompareOp::kGt:
      pred->AddLowerBound(column->column, value, /*strict=*/true);
      break;
    case CompareOp::kGe:
      pred->AddLowerBound(column->column, value, /*strict=*/false);
      break;
    case CompareOp::kNe:
      break;  // no range information
  }
}

std::string AggOutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  std::string fn;
  switch (item.fn) {
    case AggFn::kCount: fn = "count"; break;
    case AggFn::kSum: fn = "sum"; break;
    case AggFn::kMin: fn = "min"; break;
    case AggFn::kMax: fn = "max"; break;
  }
  return item.column == "*" ? fn : fn + "_" + item.column;
}

StatusOr<AggPlan> ResolveAggregatePlan(
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& group_aliases,
    const std::vector<SelectItem>& aggregates, const Schema& facts) {
  AggPlan plan;
  for (size_t g = 0; g < group_by.size(); ++g) {
    const std::string& name = group_by[g];
    const int idx = facts.IndexOf(name);
    if (idx < 0)
      return Status::NotFound("unknown GROUP BY column '" + name + "'");
    plan.group_idx.push_back(idx);
    Column col = facts.column(static_cast<size_t>(idx));
    if (g < group_aliases.size() && !group_aliases[g].empty())
      col.name = group_aliases[g];
    plan.out_cols.push_back(std::move(col));
  }
  for (const SelectItem& item : aggregates) {
    int idx = -1;
    DatumType type = DatumType::kInt64;
    if (item.column == "*") {
      if (item.fn != AggFn::kCount)
        return Status::InvalidArgument("'*' is only valid for COUNT");
    } else {
      idx = facts.IndexOf(item.column);
      if (idx < 0)
        return Status::NotFound("unknown aggregate column '" + item.column +
                                "'");
      type = facts.column(static_cast<size_t>(idx)).type;
    }
    if (item.fn == AggFn::kSum && type != DatumType::kInt64 &&
        type != DatumType::kDouble)
      return Status::InvalidArgument("SUM requires a numeric column, got '" +
                                     item.column + "'");
    plan.agg_idx.push_back(idx);
    plan.out_cols.push_back(
        {AggOutputName(item),
         item.fn == AggFn::kCount ? DatumType::kInt64 : type});
  }
  return plan;
}

vec::BatchAggFn MapAggFn(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return vec::BatchAggFn::kCount;
    case AggFn::kSum: return vec::BatchAggFn::kSum;
    case AggFn::kMin: return vec::BatchAggFn::kMin;
    case AggFn::kMax: return vec::BatchAggFn::kMax;
  }
  return vec::BatchAggFn::kCount;
}

// -- Stage-level lowering --------------------------------------------------

ProbEvalOptions StageProbOptions(const PhysicalNode& stage,
                                 const ProbEvalOptions& base) {
  ProbEvalOptions opts = base;
  if (stage.approx_eps > 0.0) {
    opts.approx_eps = stage.approx_eps;
    opts.approx_delta = stage.approx_delta;
  }
  return opts;
}

bool IsRowLocalStage(const PhysicalNode& stage) {
  return stage.op == PhysOp::kFilter || stage.op == PhysOp::kProject;
}

StatusOr<vec::BatchOperatorPtr> LowerBatchStages(
    vec::BatchOperatorPtr op, const std::vector<PhysicalNode*>& stages,
    size_t first, size_t last, LineageManager* manager, VectorStats* vstats,
    ExecStats* stats, const ProbEvalOptions& prob_base) {
  for (size_t i = first; i < last; ++i) {
    PhysicalNode& stage = *stages[i];
    switch (stage.op) {
      case PhysOp::kFilter: {
        if (stage.is_prob) {
          op = std::make_unique<vec::BatchProbThreshold>(
              std::move(op), manager, stage.min_prob, stage.min_prob_strict,
              vstats, StageProbOptions(stage, prob_base),
              &stage.prob_methods);
          break;
        }
        StatusOr<vec::VectorExprPtr> pred =
            CompileVectorPredicate(stage.predicate, op->schema());
        if (!pred.ok()) return pred.status();
        op = std::make_unique<vec::BatchFilter>(std::move(op),
                                                std::move(*pred), vstats);
        break;
      }
      case PhysOp::kProject: {
        StatusOr<ProjectPlan> plan =
            PlanProjectStage(stage.columns, stage.aliases, op->schema());
        if (!plan.ok()) return plan.status();
        op = std::make_unique<vec::BatchProject>(
            std::move(op), std::move(plan->indices), std::move(plan->names));
        break;
      }
      case PhysOp::kLimit:
        op = std::make_unique<vec::BatchLimit>(
            std::move(op), static_cast<size_t>(stage.limit),
            static_cast<size_t>(stage.offset), vstats);
        break;
      default:
        return Status::Internal("non-batch stage in a batch run");
    }
    if (stats != nullptr) {
      NodeStats* node = stats->AddNode(stage.Label() + " (vec)");
      stage.actual = node;
      op = vec::InstrumentBatch(node, std::move(op));
    }
  }
  return op;
}

StatusOr<Table> SortTable(PhysicalNode& stage, Table input,
                          LineageManager* manager, ExecStats* stats,
                          const ProbEvalOptions& prob_base) {
  struct Key {
    int column;  ///< -1 = the virtual probability column
    bool ascending;
  };
  std::vector<Key> keys;
  bool any_prob = false;
  for (const OrderItem& item : stage.order_by) {
    int column = -1;
    if (item.column == kProbColumn) {
      any_prob = true;
    } else {
      column = input.schema.IndexOf(item.column);
      if (column < 0)
        return Status::NotFound("unknown ORDER BY column '" + item.column +
                                "'");
    }
    keys.push_back(Key{column, item.ascending});
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<Row>& rows = input.rows;
  // ORDER BY over the virtual probability column: probabilities are
  // computed through the evaluation ladder, not read from a column.
  std::vector<double> probs;
  if (any_prob) {
    const int lin = input.schema.IndexOf(kLineageColumn);
    TPDB_CHECK_GE(lin, 0);
    ProbabilityEvaluator evaluator(manager, StageProbOptions(stage, prob_base));
    probs.reserve(rows.size());
    for (const Row& row : rows)
      probs.push_back(evaluator.Probability(row[lin].AsLineage()));
    stage.prob_methods |= evaluator.methods_used();
  }
  // A stable sort of row positions, so equal keys keep their input order.
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    for (const Key& key : keys) {
      const int c = key.column < 0
                        ? (probs[x] < probs[y] ? -1 : probs[x] > probs[y])
                        : rows[x][key.column].Compare(rows[y][key.column]);
      if (c != 0) return key.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  Table out;
  out.schema = std::move(input.schema);
  out.rows.reserve(order.size());
  for (const size_t i : order) out.rows.push_back(std::move(input.rows[i]));

  if (stats != nullptr) {
    NodeStats* slot = stats->AddNode(stage.Label());
    stage.actual = slot;
    slot->rows = out.rows.size();
    slot->open_calls = 1;
    slot->seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  return out;
}

storage::ScanPredicate CollectColdScanPredicate(
    const std::vector<PhysicalNode*>& stages, LineageManager* manager,
    const storage::SegmentedTable* table) {
  const bool prob_maps_fresh =
      manager->probability_epoch() == table->probability_epoch();
  storage::ScanPredicate predicate;
  for (const PhysicalNode* stage : stages) {
    if (stage->op != PhysOp::kFilter) break;
    if (stage->is_prob) {
      if (prob_maps_fresh) {
        if (stage->approx_eps > 0.0) {
          // Sampled thresholds admit eps of slack: a tuple with true
          // probability in [τ − eps, τ) may legitimately pass, so only
          // segments that cannot even reach τ − eps are pruned.
          const double slack =
              std::max(0.0, stage->min_prob - stage->approx_eps);
          predicate.AddMinProb(slack, /*strict=*/false);
        } else {
          predicate.AddMinProb(stage->min_prob, stage->min_prob_strict);
        }
      }
    } else {
      CollectScanBounds(stage->predicate, &predicate);
    }
  }
  return predicate;
}

ChainExec CollectExecChain(PhysicalNode* top) {
  std::vector<PhysicalNode*> top_down;
  PhysicalNode* exchange = nullptr;
  size_t above_exchange = 0;
  PhysicalNode* cursor = top;
  while (IsPipelinedPhysOp(cursor->op) || cursor->op == PhysOp::kExchange) {
    if (cursor->op == PhysOp::kExchange) {
      exchange = cursor;
      above_exchange = top_down.size();
    } else {
      top_down.push_back(cursor);
    }
    cursor = cursor->children[0].get();
  }
  ChainExec chain;
  chain.source = cursor;
  chain.exchange = exchange;
  chain.stages.assign(top_down.rbegin(), top_down.rend());
  if (exchange != nullptr)
    chain.parallel_prefix = top_down.size() - above_exchange;
  return chain;
}

}  // namespace tpdb
