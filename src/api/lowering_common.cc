#include "api/lowering_common.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "api/physical_plan.h"
#include "engine/filter.h"
#include "engine/limit.h"
#include "engine/materialize.h"
#include "engine/prob_sort.h"
#include "engine/project.h"
#include "engine/scan.h"
#include "engine/sort.h"
#include "engine/vector/adapters.h"
#include "lineage/probability.h"

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

ExprPtr PromotedCompare(CompareOp op, ExprPtr a, ExprPtr b) {
  return Fn(
      [op, a, b](const Row& row) -> Datum {
        const Datum da = a->Eval(row);
        const Datum db = b->Eval(row);
        if (da.is_null() || db.is_null()) return Datum::Null();
        double x = 0, y = 0;
        if (!DatumToDouble(da, &x) || !DatumToDouble(db, &y))
          return Datum::Null();
        bool result = false;
        switch (op) {
          case CompareOp::kEq: result = x == y; break;
          case CompareOp::kNe: result = x != y; break;
          case CompareOp::kLt: result = x < y; break;
          case CompareOp::kLe: result = x <= y; break;
          case CompareOp::kGt: result = x > y; break;
          case CompareOp::kGe: result = x >= y; break;
        }
        return Datum(static_cast<int64_t>(result));
      },
      std::string("num") + CompareOpSymbol(op));
}

StatusOr<ExprPtr> CompilePredicate(const AstExprPtr& e, const Schema& schema) {
  TPDB_CHECK(e != nullptr);
  switch (e->kind) {
    case AstExprKind::kColumn: {
      const int idx = schema.IndexOf(e->column);
      if (idx < 0)
        return Status::NotFound("unknown column '" + e->column +
                                "' (have: " + schema.ToString() + ")");
      return Col(idx, e->column);
    }
    case AstExprKind::kLiteral:
      return Lit(e->literal);
    case AstExprKind::kCompare: {
      StatusOr<ExprPtr> a = CompilePredicate(e->left, schema);
      if (!a.ok()) return a.status();
      StatusOr<ExprPtr> b = CompilePredicate(e->right, schema);
      if (!b.ok()) return b.status();
      const DatumType ta = StaticPredicateType(*e->left, schema);
      const DatumType tb = StaticPredicateType(*e->right, schema);
      const bool numeric_mix =
          (ta == DatumType::kInt64 && tb == DatumType::kDouble) ||
          (ta == DatumType::kDouble && tb == DatumType::kInt64);
      if (numeric_mix)
        return PromotedCompare(e->compare_op, std::move(*a), std::move(*b));
      return Compare(e->compare_op, std::move(*a), std::move(*b));
    }
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      StatusOr<ExprPtr> a = CompilePredicate(e->left, schema);
      if (!a.ok()) return a.status();
      StatusOr<ExprPtr> b = CompilePredicate(e->right, schema);
      if (!b.ok()) return b.status();
      return e->kind == AstExprKind::kAnd
                 ? AndExpr(std::move(*a), std::move(*b))
                 : OrExpr(std::move(*a), std::move(*b));
    }
    case AstExprKind::kNot: {
      StatusOr<ExprPtr> a = CompilePredicate(e->left, schema);
      if (!a.ok()) return a.status();
      return NotExpr(std::move(*a));
    }
    case AstExprKind::kIsNull: {
      StatusOr<ExprPtr> a = CompilePredicate(e->left, schema);
      if (!a.ok()) return a.status();
      return IsNull(std::move(*a));
    }
  }
  return Status::Internal("unhandled predicate node");
}

namespace {

StatusOr<vec::VOperand> CompileVectorOperand(const AstExpr& e,
                                             const Schema& schema) {
  if (e.kind == AstExprKind::kColumn) {
    const int idx = schema.IndexOf(e.column);
    if (idx < 0)
      return Status::NotFound("unknown column '" + e.column + "'");
    return vec::VOperand::Column(idx);
  }
  if (e.kind == AstExprKind::kLiteral)
    return vec::VOperand::Literal(e.literal);
  return Status::InvalidArgument("operand shape not vectorizable");
}

}  // namespace

StatusOr<vec::VectorExprPtr> CompileVectorPredicate(const AstExprPtr& e,
                                                    const Schema& schema) {
  TPDB_CHECK(e != nullptr);
  switch (e->kind) {
    case AstExprKind::kColumn:
    case AstExprKind::kLiteral: {
      StatusOr<vec::VOperand> op = CompileVectorOperand(*e, schema);
      if (!op.ok()) return op.status();
      return vec::VTruthy(std::move(*op));
    }
    case AstExprKind::kCompare: {
      StatusOr<vec::VOperand> a = CompileVectorOperand(*e->left, schema);
      if (!a.ok()) return a.status();
      StatusOr<vec::VOperand> b = CompileVectorOperand(*e->right, schema);
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
      if (e->left->kind == AstExprKind::kColumn ||
          e->left->kind == AstExprKind::kLiteral) {
        StatusOr<vec::VOperand> op = CompileVectorOperand(*e->left, schema);
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

StatusOr<OperatorPtr> LowerPipelineStage(PhysicalNode& stage, OperatorPtr op,
                                         LineageManager* manager,
                                         const ProbEvalOptions& prob_base) {
  const Schema& schema = op->schema();
  switch (stage.op) {
    case PhysOp::kFilter: {
      if (stage.is_prob) {
        const int lin = schema.IndexOf(kLineageColumn);
        TPDB_CHECK(lin >= 0);
        const double threshold = stage.min_prob;
        const bool strict = stage.min_prob_strict;
        // One evaluator per operator instance (= per morsel): exact on
        // decomposable lineage, compiled circuit otherwise, sampled under
        // APPROX or when the circuit budget blows up. The flusher's last
        // owner records the methods used on the (shared) physical node.
        auto evaluator = std::make_shared<ProbabilityEvaluator>(
            manager, StageProbOptions(stage, prob_base));
        uint8_t* methods_out = &stage.prob_methods;
        std::shared_ptr<void> flusher(nullptr,
                                      [evaluator, methods_out](void*) {
                                        std::atomic_ref<uint8_t>(*methods_out)
                                            .fetch_or(
                                                evaluator->methods_used(),
                                                std::memory_order_relaxed);
                                      });
        ExprPtr prob_pred = Fn(
            [evaluator, flusher, lin, threshold, strict](
                const Row& row) -> Datum {
              const double p = evaluator->Probability(row[lin].AsLineage());
              return Datum(
                  static_cast<int64_t>(strict ? p > threshold
                                              : p >= threshold));
            },
            "prob" + std::string(strict ? ">" : ">=") +
                std::to_string(threshold));
        return OperatorPtr(
            std::make_unique<Filter>(std::move(op), std::move(prob_pred)));
      }
      StatusOr<ExprPtr> pred = CompilePredicate(stage.predicate, schema);
      if (!pred.ok()) return pred.status();
      return OperatorPtr(
          std::make_unique<Filter>(std::move(op), std::move(*pred)));
    }
    case PhysOp::kProject: {
      StatusOr<ProjectPlan> plan =
          PlanProjectStage(stage.columns, stage.aliases, schema);
      if (!plan.ok()) return plan.status();
      return OperatorPtr(std::make_unique<Project>(
          std::move(op), std::move(plan->indices), std::move(plan->names)));
    }
    case PhysOp::kSort: {
      bool any_prob = false;
      for (const OrderItem& item : stage.order_by)
        any_prob |= item.column == kProbColumn;
      if (any_prob) {
        // ORDER BY over the virtual probability column: probabilities are
        // computed through the evaluation ladder, not read from a column.
        std::vector<ProbSortKey> keys;
        for (const OrderItem& item : stage.order_by) {
          ProbSortKey key;
          key.ascending = item.ascending;
          if (item.column == kProbColumn) {
            key.is_prob = true;
          } else {
            const int idx = schema.IndexOf(item.column);
            if (idx < 0)
              return Status::NotFound("unknown ORDER BY column '" +
                                      item.column + "'");
            key.column = idx;
          }
          keys.push_back(key);
        }
        return OperatorPtr(std::make_unique<ProbSort>(
            std::move(op), manager, std::move(keys),
            StageProbOptions(stage, prob_base), &stage.prob_methods));
      }
      std::vector<SortKey> keys;
      for (const OrderItem& item : stage.order_by) {
        const int idx = schema.IndexOf(item.column);
        if (idx < 0)
          return Status::NotFound("unknown ORDER BY column '" + item.column +
                                  "'");
        keys.push_back(SortKey{idx, item.ascending});
      }
      return OperatorPtr(
          std::make_unique<Sort>(std::move(op), std::move(keys)));
    }
    case PhysOp::kLimit:
      return OperatorPtr(std::make_unique<Limit>(
          std::move(op), static_cast<size_t>(stage.limit),
          static_cast<size_t>(stage.offset)));
    default:
      return Status::Internal("non-pipelined node in chain");
  }
}

bool IsRowLocalStage(const PhysicalNode& stage) {
  return stage.op == PhysOp::kFilter || stage.op == PhysOp::kProject;
}

size_t CountBatchStages(Schema schema,
                        const std::vector<PhysicalNode*>& stages,
                        bool row_local_only, Schema* out_schema) {
  size_t n = 0;
  for (const PhysicalNode* stage : stages) {
    switch (stage->op) {
      case PhysOp::kFilter:
        if (!stage->is_prob &&
            !CompileVectorPredicate(stage->predicate, schema).ok())
          goto done;
        break;
      case PhysOp::kProject: {
        StatusOr<ProjectPlan> plan =
            PlanProjectStage(stage->columns, stage->aliases, schema);
        if (!plan.ok()) goto done;
        schema = ProjectOutputSchema(*plan, schema);
        break;
      }
      case PhysOp::kLimit:
        if (row_local_only) goto done;
        break;
      default:
        goto done;
    }
    ++n;
  }
done:
  if (out_schema != nullptr) *out_schema = std::move(schema);
  return n;
}

vec::BatchOperatorPtr LowerBatchStages(
    vec::BatchOperatorPtr op, const std::vector<PhysicalNode*>& stages,
    size_t count, LineageManager* manager, VectorStats* vstats,
    ExecStats* stats, const ProbEvalOptions& prob_base) {
  for (size_t i = 0; i < count; ++i) {
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
        TPDB_CHECK(pred.ok()) << pred.status().ToString();
        op = std::make_unique<vec::BatchFilter>(std::move(op),
                                                std::move(*pred), vstats);
        break;
      }
      case PhysOp::kProject: {
        StatusOr<ProjectPlan> plan =
            PlanProjectStage(stage.columns, stage.aliases, op->schema());
        TPDB_CHECK(plan.ok()) << plan.status().ToString();
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
        TPDB_CHECK(false) << "non-batch stage in pre-validated chain";
    }
    if (stats != nullptr) {
      NodeStats* node = stats->AddNode(stage.Label() + " (vec)");
      stage.actual = node;
      op = vec::InstrumentBatch(node, std::move(op));
    }
  }
  return op;
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
  for (PhysicalNode* stage : chain.stages) {
    if (stage->mode != ExecMode::kBatch) break;
    ++chain.batch_prefix;
  }
  return chain;
}

}  // namespace tpdb
