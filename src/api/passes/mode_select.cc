// Mode selection — the cost model. Annotates every node with an estimated
// cardinality and cost, turns the catalog sources that chains read as
// batches into PhysBatchScans, and decides where parallel regions go:
//
//   - Cold scans are costed through their zone maps: EstimateScanRows sums
//     the rows of the segments the pushed-down ScanPredicate cannot prune,
//     so a query that prunes 4 of 5 segments is planned for 1/5 of the
//     relation — which decides serial-vs-parallel and the scan totals.
//   - Every pipelined chain runs its filter / project / limit stages as
//     batch operators; a sort is a row operator between them that
//     materializes its input. A catalog source becomes a PhysBatchScan
//     unless it is warm and a sort reads it first (the sort takes the
//     flattened table as is).
//   - A chain whose row-local prefix is worth morsel-driving (estimated
//     source rows ≥ min_parallel_rows, ≥ 2 morsels/segments) gets a
//     PhysExchange inserted over that prefix; the executor re-checks the
//     actual input size at run time, so an over-estimate never forces a
//     degenerate parallel run.
//   - An aggregate is the batch hash aggregate over whatever its chain
//     starts at (a catalog relation, or a join, set-op or aggregate result
//     flattened into a table), and the chain feeding it runs serially: no
//     exchange goes under an aggregate, because the morsel route with a
//     serial merge never beat the serial chain there. An exchange can
//     still sit below the chain's barrier source, e.g. under a join input.
//   - TP joins and set operations cost one fixed unit per input row. Their
//     overlap algorithm is not a plan decision: it depends on the key
//     histogram of the actual inputs, so the join picks it when it runs
//     (ChooseOverlapAlgorithm in tp/overlap_join.h).
//
// Cost units are abstract per-row work, calibrated coarsely from
// batch-operator timings (cold chunk views skip the per-row decode
// entirely; exact-probability thresholds dominate whatever they touch).
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "api/lowering_common.h"
#include "api/passes/passes.h"
#include "engine/expr.h"

namespace tpdb {

namespace {

constexpr double kStage = 0.3;        // batch filter / project / limit
constexpr double kProbFilter = 7.0;   // probability threshold
constexpr double kWarmScan = 0.45;    // per-batch transpose of rows
constexpr double kColdScan = 0.25;    // zero-copy chunk views
constexpr double kFlatten = 0.6;      // relation → flattened table
constexpr double kChainSetup = 96.0;  // batch operators + compiled predicates
constexpr double kBatchAggUnit = 0.6;
constexpr double kJoinUnit = 6.0;
constexpr double kSetOpUnit = 4.0;
constexpr double kSortUnit = 0.4;  // × n log2 n

/// Textbook selectivity guesses over the predicate shape.
double Selectivity(const AstExprPtr& e) {
  if (e == nullptr) return 1.0;
  switch (e->kind) {
    case AstExprKind::kColumn:
      return 0.5;
    case AstExprKind::kLiteral:
      return !e->literal.is_null() && DatumTruthy(e->literal) ? 1.0 : 0.0;
    case AstExprKind::kCompare:
      switch (e->compare_op) {
        case CompareOp::kEq: return 0.1;
        case CompareOp::kNe: return 0.9;
        default: return 1.0 / 3.0;
      }
    case AstExprKind::kAnd:
      return Selectivity(e->left) * Selectivity(e->right);
    case AstExprKind::kOr: {
      const double a = Selectivity(e->left);
      const double b = Selectivity(e->right);
      return a + b - a * b;
    }
    case AstExprKind::kNot:
      return 1.0 - Selectivity(e->left);
    case AstExprKind::kIsNull:
      return 0.1;
  }
  return 0.5;
}

double StageSelectivity(const PhysicalNode& stage) {
  if (stage.op == PhysOp::kFilter)
    return stage.is_prob ? std::max(0.05, 1.0 - stage.min_prob)
                         : Selectivity(stage.predicate);
  return 1.0;
}

/// Per-input-row work of one stage.
double StageUnit(const PhysicalNode& stage) {
  return stage.op == PhysOp::kFilter && stage.is_prob ? kProbFilter : kStage;
}

/// Output-row estimate of one stage given its input estimate.
double StageRows(const PhysicalNode& stage, double in_rows) {
  switch (stage.op) {
    case PhysOp::kFilter:
      return in_rows * StageSelectivity(stage);
    case PhysOp::kLimit: {
      const double kept =
          std::max(0.0, in_rows - static_cast<double>(stage.offset));
      return std::min(kept, static_cast<double>(stage.limit));
    }
    default:
      return in_rows;
  }
}

/// Costs a chain over its source estimate and annotates every stage with
/// its cumulative estimate.
void CostChain(const std::vector<PhysicalNode*>& stages, double source_rows,
               double source_cost) {
  double rows = source_rows;
  double cost = source_cost;
  const bool has_batch_stage =
      std::any_of(stages.begin(), stages.end(), [](const PhysicalNode* s) {
        return s->op != PhysOp::kSort;
      });
  if (has_batch_stage) cost += kChainSetup;
  for (PhysicalNode* stage : stages) {
    cost += rows * StageUnit(*stage);
    if (stage->op == PhysOp::kSort && rows > 1.0)
      cost += kSortUnit * rows * std::log2(rows);
    rows = StageRows(*stage, rows);
    stage->est = {rows, cost};
  }
}

struct ModeContext {
  const PlannerOptions* options;
  int parallelism;
};

/// Multiplier on the cold scan unit when surviving segments hold packed
/// chunks that must be decompressed (storage::EstimateDecodeFactor).
/// Requires source.scan_predicate to be harvested (AnnotateSource).
double ColdDecodeFactor(const PhysicalNode& source) {
  return storage::EstimateDecodeFactor(*source.rel->cold_storage(),
                                       source.scan_predicate);
}

Status Annotate(PhysicalNodePtr& node, const ModeContext& c);

/// Chain shape shared by the pipeline and aggregate annotators.
struct Chain {
  std::vector<PhysicalNode*> stages;  ///< bottom-up
  PhysicalNode* source = nullptr;
  PhysicalNodePtr* source_slot = nullptr;  ///< owner of `source` (or null
                                           ///< when source == *top)
};

Chain CollectChain(PhysicalNodePtr* top) {
  Chain chain;
  PhysicalNodePtr* slot = top;
  while (IsPipelinedPhysOp((*slot)->op)) {
    chain.stages.push_back(slot->get());
    slot = &(*slot)->children[0];
  }
  std::reverse(chain.stages.begin(), chain.stages.end());
  chain.source = slot->get();
  chain.source_slot = slot;
  return chain;
}

/// Estimated rows + cumulative cost of a chain source. Catalog scans are
/// estimated directly (cold: through the zone maps) and become a
/// PhysBatchScan when the chain reads them as batches; barrier sources are
/// annotated recursively first. The cold scan predicate is (re)harvested
/// here so estimation and execution agree even when the pushdown pass was
/// skipped (optimize = false).
Status AnnotateSource(Chain* chain, const ModeContext& c) {
  PhysicalNode& source = *chain->source;
  if (IsCatalogSource(source)) {
    const bool sort_reads_table = !source.cold && !chain->stages.empty() &&
                                  chain->stages[0]->op == PhysOp::kSort;
    double unit = kFlatten;
    if (source.cold) {
      source.scan_predicate = CollectColdScanPredicate(
          chain->stages, source.rel->manager(),
          source.rel->cold_storage().get());
      unit = kColdScan * ColdDecodeFactor(source);
    } else if (!sort_reads_table) {
      unit = kWarmScan;
    }
    const double rows =
        source.cold ? static_cast<double>(storage::EstimateScanRows(
                          *source.rel->cold_storage(), source.scan_predicate))
                    : static_cast<double>(source.rel->size());
    source.est = {rows, rows * unit};
    if (!sort_reads_table) source.op = PhysOp::kBatchScan;
    return Status::OK();
  }
  TPDB_RETURN_IF_ERROR(Annotate(*chain->source_slot, c));
  chain->source = chain->source_slot->get();
  // Feeding a pipeline flattens the barrier result into a table first.
  PhysicalNode& bound = *chain->source;
  bound.est.cost += bound.est.rows * kFlatten;
  return Status::OK();
}

/// Inserts a PhysExchange over the first `prefix` stages of the chain
/// rooted at `*top` (prefix >= 1). `top` must own the chain top.
void InsertExchange(PhysicalNodePtr* top, const Chain& chain, size_t prefix,
                    int workers) {
  PhysicalNode* below = chain.stages[prefix - 1];
  auto exchange = std::make_unique<PhysicalNode>();
  exchange->op = PhysOp::kExchange;
  exchange->workers = workers;
  exchange->schema = below->schema;
  exchange->est = below->est;
  PhysicalNodePtr* slot =
      prefix < chain.stages.size() ? &chain.stages[prefix]->children[0] : top;
  exchange->children.push_back(std::move(*slot));
  *slot = std::move(exchange);
}

/// The parallel decision for a chain over `source_rows` estimated input
/// rows: how many leading row-local stages the morsel drivers should run
/// (0 = stay serial). The executor re-checks actual sizes at run time.
size_t DecideParallelPrefix(const Chain& chain, const ModeContext& c,
                            double source_rows) {
  if (c.parallelism <= 1 || chain.stages.empty()) return 0;
  if (source_rows < static_cast<double>(c.options->min_parallel_rows))
    return 0;
  // The cold morsel unit is a segment range.
  if (IsCatalogSource(*chain.source) && chain.source->cold &&
      chain.source->rel->cold_storage()->segments().size() < 2)
    return 0;
  size_t prefix = 0;
  while (prefix < chain.stages.size() &&
         IsRowLocalStage(*chain.stages[prefix]))
    ++prefix;
  return prefix;
}

/// Annotates one pipelined chain rooted at `*top`: per-stage estimates,
/// exchange insertion.
Status AnnotateChain(PhysicalNodePtr& top, const ModeContext& c) {
  Chain chain = CollectChain(&top);
  TPDB_RETURN_IF_ERROR(AnnotateSource(&chain, c));
  const double source_rows = chain.source->est.rows;
  CostChain(chain.stages, source_rows, chain.source->est.cost);
  const size_t prefix = DecideParallelPrefix(chain, c, source_rows);
  if (prefix > 0) InsertExchange(&top, chain, prefix, c.parallelism);
  return Status::OK();
}

/// Aggregate annotation: the chain below is annotated like any other, but
/// stays serial — the batch aggregate consumes it directly.
Status AnnotateAggregate(PhysicalNodePtr& node, const ModeContext& c) {
  Chain chain = CollectChain(&node->children[0]);
  TPDB_RETURN_IF_ERROR(AnnotateSource(&chain, c));
  CostChain(chain.stages, chain.source->est.rows, chain.source->est.cost);
  const PhysicalNode& top =
      chain.stages.empty() ? *chain.source : *chain.stages.back();
  const double out_rows = node->group_by.empty()
                              ? std::min(top.est.rows, 1.0)
                              : std::max(1.0, std::sqrt(top.est.rows));
  node->est = {out_rows, top.est.cost + top.est.rows * kBatchAggUnit};
  return Status::OK();
}

Status Annotate(PhysicalNodePtr& node, const ModeContext& c) {
  switch (node->op) {
    case PhysOp::kFilter:
    case PhysOp::kProject:
    case PhysOp::kSort:
    case PhysOp::kLimit:
      return AnnotateChain(node, c);
    case PhysOp::kAggregate:
      return AnnotateAggregate(node, c);
    case PhysOp::kScan:
    case PhysOp::kBatchScan: {
      // A bare source outside any chain (plan root or an operator input):
      // served straight from the catalog, zero copies, row representation.
      const double rows = static_cast<double>(node->rel->size());
      node->est = {rows, 0.0};
      return Status::OK();
    }
    case PhysOp::kTPJoin:
    case PhysOp::kAlign: {
      TPDB_RETURN_IF_ERROR(Annotate(node->children[0], c));
      TPDB_RETURN_IF_ERROR(Annotate(node->children[1], c));
      const double lr = node->children[0]->est.rows;
      const double rr = node->children[1]->est.rows;
      const double n = lr + rr;
      // Window-count heuristic: a lineage-aware join emits O(r + s +
      // overlaps) windows; without overlap statistics, r + s.
      node->est = {n, node->children[0]->est.cost +
                          node->children[1]->est.cost + n * kJoinUnit};
      return Status::OK();
    }
    case PhysOp::kTPSetOp: {
      TPDB_RETURN_IF_ERROR(Annotate(node->children[0], c));
      TPDB_RETURN_IF_ERROR(Annotate(node->children[1], c));
      const double lr = node->children[0]->est.rows;
      const double rr = node->children[1]->est.rows;
      node->est = {lr + rr, node->children[0]->est.cost +
                                node->children[1]->est.cost +
                                (lr + rr) * kSetOpUnit};
      return Status::OK();
    }
    case PhysOp::kExchange:
      return Status::Internal("exchange before mode selection");
  }
  return Status::Internal("unhandled physical node");
}

}  // namespace

Status SelectModesPass(PhysicalPlan* plan, const PassContext& ctx) {
  TPDB_CHECK(plan != nullptr && plan->root != nullptr);
  TPDB_CHECK(ctx.options != nullptr);
  const ModeContext c{ctx.options, ctx.parallelism};
  return Annotate(plan->root, c);
}

Status RunPassPipeline(PhysicalPlan* plan, const PassContext& ctx) {
  TPDB_CHECK(ctx.options != nullptr);
  if (ctx.options->optimize) {
    TPDB_RETURN_IF_ERROR(FoldConstantsPass(plan));
    TPDB_RETURN_IF_ERROR(PushdownPass(plan));
    TPDB_RETURN_IF_ERROR(PruneProjectionsPass(plan));
    TPDB_RETURN_IF_ERROR(TopKFusePass(plan));
  }
  // Mode selection is mandatory: the executors read its annotations. It
  // also (re)harvests cold scan predicates, so optimize=false keeps the
  // zone-map pruning of the pre-IR planner.
  return SelectModesPass(plan, ctx);
}

}  // namespace tpdb
