// Mode selection — the cost model. Replaces the pre-IR planner's
// hard-coded `vectorize` / `parallelism` branching with per-node
// annotations derived from estimated cardinalities:
//
//   - Cold scans are costed through their zone maps: EstimateScanRows sums
//     the rows of the segments the pushed-down ScanPredicate cannot prune,
//     so a query that prunes 4 of 5 segments is planned for 1/5 of the
//     relation — which decides both row-vs-batch and serial-vs-parallel.
//   - Each pipelined chain is costed twice — once all-row, once with its
//     vectorizable prefix on ColumnBatch operators — and the cheaper wins
//     (PlannerOptions::vectorize = true/false overrides; unset = by cost).
//     On the batch path the source PhysScan becomes a PhysBatchScan.
//   - A chain whose row-local prefix is worth morsel-driving (estimated
//     source rows ≥ min_parallel_rows, ≥ 2 morsels/segments) gets a
//     PhysExchange inserted over that prefix; the executor re-checks the
//     actual input size at run time, so an over-estimate never forces a
//     degenerate parallel run.
//   - An aggregate whose child chain is fully vectorizable over a catalog
//     scan runs batch-at-a-time (PhysAggregate mode=batch), with the same
//     exchange treatment below it.
//   - TP joins and set operations cost one fixed unit per input row. Their
//     overlap algorithm is not a plan decision: it depends on the key
//     histogram of the actual inputs, so the join picks it when it runs
//     (ChooseOverlapAlgorithm in tp/overlap_join.h).
//
// Cost units are abstract per-row work, calibrated coarsely from
// bench_vector_exec (batch stages ≈ 3x cheaper than row stages; cold chunk
// views skip the per-row decode entirely; exact-probability thresholds
// dominate whatever they touch).
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "api/lowering_common.h"
#include "api/passes/passes.h"
#include "engine/expr.h"

namespace tpdb {

namespace {

constexpr double kRowStage = 1.0;
constexpr double kBatchStage = 0.3;
constexpr double kProbFilterRow = 8.0;
constexpr double kProbFilterBatch = 7.0;
constexpr double kWarmRowScan = 0.6;
constexpr double kWarmBatchScan = 0.45;  // per-batch transpose of rows
constexpr double kColdRowScan = 2.0;     // segment decode to rows
constexpr double kColdBatchScan = 0.25;  // zero-copy chunk views
constexpr double kBatchPipelineOverhead = 96.0;  // setup + adapters
constexpr double kRowAggUnit = 2.0;
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

/// Per-input-row work of one stage under `batch` mode.
double StageUnit(const PhysicalNode& stage, bool batch) {
  if (stage.op == PhysOp::kFilter && stage.is_prob)
    return batch ? kProbFilterBatch : kProbFilterRow;
  return batch ? kBatchStage : kRowStage;
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

/// Total cost of a chain with its first `batch_count` stages on the batch
/// path, also filling per-stage est annotations when `annotate` is set.
double CostChain(const std::vector<PhysicalNode*>& stages, double source_rows,
                 double source_cost, size_t batch_count, bool annotate) {
  double rows = source_rows;
  double cost = source_cost;
  if (batch_count > 0) cost += kBatchPipelineOverhead;
  for (size_t i = 0; i < stages.size(); ++i) {
    PhysicalNode& stage = *stages[i];
    const bool batch = i < batch_count;
    cost += rows * StageUnit(stage, batch);
    if (stage.op == PhysOp::kSort && rows > 1.0)
      cost += kSortUnit * rows * std::log2(rows);
    rows = StageRows(stage, rows);
    if (annotate) {
      stage.mode = batch ? ExecMode::kBatch : ExecMode::kRow;
      stage.est = {rows, cost};
    }
  }
  return cost;
}

struct ModeContext {
  const PlannerOptions* options;
  int parallelism;
};

/// Multiplier on the cold scan units when surviving segments hold packed
/// chunks that must be decompressed (storage::EstimateDecodeFactor).
/// Applied to both the row and the batch unit so compression never flips
/// the row-vs-batch decision, only serial-vs-parallel and scan totals.
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
/// estimated directly (cold: through the zone maps); barrier sources are
/// annotated recursively first. The cold scan predicate is (re)harvested
/// here so estimation and execution agree even when the pushdown pass was
/// skipped (optimize = false).
Status AnnotateSource(Chain* chain, const ModeContext& c, bool for_batch) {
  PhysicalNode& source = *chain->source;
  if (IsCatalogSource(source)) {
    if (source.cold) {
      source.scan_predicate = CollectColdScanPredicate(
          chain->stages, source.rel->manager(),
          source.rel->cold_storage().get());
      const double rows = static_cast<double>(storage::EstimateScanRows(
          *source.rel->cold_storage(), source.scan_predicate));
      const double decode = ColdDecodeFactor(source);
      source.est = {rows, rows * decode *
                              (for_batch ? kColdBatchScan : kColdRowScan)};
    } else {
      const double rows = static_cast<double>(source.rel->size());
      source.est = {rows, rows * (for_batch ? kWarmBatchScan : kWarmRowScan)};
    }
    return Status::OK();
  }
  TPDB_RETURN_IF_ERROR(Annotate(*chain->source_slot, c));
  chain->source = chain->source_slot->get();
  // Feeding a pipeline flattens the barrier result into a table first.
  PhysicalNode& bound = *chain->source;
  bound.est.cost += bound.est.rows * kWarmRowScan;
  return Status::OK();
}

/// Decides row vs batch for a chain: 0 = row path, else the number of
/// leading stages lowered onto ColumnBatch operators.
size_t DecideBatchCount(const Chain& chain, const ModeContext& c,
                        double source_rows) {
  if (c.options->vectorize.has_value() && !*c.options->vectorize) return 0;
  const size_t batch_count =
      CountBatchStages(chain.source->schema, chain.stages,
                       /*row_local_only=*/false);
  if (batch_count == 0) return 0;
  if (c.options->vectorize.has_value()) return batch_count;  // forced on
  // Cost both lowerings and keep the cheaper one.
  const bool cold = IsCatalogSource(*chain.source) && chain.source->cold;
  const bool catalog = IsCatalogSource(*chain.source);
  const double decode = cold ? ColdDecodeFactor(*chain.source) : 1.0;
  const double row_scan =
      catalog ? (cold ? kColdRowScan * decode : kWarmRowScan) : kWarmRowScan;
  const double batch_scan =
      cold ? kColdBatchScan * decode : kWarmBatchScan;
  const double row_cost =
      CostChain(chain.stages, source_rows, source_rows * row_scan, 0, false);
  const double batch_cost = CostChain(
      chain.stages, source_rows, source_rows * batch_scan, batch_count,
      false);
  return batch_cost < row_cost ? batch_count : 0;
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
  exchange->mode = below->mode;
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
                            size_t batch_count, double source_rows,
                            const PlannerOptions& options) {
  if (c.parallelism <= 1 || chain.stages.empty()) return 0;
  if (source_rows < static_cast<double>(options.min_parallel_rows)) return 0;
  const bool cold = IsCatalogSource(*chain.source) && chain.source->cold;
  if (cold) {
    // The cold morsel unit is a segment range; the row-mode cold scan has
    // no parallel driver (it is already the slow fallback path).
    if (batch_count == 0) return 0;
    if (chain.source->rel->cold_storage()->segments().size() < 2) return 0;
  }
  size_t prefix;
  if (batch_count > 0) {
    prefix = CountBatchStages(chain.source->schema, chain.stages,
                              /*row_local_only=*/true);
    prefix = std::min(prefix, batch_count);
  } else {
    prefix = 0;
    while (prefix < chain.stages.size() &&
           IsRowLocalStage(*chain.stages[prefix]))
      ++prefix;
  }
  return prefix;
}

/// Annotates one pipelined chain rooted at `*top`: batch decision, per-
/// stage modes + estimates, exchange insertion.
Status AnnotateChain(PhysicalNodePtr& top, const ModeContext& c) {
  Chain chain = CollectChain(&top);
  // Probe batch eligibility first so the source is costed for the right
  // mode (chicken-and-egg is fine: eligibility only needs the schema).
  TPDB_RETURN_IF_ERROR(AnnotateSource(&chain, c, /*for_batch=*/false));
  const double source_rows = chain.source->est.rows;
  const size_t batch_count = DecideBatchCount(chain, c, source_rows);
  if (batch_count > 0 && IsCatalogSource(*chain.source)) {
    chain.source->op = PhysOp::kBatchScan;
    chain.source->mode = ExecMode::kBatch;
    chain.source->est.cost =
        source_rows *
        (chain.source->cold ? kColdBatchScan * ColdDecodeFactor(*chain.source)
                            : kWarmBatchScan);
  }
  CostChain(chain.stages, source_rows, chain.source->est.cost, batch_count,
            /*annotate=*/true);
  const size_t prefix = DecideParallelPrefix(chain, c, batch_count,
                                             source_rows, *c.options);
  if (prefix > 0) InsertExchange(&top, chain, prefix, c.parallelism);
  return Status::OK();
}

/// Aggregate annotation: batch-at-a-time when the whole child chain
/// vectorizes over a catalog scan, row otherwise.
Status AnnotateAggregate(PhysicalNodePtr& node, const ModeContext& c) {
  PhysicalNodePtr& child = node->children[0];
  Chain chain = CollectChain(&child);

  bool batch_agg = false;
  if (IsCatalogSource(*chain.source) &&
      (!c.options->vectorize.has_value() || *c.options->vectorize)) {
    const size_t batchable =
        CountBatchStages(chain.source->schema, chain.stages,
                         /*row_local_only=*/false);
    if (batchable == chain.stages.size()) {
      if (c.options->vectorize.has_value()) {
        batch_agg = true;  // forced on
      } else {
        // Cost the two aggregate lowerings over the same chain estimates.
        TPDB_RETURN_IF_ERROR(AnnotateSource(&chain, c, /*for_batch=*/false));
        const double rows = chain.source->est.rows;
        const bool cold = chain.source->cold;
        const double decode = cold ? ColdDecodeFactor(*chain.source) : 1.0;
        const double row_cost = CostChain(
            chain.stages, rows,
            rows * (cold ? kColdRowScan * decode : kWarmRowScan), 0, false);
        const double batch_cost =
            CostChain(chain.stages, rows,
                      rows * (cold ? kColdBatchScan * decode : kWarmBatchScan),
                      chain.stages.size(), false);
        const double out_rows =
            chain.stages.empty()
                ? rows
                : StageRows(*chain.stages.back(), rows);  // rough feed size
        batch_agg = batch_cost + out_rows * kBatchAggUnit <
                    row_cost + out_rows * kRowAggUnit;
      }
    }
  }

  double child_rows = 0.0;
  double child_cost = 0.0;
  if (batch_agg) {
    TPDB_RETURN_IF_ERROR(AnnotateSource(&chain, c, /*for_batch=*/true));
    const double source_rows = chain.source->est.rows;
    chain.source->op = PhysOp::kBatchScan;
    chain.source->mode = ExecMode::kBatch;
    CostChain(chain.stages, source_rows, chain.source->est.cost,
              chain.stages.size(), /*annotate=*/true);
    node->mode = ExecMode::kBatch;
    child_rows = chain.stages.empty() ? source_rows
                                      : chain.stages.back()->est.rows;
    child_cost = chain.stages.empty() ? chain.source->est.cost
                                      : chain.stages.back()->est.cost;
    const size_t prefix =
        !chain.stages.empty() &&
                CountBatchStages(chain.source->schema, chain.stages,
                                 /*row_local_only=*/true) ==
                    chain.stages.size()
            ? DecideParallelPrefix(chain, c, chain.stages.size(), source_rows,
                                   *c.options)
            : 0;
    if (prefix == chain.stages.size() && prefix > 0)
      InsertExchange(&child, chain, prefix, c.parallelism);
  } else {
    TPDB_RETURN_IF_ERROR(Annotate(child, c));
    node->mode = ExecMode::kRow;
    child_rows = child->est.rows;
    child_cost = child->est.cost;
  }

  const double out_rows =
      node->group_by.empty() ? std::min(child_rows, 1.0)
                             : std::max(1.0, std::sqrt(child_rows));
  node->est = {out_rows,
               child_cost + child_rows * (node->mode == ExecMode::kBatch
                                              ? kBatchAggUnit
                                              : kRowAggUnit)};
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
