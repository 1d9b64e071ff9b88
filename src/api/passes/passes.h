// Optimizer passes over the physical plan IR (api/physical_plan.h). The
// planner runs them in a fixed pipeline between binding and execution:
//
//   1. FoldConstantsPass      — evaluate constant predicate subtrees with
//      the engine's exact three-valued semantics; always-true filters
//      disappear from the tree.
//   2. PushdownPass           — move predicate filters and probability
//      thresholds down through sorts and projections (rewriting column
//      names through aliases), order cheap predicate filters before
//      expensive probability thresholds, move the conjuncts of a predicate
//      filter on a PhysTPJoin into the join's input(s), and harvest the
//      conjunctive bounds of the leading filter run into the PhysScan's
//      ScanPredicate (the zone maps prune on it; the probability dimension
//      is epoch-gated). A TP join builds each window from one driving
//      tuple and its θ-matches, so a conjunct over left facts moves into
//      the left input for INNER / LEFT / ANTI / SEMI, one over right facts
//      (through the `_s` renames) into the right input for INNER / RIGHT,
//      and a moved conjunct over join_on columns only is mirrored onto
//      the other input. Never across a join: FULL JOIN, the NULL-padded
//      side of an outer join, probability thresholds (the join rewrites
//      the lineage), `_ts` / `_te` / `_lin` (windows are not input
//      intervals), conjuncts over both sides, PhysAlign, and anything
//      above a PhysLimit.
//   3. PruneProjectionsPass   — collapse stacked projections into one and
//      drop identity projections.
//   4. SelectModesPass        — the cost model: estimate per-node
//      cardinalities (cold scans via zone maps — EstimateScanRows over the
//      pushed predicate), turn each catalog source a chain reads as
//      batches into a PhysBatchScan, and insert PhysExchange over
//      row-local prefixes worth running on the morsel drivers — never
//      under an aggregate, whose chain runs serially into the batch hash
//      aggregate.
//
// Every pass preserves results element-wise (values, intervals, exact
// probabilities, emit order) — the physical-plan parity suite sweeps
// optimize on/off × parallelism to prove it.
#ifndef TPDB_API_PASSES_PASSES_H_
#define TPDB_API_PASSES_PASSES_H_

#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/status.h"

namespace tpdb {

/// Everything a pass may consult. `parallelism` is the resolved worker
/// count of the execution in flight (1 = serial).
struct PassContext {
  const PlannerOptions* options = nullptr;
  int parallelism = 1;
};

Status FoldConstantsPass(PhysicalPlan* plan);
Status PushdownPass(PhysicalPlan* plan);
Status PruneProjectionsPass(PhysicalPlan* plan);
Status SelectModesPass(PhysicalPlan* plan, const PassContext& ctx);
/// Fuses Limit(k, offset 0) into a directly-below single-key `_prob DESC`
/// Sort (sort->top_k = k), unlocking the planner's pruned top-k-by-
/// probability executor. The Limit node stays (harmless over ≤k rows), so
/// the fusion is a pure annotation and trivially parity-safe.
Status TopKFusePass(PhysicalPlan* plan);

/// Folds a predicate AST with the engine's exact semantics (Kleene 3VL,
/// Datum comparison with int64↔double promotion). Returns the input
/// pointer when nothing folds. Exposed for tests and the pushdown pass.
AstExprPtr FoldAstExpr(const AstExprPtr& e);

/// The full pipeline, honoring PlannerOptions::optimize (when false, only
/// the mandatory mode-selection pass runs — the parity baseline).
Status RunPassPipeline(PhysicalPlan* plan, const PassContext& ctx);

}  // namespace tpdb

#endif  // TPDB_API_PASSES_PASSES_H_
