// Shared lowering helpers — the single home of the resolution and
// compilation logic used by every PhysicalPlan executor (warm, cold,
// serial, parallel, top-k) and by the optimizer passes. One predicate
// compiler, one ProjectPlan / AggPlan and one scan-predicate
// implementation means every route validates identically and reports
// identical errors.
#ifndef TPDB_API_LOWERING_COMMON_H_
#define TPDB_API_LOWERING_COMMON_H_

#include <string>
#include <vector>

#include "api/ast.h"
#include "common/status.h"
#include "engine/explain.h"
#include "engine/expr.h"
#include "engine/vector/batch_operator.h"
#include "engine/vector/batch_ops.h"
#include "engine/vector/predicate.h"
#include "storage/scan.h"
#include "tp/tp_relation.h"

namespace tpdb {

struct PhysicalNode;

/// True for _ts / _te / _lin — the interval and lineage columns that ride
/// along implicitly on every projection.
bool IsReservedColumn(const std::string& name);

/// Appends the reserved interval/lineage columns to a fact schema — the
/// flattened engine layout every pipeline runs over.
Schema FlattenFactSchema(const Schema& facts);

/// Strips the trailing reserved columns off a flattened schema.
Schema FactSchemaOf(const Schema& flat);

/// Static result type of a predicate operand against `schema` (used to
/// decide whether a comparison needs int64↔double promotion).
DatumType StaticPredicateType(const AstExpr& e, const Schema& schema);

bool DatumToDouble(const Datum& d, double* out);

/// Compiles a predicate AST into a vectorized expression over `schema`.
/// Every AST shape compiles: a comparison operand may itself be a
/// predicate, compared by its Kleene value as int64 0/1 or NULL. Unknown
/// columns are NotFound, naming the schema's columns.
StatusOr<vec::VectorExprPtr> CompileVectorPredicate(const AstExprPtr& e,
                                                    const Schema& schema);

/// Resolved form of one projection stage: source indices and output names
/// (the reserved interval/lineage columns ride along at the end). Shared
/// by the binder, the pushdown pass and the batch lowering.
struct ProjectPlan {
  std::vector<int> indices;
  std::vector<std::string> names;
};

StatusOr<ProjectPlan> PlanProjectStage(const std::vector<std::string>& columns,
                                       const std::vector<std::string>& aliases,
                                       const Schema& schema);

/// Output schema of a resolved projection over `schema`.
Schema ProjectOutputSchema(const ProjectPlan& plan, const Schema& schema);

/// Mirrors a comparison for a flipped "literal OP column" term.
CompareOp MirrorCompare(CompareOp op);

/// Harvests conjunctive column-vs-numeric-literal bounds from a filter
/// predicate into a scan predicate the cold path can prune on. Anything
/// it cannot express (OR, NOT, column-vs-column, strings) contributes no
/// bound — pruning stays conservative and the filter still runs.
void CollectScanBounds(const AstExprPtr& e, storage::ScanPredicate* pred);

/// Output column name of an aggregate, e.g. "count", "sum_Temp".
std::string AggOutputName(const SelectItem& item);

/// Resolved aggregate: group/aggregate column indices (into the fact
/// schema — which equals the flattened prefix) and the output fact
/// columns. Shared by the binder and the batch aggregate so both validate
/// identically.
struct AggPlan {
  std::vector<int> group_idx;
  std::vector<int> agg_idx;  ///< -1 for COUNT(*)
  std::vector<Column> out_cols;
};

StatusOr<AggPlan> ResolveAggregatePlan(
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& group_aliases,
    const std::vector<SelectItem>& aggregates, const Schema& facts);

vec::BatchAggFn MapAggFn(AggFn fn);

// -- Stage-level lowering over physical nodes ------------------------------
//
// A "stage" here is one pipelined physical node (PhysFilter / PhysProject /
// PhysSort / PhysLimit) in bottom-up order — the order rows flow through
// them. The executors collect the maximal chain above a source and lower
// it: every stage but a sort onto a batch operator; a sort is a barrier
// that materializes its input, sorts it, and hands the sorted table to the
// stages above.

/// True for stages that decide each row independently — the ones the
/// parallel pipeline drivers may run per-morsel with an ordered merge.
bool IsRowLocalStage(const PhysicalNode& stage);

/// Lowers stages [first, last) — none of them a sort — onto batch
/// operators over `op`. Pure (no planner state), so the parallel driver
/// can instantiate the same chain once per morsel. `prob_base` carries the
/// planner's probability-evaluation knobs (expansion budget, sampling seed);
/// a stage's own APPROX contract is layered on top of it. With `stats`,
/// each stage is instrumented as a "(vec)" node whose NodeStats slot is
/// also recorded on the stage's physical node for the Explain tree.
/// Malformed stages (unknown columns) return their error.
StatusOr<vec::BatchOperatorPtr> LowerBatchStages(
    vec::BatchOperatorPtr op, const std::vector<PhysicalNode*>& stages,
    size_t first, size_t last, LineageManager* manager, VectorStats* vstats,
    ExecStats* stats, const ProbEvalOptions& prob_base = {});

/// Runs one sort stage over `input`: a stable sort on ORDER BY columns
/// and the virtual `_prob` column, whose probabilities come from the
/// evaluation ladder (the stage records the methods it used). The pruned
/// top-k path is an optimization of the `_prob DESC LIMIT k` shape with
/// this sort as its parity baseline. With `stats`, the sort reports into a
/// node of its own, recorded on the stage.
StatusOr<Table> SortTable(PhysicalNode& stage, Table input,
                          LineageManager* manager, ExecStats* stats,
                          const ProbEvalOptions& prob_base = {});

/// The per-stage evaluation options: the planner's base knobs plus the
/// stage's APPROX(eps, delta) contract, when it carries one.
ProbEvalOptions StageProbOptions(const PhysicalNode& stage,
                                 const ProbEvalOptions& base);

/// The scan predicate the cold paths push down: conjunctive bounds from
/// the leading run of filter / probability-threshold stages, with the
/// probability dimension epoch-gated (zone-map max_prob is snapshot-time
/// data — stale after SetVariableProbability, so that dimension is dropped
/// rather than risking a wrong prune).
storage::ScanPredicate CollectColdScanPredicate(
    const std::vector<PhysicalNode*>& stages, LineageManager* manager,
    const storage::SegmentedTable* table);

/// One pipelined chain as the executors see it: bottom-up stages, the
/// exchange marker (when the mode pass inserted one) with the number of
/// stages it covers, and the source.
struct ChainExec {
  std::vector<PhysicalNode*> stages;  ///< bottom-up
  PhysicalNode* exchange = nullptr;
  size_t parallel_prefix = 0;  ///< stages under the exchange
  PhysicalNode* source = nullptr;
};

/// Collects the maximal pipelined chain rooted at `top` (inclusive).
ChainExec CollectExecChain(PhysicalNode* top);

}  // namespace tpdb

#endif  // TPDB_API_LOWERING_COMMON_H_
