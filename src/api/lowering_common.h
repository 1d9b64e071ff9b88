// Shared lowering helpers — the single home of the resolution and
// compilation logic used by every PhysicalPlan executor (row, batch, cold,
// parallel) and by the optimizer passes. One ProjectPlan / AggPlan /
// scan-predicate implementation means the row and batch paths validate
// identically and report identical errors, which is what the parity suite
// leans on.
#ifndef TPDB_API_LOWERING_COMMON_H_
#define TPDB_API_LOWERING_COMMON_H_

#include <string>
#include <vector>

#include "api/ast.h"
#include "common/status.h"
#include "engine/explain.h"
#include "engine/expr.h"
#include "engine/operator.h"
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

/// Comparison with numeric promotion: int64 and double operands are
/// compared as doubles (Datum::Compare alone orders by type rank).
ExprPtr PromotedCompare(CompareOp op, ExprPtr a, ExprPtr b);

/// Compiles a predicate AST into an engine expression over `schema`.
StatusOr<ExprPtr> CompilePredicate(const AstExprPtr& e, const Schema& schema);

/// Compiles a predicate AST into a vectorized expression over `schema`,
/// with the same column resolution and numeric-promotion decisions as
/// CompilePredicate. Shapes the vector evaluator does not cover return an
/// error and the stage stays on the row path — which also owns the
/// user-facing error reporting for genuinely malformed predicates.
StatusOr<vec::VectorExprPtr> CompileVectorPredicate(const AstExprPtr& e,
                                                    const Schema& schema);

/// Resolved form of one projection stage: source indices and output names
/// (the reserved interval/lineage columns ride along at the end). Shared
/// by the row and batch lowerings so both validate identically.
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
/// columns. Shared by the row and batch aggregate paths so both validate
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
// them. The executors collect the maximal chain above a source and hand it
// to these helpers.

/// Lowers ONE pipelined physical stage onto `op`. Pure (no planner state),
/// so the parallel driver can instantiate the same chain once per morsel.
/// `prob_base` carries the planner's probability-evaluation knobs (circuit
/// budget, sampling seed); the stage's own APPROX contract is layered on
/// top of it. Probability stages record the evaluation methods they used on
/// the physical node (atomically — morsel instances share the node).
StatusOr<OperatorPtr> LowerPipelineStage(PhysicalNode& stage,
                                         OperatorPtr op,
                                         LineageManager* manager,
                                         const ProbEvalOptions& prob_base = {});

/// True for stages that decide each row independently — the ones the
/// parallel pipeline drivers may run per-morsel with an ordered merge.
bool IsRowLocalStage(const PhysicalNode& stage);

/// How many leading stages the batch path can lower over a source with
/// `schema` — filters with vectorizable predicates, projections,
/// probability thresholds, and (unless `row_local_only`, the parallel
/// driver's constraint) limits. Tracks the schema across projections;
/// `out_schema`, when given, receives the schema after the lowered run.
size_t CountBatchStages(Schema schema,
                        const std::vector<PhysicalNode*>& stages,
                        bool row_local_only, Schema* out_schema = nullptr);

/// Lowers exactly `count` leading stages — pre-validated by
/// CountBatchStages — onto batch operators over `op`. With `stats`, each
/// stage is instrumented as a "(vec)" node whose NodeStats slot is also
/// recorded on the stage's physical node for the Explain tree.
vec::BatchOperatorPtr LowerBatchStages(
    vec::BatchOperatorPtr op, const std::vector<PhysicalNode*>& stages,
    size_t count, LineageManager* manager, VectorStats* vstats,
    ExecStats* stats, const ProbEvalOptions& prob_base = {});

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
/// stages it covers, the leading batch-mode stage count, and the source.
struct ChainExec {
  std::vector<PhysicalNode*> stages;  ///< bottom-up
  PhysicalNode* exchange = nullptr;
  size_t parallel_prefix = 0;  ///< stages under the exchange
  size_t batch_prefix = 0;     ///< leading stages with mode == kBatch
  PhysicalNode* source = nullptr;
};

/// Collects the maximal pipelined chain rooted at `top` (inclusive).
ChainExec CollectExecChain(PhysicalNode* top);

}  // namespace tpdb

#endif  // TPDB_API_LOWERING_COMMON_H_
