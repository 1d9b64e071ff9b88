// Planner — the last stage of the layered API. Since the physical-plan IR
// refactor it is a thin three-step driver:
//
//   1. BuildPhysicalPlan (api/physical_plan.h): bind the logical tree
//      against the catalog into a typed physical-operator tree.
//   2. RunPassPipeline (api/passes/): constant folding, predicate &
//      probability-threshold pushdown into the scans, projection pruning,
//      and zone-map-costed row/batch/parallel mode selection.
//   3. Execute the annotated tree: pipelined chains (PhysFilter /
//      PhysProject / PhysSort / PhysLimit over a source) fuse into one
//      engine/ or engine/vector/ operator chain per their ExecMode
//      annotations, PhysExchange regions run on the exec/ morsel drivers
//      with an ordered merge, and PhysTPJoin / PhysTPSetOp / PhysAlign
//      construct the tp/ and baseline/ operators from their node specs.
//
// There is exactly one lowering path: every query — row or batch, serial
// or parallel, warm or cold — routes through the same physical tree, and
// Explain renders that tree with per-node cost estimates next to actuals.
#ifndef TPDB_API_PLANNER_H_
#define TPDB_API_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "api/logical_plan.h"
#include "api/physical_plan.h"
#include "common/status.h"
#include "engine/explain.h"
#include "tp/overlap_join.h"
#include "tp/tp_relation.h"

namespace tpdb {

class ExecContext;
class TPDatabase;
struct ChainExec;

/// Physical knobs shared by every node of one execution.
struct PlannerOptions {
  /// Validate the duplicate-free-in-time invariant of join inputs.
  bool validate_inputs = true;
  /// Name given to the result relation of the plan root ("" = derived).
  std::string result_name;
  /// Worker threads for the exec/ parallel runtime: 1 = the serial path
  /// (bit-for-bit identical to the pre-exec planner), 0 = hardware
  /// concurrency, n > 1 = explicit worker count on the shared pool.
  int parallelism = 0;
  /// Tuples per morsel for the partitioned drivers.
  size_t morsel_size = 1024;
  /// Driving inputs smaller than this run serially even when
  /// parallelism > 1 (task setup would dominate).
  size_t min_parallel_rows = 512;
  /// Batch-at-a-time execution (engine/vector/). Unset (the default): the
  /// mode-selection pass picks row vs batch per pipeline by cost — batch
  /// for cold scans and large warm inputs, row where the transpose would
  /// dominate. `true` forces the batch path wherever a stage vectorizes;
  /// `false` pins the row path bit-for-bit. Results are element-wise and
  /// order identical under every setting.
  std::optional<bool> vectorize;
  /// Run the optimizing passes (constant folding, pushdown, projection
  /// pruning). `false` keeps only the mandatory mode-selection pass — the
  /// parity baseline the physical-plan suite compares against.
  bool optimize = true;
  /// Node budget for compiled probability circuits: lineage formulas whose
  /// compilation would exceed this fall back to Monte-Carlo sampling.
  size_t prob_compile_budget = size_t{1} << 20;
  /// Base seed of the Monte-Carlo probability path (`WITH PROB
  /// APPROX(eps, delta)` and budget fallbacks). Per-formula streams are
  /// derived from it, so runs with equal seeds reproduce exactly.
  uint64_t prob_mc_seed = 42;
};

/// Executes logical plans against one database's catalog.
class Planner {
 public:
  explicit Planner(TPDatabase* db, PlannerOptions options = {});

  /// Runs `plan` to completion. With `stats`, every lowered operator
  /// reports rows and wall time into the registry (registration order is
  /// bottom-up per pipeline, matching ExecStats::ToString), and the
  /// registry's physical_plan() is set to the executed tree rendered with
  /// estimates next to actuals.
  StatusOr<TPRelation> Execute(const LogicalPlan& plan,
                               ExecStats* stats = nullptr);

  /// Binds and optimizes `plan` without executing it (takes the catalog
  /// lock internally). The returned tree references catalog relations —
  /// valid until the next DDL on the database. Snapshot statements are not
  /// lowerable.
  StatusOr<PhysicalPlan> Lower(const LogicalPlan& plan);

 private:
  /// A node's result: either a relation the planner materialized, or a
  /// borrowed pointer into the catalog (scans are zero-copy — only a plan
  /// whose ROOT is a bare scan pays one copy, in Execute).
  struct EvalResult {
    std::optional<TPRelation> owned;
    const TPRelation* borrowed = nullptr;

    const TPRelation& rel() const { return owned ? *owned : *borrowed; }
  };

  /// Binds + optimizes under an already-held catalog lock, annotating for
  /// `parallelism` resolved workers (shared by Execute and Lower).
  StatusOr<PhysicalPlan> LowerLocked(const LogicalPlan& plan,
                                     int parallelism);

  StatusOr<EvalResult> ExecNode(PhysicalNode* node, ExecStats* stats);
  /// Executes the maximal pipelined chain rooted at `top` (stages +
  /// optional exchange marker over a source) per its mode annotations.
  StatusOr<EvalResult> ExecPipeline(PhysicalNode* top, ExecStats* stats);
  /// The pruned `ORDER BY _prob DESC LIMIT k` path: visits segments in
  /// zone-map max-probability order and stops once the running k-th
  /// probability beats every remaining segment's upper bound. Returns
  /// nullopt when the chain is not that shape (the generic pipeline runs).
  StatusOr<std::optional<EvalResult>> ExecTopKProb(const ChainExec& chain,
                                                   ExecStats* stats);
  StatusOr<EvalResult> ExecJoin(PhysicalNode* node, ExecStats* stats);
  StatusOr<EvalResult> ExecSetOp(PhysicalNode* node, ExecStats* stats);
  StatusOr<EvalResult> ExecAggregate(PhysicalNode* node, ExecStats* stats);
  StatusOr<EvalResult> ExecRowAggregate(PhysicalNode* node, ExecStats* stats);
  StatusOr<std::optional<EvalResult>> ExecBatchAggregate(PhysicalNode* node,
                                                         ExecStats* stats);

  TPDatabase* db_;
  PlannerOptions options_;
  /// Parallel-runtime handle of the execution in flight (set by Execute;
  /// null while idle and on the parallelism == 1 serial path).
  ExecContext* ctx_ = nullptr;
};

}  // namespace tpdb

#endif  // TPDB_API_PLANNER_H_
