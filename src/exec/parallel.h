// Parallel drivers for the hot TP operators, built on the morsel
// partitioners and the work-stealing pool:
//
//   - ParallelTPJoin     — runs each window pipeline of a lineage-aware
//     join over contiguous morsels of its driving input (r for the
//     r-driven pipeline, s for the s-driven one). Window pipelines emit
//     per driving tuple in driving-input order, so concatenating the
//     per-morsel outputs in morsel order reproduces the serial join's
//     tuple sequence exactly.
//   - ParallelTPSetOp    — hash-partitions both inputs on the full fact
//     row (set-op θ is equality on all fact columns) and runs fully
//     independent pipeline pairs per partition. Contents match the serial
//     operator element-wise; tuple order is the deterministic partition
//     order instead of the serial emit order.
//
// Both resolve kAuto once for the whole operator (ChooseOverlapAlgorithm).
// A hot key that picks the sweep also puts most rows in one morsel's key
// group or one fact partition, so on the sweep they run the serial plan.
//   - ParallelBatchPipeline — runs a caller-built row-local batch chain
//     (filter / project / probability threshold) over each morsel of a
//     batch source (a row range of a table, a segment range of a cold
//     relation) and merges the outputs in morsel order (ordered merge:
//     byte-identical to the serial pipeline).
//
// Every driver degrades to the serial operator when the context says the
// input is too small or parallelism is 1, and records per-worker timings
// into the ExecContext for engine/explain.
#ifndef TPDB_EXEC_PARALLEL_H_
#define TPDB_EXEC_PARALLEL_H_

#include <functional>
#include <string>

#include "engine/vector/batch_operator.h"
#include "exec/exec_context.h"
#include "tp/operators.h"
#include "tp/set_ops.h"

namespace tpdb {

/// Parallel TPJoin. Falls back to the serial TPJoin for the temporal-
/// alignment strategy, for inputs below the context's parallel threshold
/// and for the sweep. Results are element-wise AND order-identical to
/// TPJoin.
StatusOr<TPRelation> ParallelTPJoin(ExecContext* ctx, TPJoinKind kind,
                                    const TPRelation& r, const TPRelation& s,
                                    const JoinCondition& theta,
                                    const TPJoinOptions& options = {});

/// Parallel set operation. Falls back to the serial TPSetOp below the
/// parallel threshold and runs the serial plan on the sweep. Results are
/// element-wise identical to TPSetOp; tuple order is the (deterministic)
/// hash-partition order, or the serial order on the sweep.
StatusOr<TPRelation> ParallelTPSetOp(ExecContext* ctx, TPSetOpKind kind,
                                     const TPRelation& r, const TPRelation& s,
                                     std::string result_name = "");

/// Spec forms — the physical-plan executors construct the spec from a
/// PhysTPJoin / PhysTPSetOp node and dispatch here when a context is live.
StatusOr<TPRelation> ParallelTPJoin(ExecContext* ctx, const TPJoinSpec& spec,
                                    const TPRelation& r, const TPRelation& s);
StatusOr<TPRelation> ParallelTPSetOp(ExecContext* ctx,
                                     const TPSetOpSpec& spec,
                                     const TPRelation& r,
                                     const TPRelation& s);

/// Builds the batch source for morsel `i` (a TableBatchScan over a row
/// range, a SegmentBatchScan over a segment range, …). Must be safe to
/// call concurrently.
using BatchSourceFactory =
    std::function<StatusOr<vec::BatchOperatorPtr>(size_t morsel)>;

/// Builds one instance of a row-local batch operator chain over `source`.
/// Must be safe to call concurrently (compiled predicates carry per-batch
/// scratch state, so every morsel gets its own chain).
using BatchChainFactory =
    std::function<StatusOr<vec::BatchOperatorPtr>(vec::BatchOperatorPtr)>;

/// Runs `chain` over every one of `num_morsels` independent batch sources
/// and merges the materialized per-morsel outputs in morsel order. The
/// chain must be row-local (filter / project / probability threshold — no
/// limit or aggregation), which makes the merged table byte-identical to
/// one serial run over the concatenated sources.
StatusOr<Table> ParallelBatchPipeline(ExecContext* ctx, size_t num_morsels,
                                      const BatchSourceFactory& source,
                                      const BatchChainFactory& chain);

}  // namespace tpdb

#endif  // TPDB_EXEC_PARALLEL_H_
