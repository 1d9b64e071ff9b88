// Public TP join operators (the paper's Table II):
//
//   anti join   r ▷ s      — WU(r;s,θ) ∪ WN(r;s,θ)
//   left outer  r ⟕ s      — WU(r;s,θ) ∪ WN(r;s,θ) ∪ WO(r;s,θ)
//   right outer r ⟖ s      — WO(r;s,θ) ∪ WU(s;r,θ) ∪ WN(s;r,θ)
//   full outer  r ⟗ s      — all five sets (WO computed once)
//   inner       r ⋈ s      — WO(r;s,θ) (for completeness)
//   semi join   r ⋉ s      — WN(r;s,θ) with lineage λr ∧ λs (an extension:
//                            the dual of the anti join, expressible with
//                            the same windows and a different concatenation)
//
// Each window becomes one output tuple: facts and interval taken verbatim,
// lineage combined with the class's concatenation function, probability
// computed exactly from the lineage.
#ifndef TPDB_TP_OPERATORS_H_
#define TPDB_TP_OPERATORS_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "tp/overlap_join.h"
#include "tp/plans.h"
#include "tp/tp_relation.h"

namespace tpdb {

/// The TP joins of the paper (Table II) plus inner and semi joins.
enum class TPJoinKind {
  kInner,
  kAnti,
  kLeftOuter,
  kRightOuter,
  kFullOuter,
  kSemi,
};

/// Parses/prints the operator symbol used in the paper.
const char* TPJoinKindName(TPJoinKind kind);

/// Execution strategy for a TP join.
enum class JoinStrategy {
  /// The paper's approach: lineage-aware windows via LAWAU/LAWAN (NJ).
  kLineageAware,
  /// The baseline: Temporal Alignment adapted for TP joins (TA).
  kTemporalAlignment,
};

/// Options for TPJoin.
struct TPJoinOptions {
  JoinStrategy strategy = JoinStrategy::kLineageAware;
  /// Physical algorithm for the NJ overlap join. kAuto picks it from the
  /// inputs once per join (ChooseOverlapAlgorithm); the forced values are
  /// for the TA baseline, tests and benches.
  OverlapAlgorithm overlap_algorithm = OverlapAlgorithm::kAuto;
  /// Name of the result relation ("" = derived from the inputs).
  std::string result_name;
  /// Verify the duplicate-free-in-time invariant of both inputs up front
  /// (O(n log n); benchmarks switch this off to time the join alone).
  bool validate_inputs = true;
};

/// Computes `kind` over r and s with condition θ. Both relations must share
/// a LineageManager and satisfy Validate().
StatusOr<TPRelation> TPJoin(TPJoinKind kind, const TPRelation& r,
                            const TPRelation& s, const JoinCondition& theta,
                            const TPJoinOptions& options = {});

/// Plan-node payload of a TP join: everything needed to construct the
/// operator, minus the inputs (which arrive from the children of the
/// physical node). The executor of a PhysTPJoin node (api/physical_plan.h)
/// builds one of these from the node and hands it to TPJoin — or to
/// exec/parallel.h's ParallelTPJoin when a context is in play.
struct TPJoinSpec {
  TPJoinKind kind = TPJoinKind::kInner;
  JoinCondition theta;
  TPJoinOptions options;
};

/// Runs the join described by `spec` over (r, s).
StatusOr<TPRelation> TPJoin(const TPJoinSpec& spec, const TPRelation& r,
                            const TPRelation& s);

// Convenience wrappers.
StatusOr<TPRelation> TPInnerJoin(const TPRelation& r, const TPRelation& s,
                                 const JoinCondition& theta,
                                 const TPJoinOptions& options = {});
StatusOr<TPRelation> TPAntiJoin(const TPRelation& r, const TPRelation& s,
                                const JoinCondition& theta,
                                const TPJoinOptions& options = {});
StatusOr<TPRelation> TPLeftOuterJoin(const TPRelation& r, const TPRelation& s,
                                     const JoinCondition& theta,
                                     const TPJoinOptions& options = {});
StatusOr<TPRelation> TPRightOuterJoin(const TPRelation& r, const TPRelation& s,
                                      const JoinCondition& theta,
                                      const TPJoinOptions& options = {});
StatusOr<TPRelation> TPFullOuterJoin(const TPRelation& r, const TPRelation& s,
                                     const JoinCondition& theta,
                                     const TPJoinOptions& options = {});
StatusOr<TPRelation> TPSemiJoin(const TPRelation& r, const TPRelation& s,
                                const JoinCondition& theta,
                                const TPJoinOptions& options = {});

/// Output fact schema of `kind` over the given input fact schemas (r facts
/// followed by s facts, except anti join which keeps only r facts).
Schema TPJoinOutputSchema(TPJoinKind kind, const Schema& r_facts,
                          const Schema& s_facts);

// -- Pipeline-level entry points (the parallel driver's building blocks) --
//
// A lineage-aware join runs up to two window pipelines: the r-driven one
// (windows per r tuple — every kind except right outer) and the s-driven
// one (windows per s tuple — right and full outer). Each pipeline's output
// depends on one driving tuple plus the whole other side, so exec/ can run
// a pipeline over contiguous morsels of its driving input and concatenate
// the partial outputs in morsel order to reproduce the serial emit order.

/// Which pipelines `kind` runs.
struct JoinPipelines {
  bool r_driven = false;
  bool s_driven = false;
};
JoinPipelines LineageAwareJoinPipelines(TPJoinKind kind);

/// Runs ONE window pipeline of the lineage-aware `kind` over (r, s) —
/// in join orientation, even for the s-driven pipeline — appending output
/// tuples to `result`, whose schema must be TPJoinOutputSchema(kind, …).
/// Serial LineageAwareJoin == r-driven pipeline, then s-driven pipeline.
/// With `probe` (a MakeWindowProbeSide over the pipeline's probe input —
/// s for the r-driven pipeline, r for the s-driven one), the window plan
/// reuses the shared flattened table + partitioned build; with
/// `driving_table` (the driving input already flattened — r for the
/// r-driven pipeline, s for the s-driven one), it scans that table instead
/// of flattening the input again. `algorithm` must be resolved already
/// (ChooseOverlapAlgorithm), so both pipelines and all morsels of one join
/// run the same plan.
Status RunLineageAwareJoinPipeline(
    TPJoinKind kind, bool s_driven, const TPRelation& r, const TPRelation& s,
    const JoinCondition& theta, OverlapAlgorithm algorithm,
    TPRelation* result, const OverlapProbeSide* probe = nullptr,
    std::shared_ptr<const Table> driving_table = nullptr);

}  // namespace tpdb

#endif  // TPDB_TP_OPERATORS_H_
