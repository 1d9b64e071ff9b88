// Window-plan assembly: wires the overlap join, LAWAU and LAWAN into one
// pipelined plan (the NJ execution strategy). Exposed separately from the
// join operators so the benchmarks can measure each stage — WO, WUO
// (Fig. 5), WN / WUON (Fig. 6) — exactly as the paper does.
#ifndef TPDB_TP_PLANS_H_
#define TPDB_TP_PLANS_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/operator.h"
#include "tp/overlap_join.h"
#include "tp/tp_relation.h"
#include "tp/window.h"

namespace tpdb {

/// How far to take the window pipeline.
enum class WindowStage {
  kOverlap,  ///< r ⟕_{θo∧θ} s only (WO + full-interval unmatched)
  kWuo,      ///< + LAWAU: all unmatched windows (the paper's WUO)
  kWuon,     ///< + LAWAN: all negating windows (the paper's WUON)
};

/// A runnable window pipeline plus the materialized inputs it scans.
/// Move-only; the tables are heap-allocated so operators' pointers stay
/// valid across moves. Both tables may be shared: morsel plans built by the
/// parallel runtime all point at one flattened s, and the two pipelines of
/// a full outer join read the same flattened r and s.
struct WindowPlan {
  std::shared_ptr<const Table> r_table;
  std::shared_ptr<const Table> s_table;
  WindowLayout layout{0, 0};
  OperatorPtr root;
};

/// Builds the NJ pipeline over `r` and `s` up to `stage`; kAuto resolves
/// through ChooseOverlapAlgorithm. The default is the paper's plan, so the
/// stage benches time what the paper times. With `probe`
/// (from MakeWindowProbeSide over the same `s`), the plan reuses the
/// shared flattened table and partitioned build instead of re-deriving
/// them — the parallel driver's path, where `r` is one morsel. With
/// `r_table` (r.ToTable(), flattened by the caller), the plan scans it
/// instead of flattening r again.
StatusOr<WindowPlan> MakeWindowPlan(
    const TPRelation& r, const TPRelation& s, const JoinCondition& theta,
    WindowStage stage,
    OverlapAlgorithm algorithm = OverlapAlgorithm::kPartitioned,
    const OverlapProbeSide* probe = nullptr,
    std::shared_ptr<const Table> r_table = nullptr);

/// Flattens and (for the partitioned algorithm) hash-partitions `s` once,
/// for sharing across many MakeWindowPlan calls.
StatusOr<OverlapProbeSide> MakeWindowProbeSide(const TPRelation& s,
                                               const Schema& r_facts,
                                               const JoinCondition& theta,
                                               OverlapAlgorithm algorithm);

/// Continues a materialized WUO table with LAWAN only (used by the Fig. 6
/// bench to time WN in isolation). `wuo` must outlive the operator.
OperatorPtr MakeLawanOnly(const Table* wuo, WindowLayout layout,
                          LineageManager* manager);

/// Convenience for tests and examples: runs the pipeline and returns the
/// materialized windows of the requested classes.
StatusOr<std::vector<TPWindow>> ComputeWindows(
    const TPRelation& r, const TPRelation& s, const JoinCondition& theta,
    WindowStage stage,
    OverlapAlgorithm algorithm = OverlapAlgorithm::kPartitioned);

}  // namespace tpdb

#endif  // TPDB_TP_PLANS_H_
