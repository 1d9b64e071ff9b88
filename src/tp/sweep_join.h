// Sweep-line interval join (OverlapAlgorithm::kSweep): both sides sorted
// by _ts, one merged stream of tuple-start events swept left to right with
// per-equi-key active sets.
//
// At each event the arriving tuple probes the OTHER side's active set for
// its key — expiring entries whose interval ended at or before the event
// time — and then inserts itself. Every overlapping θ-matching pair (r, s)
// is discovered exactly once, at t = max(r.ts, s.ts) = the window start,
// so the sweep emits each overlapping window with zero post-processing.
// Grouping the emitted windows by rid (and adding the full-interval
// unmatched window for rids that matched nothing) reproduces exactly the
// stream MakeOverlapWindowJoin's probe plan feeds LAWAU: per-rid groups
// ordered by window start.
#ifndef TPDB_TP_SWEEP_JOIN_H_
#define TPDB_TP_SWEEP_JOIN_H_

#include "common/status.h"
#include "engine/operator.h"
#include "tp/overlap_join.h"

namespace tpdb {

/// kSweep lowering of MakeOverlapWindowJoin over flattened tables (facts
/// ++ _ts ++ _te ++ _lin), which must outlive the operator: sweeps on
/// Open() (sorting a side only when its hint says it is not already
/// _ts-ordered), groups per rid, and streams groups in rid order with
/// full-interval unmatched fill-ins — the same output contract, same
/// downstream LAWAU/LAWAN. Each sweep adds to the tpdb_join_sweep_*
/// metrics.
StatusOr<OperatorPtr> MakeSweepWindowJoin(
    const Table* r_table, const Schema& r_facts, const Table* s_table,
    const Schema& s_facts, const JoinCondition& theta,
    const OverlapJoinHints& hints = {});

}  // namespace tpdb

#endif  // TPDB_TP_SWEEP_JOIN_H_
