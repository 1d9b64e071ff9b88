// Brute-force reference implementations ("oracles") used by the property
// tests. These evaluate the paper's definitions literally — per time point,
// per possible world — with no algorithmic cleverness, so agreement with
// the optimized operators is strong evidence of correctness.
#ifndef TPDB_TESTS_REFERENCE_REFERENCE_H_
#define TPDB_TESTS_REFERENCE_REFERENCE_H_

#include <vector>

#include "lineage/lineage.h"
#include "tp/operators.h"
#include "tp/overlap_join.h"
#include "tp/plans.h"
#include "tp/tp_relation.h"
#include "tp/window.h"

namespace tpdb::testing {

/// Evaluates Definition 1 (Table I) directly: for every r tuple, walks its
/// interval time point by time point, computing the set of valid θ-matching
/// s tuples at each point and splitting the interval into maximal runs of
/// constant match set. Runs with an empty set become unmatched windows,
/// non-empty runs negating windows; overlapping windows are enumerated per
/// pair. `stage` selects the classes the optimized pipeline would produce:
/// kOverlap = WO + full-interval unmatched, kWuo = WO ∪ WU, kWuon = all.
std::vector<TPWindow> ReferenceWindows(const TPRelation& r,
                                       const TPRelation& s,
                                       const JoinCondition& theta,
                                       WindowStage stage);

/// One tuple of a join result restricted to a time point.
struct SnapshotTuple {
  Row fact;
  double prob = 0.0;
};

/// Snapshot semantics oracle: the TP join result at time point `t`,
/// computed from the snapshots of r and s at t with exact probabilities.
/// This is the defining property of sequenced temporal-probabilistic
/// semantics: the interval-based operator output, restricted to any t,
/// must equal this.
std::vector<SnapshotTuple> ReferenceJoinSnapshot(TPJoinKind kind,
                                                 const TPRelation& r,
                                                 const TPRelation& s,
                                                 const JoinCondition& theta,
                                                 TimePoint t);

/// Restricts an operator result to time point `t`: all tuples whose
/// interval contains t, with their exact probabilities.
std::vector<SnapshotTuple> SnapshotOf(const TPRelation& result, TimePoint t);

/// Canonical sort + approximate equality of snapshots (probability
/// tolerance 1e-9). Returns a human-readable diff on mismatch ("" = equal).
std::string CompareSnapshots(std::vector<SnapshotTuple> expected,
                             std::vector<SnapshotTuple> actual);

/// Possible-worlds probability of `r`: sums the weight of every assignment
/// of its variables that satisfies it. Exponential in the number of
/// variables (capped at 24).
double BruteForceProbability(LineageManager* manager, LineageRef r);

}  // namespace tpdb::testing

#endif  // TPDB_TESTS_REFERENCE_REFERENCE_H_
