// Overlapping-window computation: the conventional outer join r ⟕_{θo∧θ} s
// of Section III-A, producing canonical window rows (WindowLayout):
//   - one overlapping window per (r, s) pair that overlaps and satisfies θ,
//     with the intersection interval and the original r interval;
//   - one full-interval unmatched window for every r tuple that matches no
//     s tuple at all.
// The remaining (partial) unmatched windows are added by LAWAU downstream.
#ifndef TPDB_TP_OVERLAP_JOIN_H_
#define TPDB_TP_OVERLAP_JOIN_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/operator.h"
#include "engine/temporal_outer_join.h"
#include "tp/tp_relation.h"
#include "tp/window.h"

namespace tpdb {

/// The join condition θ over the non-temporal attributes of r and s.
struct JoinCondition {
  /// Pairwise equality of fact columns, by name (e.g. {"Loc","Loc"}).
  std::vector<std::pair<std::string, std::string>> equal_columns;

  /// Optional general predicate over the two fact rows; combined (AND) with
  /// the equalities. Leave empty for pure equi-θ.
  std::function<bool(const Row& r_fact, const Row& s_fact)> predicate;

  /// Convenience: θ with a single equality column present in both schemas.
  static JoinCondition Equals(const std::string& column) {
    JoinCondition cond;
    cond.equal_columns.emplace_back(column, column);
    return cond;
  }

  /// True iff θ has no constraints (matches every pair). NOT the same as
  /// equal_columns.empty(): a predicate-only θ still constrains pairs, but
  /// like the trivial θ it gives the probe one partition holding all of s,
  /// so kAuto counts |r|·|s| candidate pairs for both shapes.
  bool IsTrivial() const {
    return equal_columns.empty() && !predicate;
  }
};

/// Physical algorithm for the overlap join.
enum class OverlapAlgorithm {
  /// Hash-partition s on the equi-keys, probe sorted by interval start —
  /// the plan the paper's NJ uses inside PostgreSQL. Each r row rescans
  /// its key's partition, so its cost grows with the key-group sizes.
  kPartitioned,
  /// Plain nested loop — the TA baseline's overlap join and the ablation
  /// baseline. kAuto never picks it.
  kNestedLoop,
  /// Sort-merge/sweep-line: both sides sorted by _ts (skipped when the
  /// hints say an input already is), one merged start-event stream swept
  /// with per-equi-key active sets (tp/sweep_join.h). O(n log n + output)
  /// whatever the key histogram, but it pays the sort and the regrouping
  /// per rid even where keys are spread thin.
  kSweep,
  /// Picks kPartitioned or kSweep from the data: the sweep when one hot
  /// key makes the probe's candidate pairs per input row exceed a fixed
  /// bound (ChooseOverlapAlgorithm). The default of every entry point that
  /// runs a whole join or set operation.
  kAuto,
};

/// Name of an overlap algorithm ("partitioned" / "nested-loop" / "sweep" /
/// "auto").
const char* OverlapAlgorithmName(OverlapAlgorithm algorithm);

/// Hash of the key values of `fact` at `columns`; nullopt when one is NULL
/// (a NULL key matches nothing). Equal keys of equal type hash equally, so
/// it groups rows by equi-key for the sweep's active sets and for
/// OverlapCandidatesPerRow; callers re-check equality where it matters.
std::optional<uint64_t> EquiKeyHash(const Row& fact,
                                    const std::vector<int>& columns);

/// The probe's candidate pairs per input row for the overlap join of r and
/// s under θ: Σ_k |r_k|·|s_k| / (|r| + |s|) over the groups k of equal
/// equi-key values. Rows with a NULL key match nothing and are left out of
/// the sum; a θ with no equi-keys has one group, |r|·|s|. 0 when both
/// inputs are empty.
double OverlapCandidatesPerRow(const TPRelation& r, const TPRelation& s,
                               const JoinCondition& theta);

/// Resolves `requested` for one overlap join: a forced algorithm is
/// returned as is; kAuto becomes kSweep when OverlapCandidatesPerRow
/// exceeds 16 (one key is hot enough that the probe's rescans of its
/// partition cost more than the sweep's sort), kPartitioned otherwise.
OverlapAlgorithm ChooseOverlapAlgorithm(OverlapAlgorithm requested,
                                        const TPRelation& r,
                                        const TPRelation& s,
                                        const JoinCondition& theta);

/// Physical properties of the inputs the caller already knows. Sortedness
/// by _ts flows from TPRelation::sorted_by_ts() — maintained on append and
/// restored by compaction, which re-sorts merged segments by _ts — and
/// lets kSweep skip its sort entirely.
struct OverlapJoinHints {
  bool r_sorted_by_ts = false;
  bool s_sorted_by_ts = false;
};

/// The flattened + pre-partitioned probe (s) side of an overlap join —
/// immutable and shareable, so the parallel runtime can flatten and
/// partition s ONCE and probe it from every morsel plan instead of paying
/// the build per morsel. `build` is null for the nested-loop algorithm
/// (only the flattened table is shared then).
struct OverlapProbeSide {
  std::shared_ptr<const Table> s_table;
  std::shared_ptr<const TemporalBuildSide> build;
};

/// Flattens nothing: takes an already-flattened `s_table` and partitions
/// it on the equi-keys of `theta` (for kPartitioned).
StatusOr<OverlapProbeSide> MakeOverlapProbeSide(
    std::shared_ptr<const Table> s_table, const Schema& r_facts,
    const Schema& s_facts, const JoinCondition& theta,
    OverlapAlgorithm algorithm);

/// Builds the pipelined plan computing WO(r;s,θ) ∪ {full-interval unmatched}
/// over the flattened tables (which must stay alive while the operator
/// runs). Output rows follow WindowLayout(r_facts, s_facts); within each rid
/// the windows are ordered by start, which is exactly the order LAWAU
/// expects — no extra sort is needed (the pipeline stays streaming).
///
/// `algorithm` must be resolved (not kAuto): the choice needs the
/// relations, which MakeWindowPlan has (ChooseOverlapAlgorithm).
/// With a `probe` (whose s_table must be the one passed here), the
/// partitioned algorithm probes the shared build instead of re-building;
/// a non-null probe->build pins the partitioned algorithm.
StatusOr<OperatorPtr> MakeOverlapWindowJoin(
    const Table* r_table, const Schema& r_facts, const Table* s_table,
    const Schema& s_facts, const JoinCondition& theta,
    OverlapAlgorithm algorithm, const OverlapProbeSide* probe = nullptr,
    const OverlapJoinHints& hints = {});

/// Resolves the equality column names of `theta` against the fact schemas.
StatusOr<std::vector<std::pair<int, int>>> ResolveCondition(
    const JoinCondition& theta, const Schema& r_facts, const Schema& s_facts);

/// θ with the two sides exchanged (for pipelines that run on (s, r)).
JoinCondition SwapJoinCondition(const JoinCondition& theta);

/// Resolved, directly evaluable form of θ over two fact rows.
class ThetaMatcher {
 public:
  /// `keys` are resolved (left index, right index) equality pairs.
  ThetaMatcher(std::vector<std::pair<int, int>> keys,
               std::function<bool(const Row&, const Row&)> predicate)
      : keys_(std::move(keys)), predicate_(std::move(predicate)) {}

  /// Builds a matcher by resolving `theta` against the fact schemas.
  static StatusOr<ThetaMatcher> Make(const JoinCondition& theta,
                                     const Schema& r_facts,
                                     const Schema& s_facts);

  bool Matches(const Row& r_fact, const Row& s_fact) const {
    for (const auto& [ri, si] : keys_) {
      if (r_fact[ri].is_null() || s_fact[si].is_null()) return false;
      if (r_fact[ri] != s_fact[si]) return false;
    }
    return !predicate_ || predicate_(r_fact, s_fact);
  }

  /// Resolved equality pairs (left index, right index).
  const std::vector<std::pair<int, int>>& keys() const { return keys_; }

  /// The general (non-equality) predicate part of θ; may be empty.
  const std::function<bool(const Row&, const Row&)>& predicate() const {
    return predicate_;
  }

 private:
  std::vector<std::pair<int, int>> keys_;
  std::function<bool(const Row&, const Row&)> predicate_;
};

}  // namespace tpdb

#endif  // TPDB_TP_OVERLAP_JOIN_H_
