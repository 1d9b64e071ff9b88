#include "tests/reference/reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lineage/probability.h"

namespace tpdb::testing {

namespace {

/// Indices of s tuples valid at `t` that θ-match `r_fact`.
std::vector<size_t> MatchSetAt(const TPRelation& s, const ThetaMatcher& theta,
                               const Row& r_fact, TimePoint t) {
  std::vector<size_t> out;
  for (size_t j = 0; j < s.size(); ++j) {
    if (!s.tuple(j).interval.Contains(t)) continue;
    if (!theta.Matches(r_fact, s.tuple(j).fact)) continue;
    out.push_back(j);
  }
  return out;
}

}  // namespace

std::vector<TPWindow> ReferenceWindows(const TPRelation& r,
                                       const TPRelation& s,
                                       const JoinCondition& theta,
                                       WindowStage stage) {
  StatusOr<ThetaMatcher> matcher =
      ThetaMatcher::Make(theta, r.fact_schema(), s.fact_schema());
  TPDB_CHECK(matcher.ok()) << matcher.status().ToString();
  LineageManager* manager = r.manager();

  std::vector<TPWindow> windows;
  for (size_t i = 0; i < r.size(); ++i) {
    const TPTuple& rt = r.tuple(i);

    // Overlapping windows: one per θ-matching overlapping pair.
    bool any_match = false;
    for (size_t j = 0; j < s.size(); ++j) {
      const TPTuple& st = s.tuple(j);
      if (!rt.interval.Overlaps(st.interval)) continue;
      if (!matcher->Matches(rt.fact, st.fact)) continue;
      any_match = true;
      TPWindow w;
      w.cls = WindowClass::kOverlapping;
      w.rid = static_cast<int64_t>(i);
      w.fact_r = rt.fact;
      w.fact_s = st.fact;
      w.window = rt.interval.Intersect(st.interval);
      w.r_interval = rt.interval;
      w.lin_r = rt.lineage;
      w.lin_s = st.lineage;
      windows.push_back(std::move(w));
    }

    // Time-point sweep for unmatched / negating runs.
    TimePoint run_start = rt.interval.start;
    std::vector<size_t> run_set =
        MatchSetAt(s, *matcher, rt.fact, rt.interval.start);
    auto emit_run = [&](TimePoint end) {
      const bool empty = run_set.empty();
      // Stage filters: kOverlap keeps only full-interval unmatched windows;
      // kWuo adds partial unmatched; kWuon adds negating.
      if (empty) {
        const bool full = run_start == rt.interval.start && end ==
                          rt.interval.end && !any_match;
        if (stage == WindowStage::kOverlap && !full) return;
      } else {
        if (stage != WindowStage::kWuon) return;
      }
      TPWindow w;
      w.cls = empty ? WindowClass::kUnmatched : WindowClass::kNegating;
      w.rid = static_cast<int64_t>(i);
      w.fact_r = rt.fact;
      w.window = Interval(run_start, end);
      w.r_interval = rt.interval;
      w.lin_r = rt.lineage;
      if (!empty) {
        std::vector<LineageRef> lineages;
        for (const size_t j : run_set) lineages.push_back(s.tuple(j).lineage);
        w.lin_s = manager->OrAll(lineages);
      }
      windows.push_back(std::move(w));
    };
    for (TimePoint t = rt.interval.start + 1; t < rt.interval.end; ++t) {
      std::vector<size_t> here = MatchSetAt(s, *matcher, rt.fact, t);
      if (here != run_set) {
        emit_run(t);
        run_start = t;
        run_set = std::move(here);
      }
    }
    emit_run(rt.interval.end);
  }
  SortWindows(&windows);
  return windows;
}

std::vector<SnapshotTuple> ReferenceJoinSnapshot(TPJoinKind kind,
                                                 const TPRelation& r,
                                                 const TPRelation& s,
                                                 const JoinCondition& theta,
                                                 TimePoint t) {
  StatusOr<ThetaMatcher> matcher =
      ThetaMatcher::Make(theta, r.fact_schema(), s.fact_schema());
  TPDB_CHECK(matcher.ok()) << matcher.status().ToString();
  LineageManager* manager = r.manager();
  ProbabilityEngine prob(manager);
  const size_t n_rf = r.fact_schema().num_columns();
  const size_t n_sf = s.fact_schema().num_columns();

  std::vector<SnapshotTuple> out;

  const bool want_pairs =
      kind != TPJoinKind::kAnti && kind != TPJoinKind::kSemi;
  const bool want_r_side = kind == TPJoinKind::kAnti ||
                           kind == TPJoinKind::kLeftOuter ||
                           kind == TPJoinKind::kFullOuter;
  const bool want_semi = kind == TPJoinKind::kSemi;
  const bool want_s_side = kind == TPJoinKind::kRightOuter ||
                           kind == TPJoinKind::kFullOuter;

  if (want_pairs || want_r_side || want_semi) {
    for (size_t i = 0; i < r.size(); ++i) {
      const TPTuple& rt = r.tuple(i);
      if (!rt.interval.Contains(t)) continue;
      std::vector<size_t> matches = MatchSetAt(s, *matcher, rt.fact, t);
      if (want_semi && !matches.empty()) {
        // Semi join: r true and at least one matching s tuple true.
        std::vector<LineageRef> lineages;
        for (const size_t j : matches) lineages.push_back(s.tuple(j).lineage);
        SnapshotTuple tup;
        tup.fact = rt.fact;
        tup.prob = prob.Probability(
            manager->And(rt.lineage, manager->OrAll(lineages)));
        out.push_back(std::move(tup));
      }
      if (want_pairs) {
        for (const size_t j : matches) {
          SnapshotTuple tup;
          tup.fact = ConcatRows(rt.fact, s.tuple(j).fact);
          tup.prob =
              prob.Probability(manager->And(rt.lineage, s.tuple(j).lineage));
          out.push_back(std::move(tup));
        }
      }
      if (want_r_side) {
        // "matches none of the tuples of the negative relation": r true and
        // every matching s tuple false.
        std::vector<LineageRef> lineages;
        for (const size_t j : matches) lineages.push_back(s.tuple(j).lineage);
        const LineageRef lam =
            manager->AndNot(rt.lineage, manager->OrAll(lineages));
        SnapshotTuple tup;
        tup.fact = kind == TPJoinKind::kAnti
                       ? rt.fact
                       : ConcatRows(rt.fact, NullRow(n_sf));
        tup.prob = prob.Probability(lam);
        out.push_back(std::move(tup));
      }
    }
  }

  if (want_s_side) {
    for (size_t j = 0; j < s.size(); ++j) {
      const TPTuple& st = s.tuple(j);
      if (!st.interval.Contains(t)) continue;
      std::vector<LineageRef> lineages;
      for (size_t i = 0; i < r.size(); ++i) {
        if (!r.tuple(i).interval.Contains(t)) continue;
        if (!matcher->Matches(r.tuple(i).fact, st.fact)) continue;
        lineages.push_back(r.tuple(i).lineage);
      }
      const LineageRef lam =
          manager->AndNot(st.lineage, manager->OrAll(lineages));
      SnapshotTuple tup;
      tup.fact = ConcatRows(NullRow(n_rf), st.fact);
      tup.prob = prob.Probability(lam);
      out.push_back(std::move(tup));
    }
  }

  return out;
}

std::vector<SnapshotTuple> SnapshotOf(const TPRelation& result, TimePoint t) {
  std::vector<SnapshotTuple> out;
  for (size_t i = 0; i < result.size(); ++i) {
    if (!result.tuple(i).interval.Contains(t)) continue;
    out.push_back(SnapshotTuple{result.tuple(i).fact, result.Probability(i)});
  }
  return out;
}

std::string CompareSnapshots(std::vector<SnapshotTuple> expected,
                             std::vector<SnapshotTuple> actual) {
  auto less = [](const SnapshotTuple& a, const SnapshotTuple& b) {
    const int c = CompareRows(a.fact, b.fact);
    if (c != 0) return c < 0;
    return a.prob < b.prob;
  };
  std::sort(expected.begin(), expected.end(), less);
  std::sort(actual.begin(), actual.end(), less);
  std::ostringstream diff;
  if (expected.size() != actual.size()) {
    diff << "size mismatch: expected " << expected.size() << ", got "
         << actual.size() << "\n";
  }
  const size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const bool fact_ok =
        CompareRows(expected[i].fact, actual[i].fact) == 0;
    const bool prob_ok = std::fabs(expected[i].prob - actual[i].prob) < 1e-9;
    if (!fact_ok || !prob_ok) {
      diff << "row " << i << ": expected (" << RowToString(expected[i].fact)
           << ", p=" << expected[i].prob << "), got ("
           << RowToString(actual[i].fact) << ", p=" << actual[i].prob
           << ")\n";
    }
  }
  for (size_t i = n; i < expected.size(); ++i)
    diff << "missing: (" << RowToString(expected[i].fact)
         << ", p=" << expected[i].prob << ")\n";
  for (size_t i = n; i < actual.size(); ++i)
    diff << "unexpected: (" << RowToString(actual[i].fact)
         << ", p=" << actual[i].prob << ")\n";
  return diff.str();
}

double BruteForceProbability(LineageManager* manager, LineageRef r) {
  const std::vector<VarId> vars = manager->Variables(r);  // copy: arena grows
  TPDB_CHECK_LE(vars.size(), 24u) << "brute force: too many variables";
  std::vector<bool> assignment(manager->num_variables(), false);
  double total = 0.0;
  const uint64_t limit = 1ull << vars.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    double world = 1.0;
    for (size_t i = 0; i < vars.size(); ++i) {
      const bool value = (mask >> i) & 1;
      assignment[vars[i]] = value;
      const double pv = manager->VariableProbability(vars[i]);
      world *= value ? pv : 1.0 - pv;
    }
    if (manager->Evaluate(r, assignment)) total += world;
  }
  return total;
}

}  // namespace tpdb::testing
