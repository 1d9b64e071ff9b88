#include "lineage/probability.h"

#include <algorithm>

#include "obs/metrics.h"

namespace tpdb {

namespace {

/// Probability-engine metrics: how often lineage gets evaluated and how
/// often the hash-consed formula DAG's memo answers instead of recursion.
struct ProbMetrics {
  obs::Counter* evals = obs::MetricsRegistry::Default().counter(
      "tpdb_prob_evals_total", "prob",
      "Top-level lineage probability evaluations.");
  obs::Counter* memo_hits = obs::MetricsRegistry::Default().counter(
      "tpdb_prob_dag_memo_hits_total", "prob",
      "Formula-DAG probability lookups answered from the memo.");
  obs::Counter* shannon = obs::MetricsRegistry::Default().counter(
      "tpdb_prob_shannon_expansions_total", "prob",
      "Shannon expansions forced by variable-sharing subformulas.");

  static const ProbMetrics& Get() {
    static const ProbMetrics m;
    return m;
  }
};

}  // namespace

void RecordProbabilityEvaluation(bool memo_hit) {
  ProbMetrics::Get().evals->Add();
  if (memo_hit) ProbMetrics::Get().memo_hits->Add();
}

bool ProbabilityEngine::SharesVariables(LineageRef a, LineageRef b) {
  const std::vector<VarId>& va = mgr_->Variables(a);
  const std::vector<VarId>& vb = mgr_->Variables(b);
  // Both sorted; linear merge-intersection test.
  size_t i = 0;
  size_t j = 0;
  while (i < va.size() && j < vb.size()) {
    if (va[i] == vb[j]) return true;
    if (va[i] < vb[j])
      ++i;
    else
      ++j;
  }
  return false;
}

double ProbabilityEngine::Probability(LineageRef r) {
  TPDB_CHECK(!r.is_null()) << "probability of null lineage";
  ProbMetrics::Get().evals->Add();
  // Snapshot the memo epoch: results computed against these marginals are
  // only cached if no SetVariableProbability intervenes.
  epoch_ = mgr_->probability_epoch();
  return ProbRec(r);
}

double ProbabilityEngine::ProbRec(LineageRef r) {
  double cached = 0.0;
  if (mgr_->LookupProbability(r, &cached)) {
    ProbMetrics::Get().memo_hits->Add();
    return cached;
  }

  double result = 0.0;
  switch (mgr_->KindOf(r)) {
    case LineageKind::kTrue:
      result = 1.0;
      break;
    case LineageKind::kFalse:
      result = 0.0;
      break;
    case LineageKind::kVar:
      result = mgr_->VariableProbability(mgr_->VarOf(r));
      break;
    case LineageKind::kNot:
      result = 1.0 - ProbRec(mgr_->Left(r));
      break;
    case LineageKind::kAnd:
    case LineageKind::kOr: {
      const LineageRef a = mgr_->Left(r);
      const LineageRef b = mgr_->Right(r);
      if (!SharesVariables(a, b)) {
        const double pa = ProbRec(a);
        const double pb = ProbRec(b);
        result = mgr_->KindOf(r) == LineageKind::kAnd
                     ? pa * pb
                     : 1.0 - (1.0 - pa) * (1.0 - pb);
      } else {
        // Shannon expansion on a shared variable: co-factor on the first
        // variable common to both children so the expansion actually
        // decouples them.
        const std::vector<VarId>& va = mgr_->Variables(a);
        const std::vector<VarId>& vb = mgr_->Variables(b);
        VarId pivot = 0;
        bool found = false;
        size_t i = 0;
        size_t j = 0;
        while (i < va.size() && j < vb.size()) {
          if (va[i] == vb[j]) {
            pivot = va[i];
            found = true;
            break;
          }
          if (va[i] < vb[j])
            ++i;
          else
            ++j;
        }
        TPDB_CHECK(found);
        ++shannon_expansions_;
        ProbMetrics::Get().shannon->Add();
        const double pv = mgr_->VariableProbability(pivot);
        const LineageRef hi = mgr_->Restrict(r, pivot, true);
        const LineageRef lo = mgr_->Restrict(r, pivot, false);
        result = pv * ProbRec(hi) + (1.0 - pv) * ProbRec(lo);
      }
      break;
    }
  }
  mgr_->StoreProbability(r, result, epoch_);
  return result;
}

}  // namespace tpdb
