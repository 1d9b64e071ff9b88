#include "lineage/probability.h"

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

/// The smallest variable common to the sorted sets `va` and `vb`, or
/// nullopt when they are disjoint (linear merge-intersection).
std::optional<VarId> FirstSharedVariable(const std::vector<VarId>& va,
                                         const std::vector<VarId>& vb) {
  size_t i = 0;
  size_t j = 0;
  while (i < va.size() && j < vb.size()) {
    if (va[i] == vb[j]) return va[i];
    if (va[i] < vb[j])
      ++i;
    else
      ++j;
  }
  return std::nullopt;
}

}  // namespace

double ProbabilityEngine::Probability(LineageRef r) {
  const std::optional<double> p = TryProbability(r);
  TPDB_CHECK(p.has_value()) << "Shannon expansion budget exhausted";
  return *p;
}

std::optional<double> ProbabilityEngine::TryProbability(LineageRef r) {
  TPDB_CHECK(!r.is_null()) << "probability of null lineage";
  ProbMetrics::Get().evals->Add();
  // Snapshot the memo epoch: results computed against these marginals are
  // only cached if no SetVariableProbability intervenes.
  epoch_ = mgr_->probability_epoch();
  stored_.clear();
  const std::optional<double> p = ProbRec(r);
  if (!p) mgr_->EraseProbabilities(stored_);
  return p;
}

std::optional<double> ProbabilityEngine::ProbRec(LineageRef r) {
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
    case LineageKind::kNot: {
      const std::optional<double> pa = ProbRec(mgr_->Left(r));
      if (!pa) return std::nullopt;
      result = 1.0 - *pa;
      break;
    }
    case LineageKind::kAnd:
    case LineageKind::kOr: {
      const LineageRef a = mgr_->Left(r);
      const LineageRef b = mgr_->Right(r);
      const std::optional<VarId> pivot =
          FirstSharedVariable(mgr_->Variables(a), mgr_->Variables(b));
      if (!pivot) {
        const std::optional<double> pa = ProbRec(a);
        if (!pa) return std::nullopt;
        const std::optional<double> pb = ProbRec(b);
        if (!pb) return std::nullopt;
        result = mgr_->KindOf(r) == LineageKind::kAnd
                     ? *pa * *pb
                     : 1.0 - (1.0 - *pa) * (1.0 - *pb);
      } else {
        // Shannon expansion on the first variable common to both children,
        // so the expansion actually decouples them.
        if (shannon_expansions_ >= max_expansions_) return std::nullopt;
        ++shannon_expansions_;
        ProbMetrics::Get().shannon->Add();
        const double pv = mgr_->VariableProbability(*pivot);
        const LineageRef hi = mgr_->Restrict(r, *pivot, true);
        const LineageRef lo = mgr_->Restrict(r, *pivot, false);
        const std::optional<double> phi = ProbRec(hi);
        if (!phi) return std::nullopt;
        const std::optional<double> plo = ProbRec(lo);
        if (!plo) return std::nullopt;
        result = pv * *phi + (1.0 - pv) * *plo;
      }
      break;
    }
  }
  if (mgr_->StoreProbability(r, result, epoch_) &&
      max_expansions_ != std::numeric_limits<uint64_t>::max())
    stored_.push_back(r.id);
  return result;
}

}  // namespace tpdb
