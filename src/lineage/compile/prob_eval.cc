#include "lineage/compile/prob_eval.h"

#include <algorithm>

#include "lineage/probability.h"

namespace tpdb {

std::string ProbMethodsLabel(uint8_t mask) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (mask & kProbMethodExact) append("exact");
  if (mask & kProbMethodCompiled) append("compiled");
  if (mask & kProbMethodMonteCarlo) append("mc");
  return out;
}

ProbabilityEvaluator::ProbabilityEvaluator(LineageManager* manager,
                                           ProbEvalOptions options)
    : mgr_(manager),
      opts_(options),
      compiler_(manager, CompileOptions{.max_circuit_nodes =
                                            options.max_circuit_nodes}) {}

bool ProbabilityEvaluator::Decomposable(LineageRef r) {
  auto it = decomposable_.find(r.id);
  if (it != decomposable_.end()) return it->second;
  bool result = true;
  switch (mgr_->KindOf(r)) {
    case LineageKind::kTrue:
    case LineageKind::kFalse:
    case LineageKind::kVar:
      break;
    case LineageKind::kNot:
      result = Decomposable(mgr_->Left(r));
      break;
    case LineageKind::kAnd:
    case LineageKind::kOr: {
      const LineageRef a = mgr_->Left(r);
      const LineageRef b = mgr_->Right(r);
      // Reuse the compiler's merge-intersection via Variables(); sharing
      // anywhere in the subtree forces Shannon work in the exact engine.
      const std::vector<VarId>& va = mgr_->Variables(a);
      const std::vector<VarId>& vb = mgr_->Variables(b);
      size_t i = 0;
      size_t j = 0;
      bool shares = false;
      while (i < va.size() && j < vb.size()) {
        if (va[i] == vb[j]) {
          shares = true;
          break;
        }
        if (va[i] < vb[j])
          ++i;
        else
          ++j;
      }
      result = !shares && Decomposable(a) && Decomposable(b);
      break;
    }
  }
  decomposable_.emplace(r.id, result);
  return result;
}

double ProbabilityEvaluator::Probability(LineageRef r) {
  TPDB_CHECK(!r.is_null()) << "probability of null lineage";
  double cached = 0.0;
  if (mgr_->LookupProbability(r, &cached)) {
    // Memoized exact value (stored by either exact or compiled runs).
    RecordProbabilityEvaluation(/*memo_hit=*/true);
    methods_ |= kProbMethodExact;
    return cached;
  }
  if (Decomposable(r)) {
    methods_ |= kProbMethodExact;
    return ProbabilityEngine(mgr_).Probability(r);  // counts itself
  }
  RecordProbabilityEvaluation(/*memo_hit=*/false);
  return CompiledProbability(r);
}

double ProbabilityEvaluator::CompiledProbability(LineageRef r) {
  // Epoch before marginals: a SetVariableProbability racing with this
  // evaluation bumps the epoch first, so the (possibly mixed) result is
  // dropped by StoreProbability instead of cached.
  const uint64_t epoch = mgr_->probability_epoch();
  auto root = compiler_.Compile(r);
  if (!root.ok()) {
    // Circuit budget exhausted: sample instead, to the query's APPROX
    // contract if it has one. Never cached — it is an estimate, not the
    // exact value the memo promises.
    methods_ |= kProbMethodMonteCarlo;
    if (opts_.approx_eps > 0.0)
      return SampledProbability(r, opts_.approx_eps, opts_.approx_delta);
    return SampledProbability(r, opts_.fallback_eps, opts_.fallback_delta);
  }
  methods_ |= kProbMethodCompiled;
  if (epoch != values_epoch_ || values_from_ == 0) {
    var_probs_ = mgr_->SnapshotVariableProbabilities();
    values_epoch_ = epoch;
    values_from_ = 0;
  } else {
    // Marginals unchanged; pick up variables registered since the last pass.
    const size_t n = mgr_->num_variables();
    for (size_t v = var_probs_.size(); v < n; ++v)
      var_probs_.push_back(mgr_->VariableProbability(static_cast<VarId>(v)));
  }
  compiler_.circuit().Evaluate(var_probs_, &values_, values_from_);
  values_from_ = compiler_.circuit().size();
  const double p = values_[*root];
  mgr_->StoreProbability(r, p, epoch);
  return p;
}

double ProbabilityEvaluator::SampledProbability(LineageRef r, double eps,
                                                double delta) {
  const double z = NormalQuantile(1.0 - delta / 2.0);
  MonteCarloEngine mc(mgr_, DeriveSeed(opts_.mc_seed, r.id));
  return mc
      .EstimateToPrecision(r, /*target_stderr=*/eps / z,
                           /*max_samples=*/HoeffdingSamples(eps, delta))
      .probability;
}

}  // namespace tpdb
