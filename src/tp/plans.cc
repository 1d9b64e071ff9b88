#include "tp/plans.h"

#include "engine/materialize.h"
#include "engine/scan.h"
#include "tp/lawan.h"
#include "tp/lawau.h"

namespace tpdb {

StatusOr<WindowPlan> MakeWindowPlan(const TPRelation& r, const TPRelation& s,
                                    const JoinCondition& theta,
                                    WindowStage stage,
                                    OverlapAlgorithm algorithm,
                                    const OverlapProbeSide* probe) {
  if (r.manager() != s.manager())
    return Status::InvalidArgument(
        "TP relations must share a LineageManager");
  WindowPlan plan;
  plan.r_table = std::make_unique<Table>(r.ToTable());
  plan.s_table = probe != nullptr
                     ? probe->s_table
                     : std::make_shared<const Table>(s.ToTable());
  plan.layout =
      WindowLayout(static_cast<int>(r.fact_schema().num_columns()),
                   static_cast<int>(s.fact_schema().num_columns()));

  // Sortedness survives flattening (ToTable keeps tuple order), so the
  // sweep can skip its sort for relations appended in _ts order or
  // re-sorted by compaction.
  OverlapJoinHints hints;
  hints.r_sorted_by_ts = r.sorted_by_ts();
  hints.s_sorted_by_ts = s.sorted_by_ts();
  StatusOr<OperatorPtr> join = MakeOverlapWindowJoin(
      plan.r_table.get(), r.fact_schema(), plan.s_table.get(),
      s.fact_schema(), theta, ChooseOverlapAlgorithm(algorithm, r, s, theta),
      probe, hints);
  if (!join.ok()) return join.status();
  OperatorPtr root = std::move(*join);

  if (stage == WindowStage::kWuo || stage == WindowStage::kWuon)
    root = std::make_unique<Lawau>(std::move(root), plan.layout);
  if (stage == WindowStage::kWuon)
    root = std::make_unique<Lawan>(std::move(root), plan.layout, r.manager());

  plan.root = std::move(root);
  return plan;
}

StatusOr<OverlapProbeSide> MakeWindowProbeSide(const TPRelation& s,
                                               const Schema& r_facts,
                                               const JoinCondition& theta,
                                               OverlapAlgorithm algorithm) {
  return MakeOverlapProbeSide(std::make_shared<const Table>(s.ToTable()),
                              r_facts, s.fact_schema(), theta, algorithm);
}

OperatorPtr MakeLawanOnly(const Table* wuo, WindowLayout layout,
                          LineageManager* manager) {
  return std::make_unique<Lawan>(std::make_unique<TableScan>(wuo), layout,
                                 manager);
}

StatusOr<std::vector<TPWindow>> ComputeWindows(const TPRelation& r,
                                               const TPRelation& s,
                                               const JoinCondition& theta,
                                               WindowStage stage,
                                               OverlapAlgorithm algorithm) {
  StatusOr<WindowPlan> plan = MakeWindowPlan(r, s, theta, stage, algorithm);
  if (!plan.ok()) return plan.status();
  std::vector<TPWindow> out;
  plan->root->Open();
  Row row;
  while (plan->root->Next(&row)) out.push_back(plan->layout.ToWindow(row));
  plan->root->Close();
  return out;
}

}  // namespace tpdb
