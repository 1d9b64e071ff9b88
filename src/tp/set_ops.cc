#include "tp/set_ops.h"

#include "tp/overlap_join.h"
#include "tp/plans.h"

namespace tpdb {

namespace {

/// Checks union compatibility and builds θ: equality on every fact column
/// (positionally; column names may differ between the inputs).
StatusOr<JoinCondition> FullFactEquality(const TPRelation& r,
                                         const TPRelation& s) {
  if (r.manager() != s.manager())
    return Status::InvalidArgument(
        "TP relations must share a LineageManager");
  const Schema& rf = r.fact_schema();
  const Schema& sf = s.fact_schema();
  if (rf.num_columns() != sf.num_columns())
    return Status::InvalidArgument(
        "set operation on relations of different arity: (" + rf.ToString() +
        ") vs (" + sf.ToString() + ")");
  for (size_t i = 0; i < rf.num_columns(); ++i) {
    if (rf.column(i).type != sf.column(i).type &&
        rf.column(i).type != DatumType::kNull &&
        sf.column(i).type != DatumType::kNull)
      return Status::InvalidArgument("set operation on mismatched column " +
                                     std::to_string(i));
  }
  JoinCondition theta;
  for (size_t i = 0; i < rf.num_columns(); ++i)
    theta.equal_columns.emplace_back(rf.column(i).name, sf.column(i).name);
  return theta;
}

/// How one window class contributes to a set operation's output lineage.
enum class SetConcat { kSkip, kLinR, kLinS, kAnd, kAndNot, kOr };

struct SetOpSpec {
  SetConcat unmatched = SetConcat::kSkip;
  SetConcat negating = SetConcat::kSkip;
  /// Also include the unmatched windows of s w.r.t. r (as λs)?
  bool include_s_unmatched = false;
};

Status EmitWindowStream(Operator* windows, const WindowLayout& layout,
                        LineageManager* manager, const SetOpSpec& spec,
                        bool swapped, TPRelation* result) {
  windows->Open();
  while (const Row* row_ptr = windows->NextRef()) {
    const Row& row = *row_ptr;
    const WindowClass cls = layout.ClassOf(row);
    SetConcat concat = SetConcat::kSkip;
    if (cls == WindowClass::kUnmatched)
      concat = swapped ? (spec.include_s_unmatched ? SetConcat::kLinR
                                                   : SetConcat::kSkip)
                       : spec.unmatched;
    else if (cls == WindowClass::kNegating)
      concat = swapped ? SetConcat::kSkip : spec.negating;
    if (concat == SetConcat::kSkip) continue;

    const LineageRef lin_r = layout.RLinOf(row);
    const LineageRef lin_s = layout.SLinOf(row);
    LineageRef lineage;
    switch (concat) {
      case SetConcat::kLinR:
        lineage = lin_r;
        break;
      case SetConcat::kLinS:
        lineage = lin_s;
        break;
      case SetConcat::kAnd:
        lineage = manager->And(lin_r, lin_s);
        break;
      case SetConcat::kAndNot:
        lineage = manager->AndNot(lin_r, lin_s);
        break;
      case SetConcat::kOr:
        lineage = manager->Or(lin_r, lin_s);
        break;
      case SetConcat::kSkip:
        continue;
    }
    Row fact;
    fact.reserve(layout.num_r_facts());
    for (int i = 0; i < layout.num_r_facts(); ++i)
      fact.push_back(row[layout.r_fact(i)]);
    TPDB_RETURN_IF_ERROR(
        result->AppendDerived(std::move(fact), layout.WindowOf(row), lineage));
  }
  windows->Close();
  return Status::OK();
}

Status EmitSetWindows(const TPRelation& r, const TPRelation& s,
                      const JoinCondition& theta, const SetOpSpec& spec,
                      bool swapped, OverlapAlgorithm algorithm,
                      TPRelation* result) {
  StatusOr<WindowPlan> plan =
      MakeWindowPlan(r, s, theta, WindowStage::kWuon, algorithm);
  if (!plan.ok()) return plan.status();
  return EmitWindowStream(plan->root.get(), plan->layout, r.manager(), spec,
                          swapped, result);
}

/// The window-concatenation recipe of each set operation.
SetOpSpec SpecOf(TPSetOpKind kind) {
  SetOpSpec spec;
  switch (kind) {
    case TPSetOpKind::kUnion:
      spec.unmatched = SetConcat::kLinR;
      spec.negating = SetConcat::kOr;
      spec.include_s_unmatched = true;
      break;
    case TPSetOpKind::kIntersect:
      spec.negating = SetConcat::kAnd;
      break;
    case TPSetOpKind::kDifference:
      spec.unmatched = SetConcat::kLinR;
      spec.negating = SetConcat::kAndNot;
      break;
  }
  return spec;
}

StatusOr<TPRelation> RunSetOp(TPSetOpKind kind, const TPRelation& r,
                              const TPRelation& s, std::string name) {
  StatusOr<JoinCondition> theta = FullFactEquality(r, s);
  if (!theta.ok()) return theta.status();
  const OverlapAlgorithm algorithm =
      ChooseOverlapAlgorithm(OverlapAlgorithm::kAuto, r, s, *theta);
  TPRelation result(std::move(name), r.fact_schema(), r.manager());
  TPDB_RETURN_IF_ERROR(
      RunSetOpPipeline(kind, /*s_driven=*/false, r, s, algorithm, &result));
  if (SetOpHasSDrivenPipeline(kind)) {
    TPDB_RETURN_IF_ERROR(
        RunSetOpPipeline(kind, /*s_driven=*/true, r, s, algorithm, &result));
  }
  return result;
}

}  // namespace

const char* TPSetOpKindName(TPSetOpKind kind) {
  switch (kind) {
    case TPSetOpKind::kUnion:
      return "union";
    case TPSetOpKind::kIntersect:
      return "intersect";
    case TPSetOpKind::kDifference:
      return "except";
  }
  return "?";
}

bool SetOpHasSDrivenPipeline(TPSetOpKind kind) {
  return SpecOf(kind).include_s_unmatched;
}

StatusOr<JoinCondition> SetOpCondition(const TPRelation& r,
                                       const TPRelation& s) {
  return FullFactEquality(r, s);
}

Status RunSetOpPipeline(TPSetOpKind kind, bool s_driven, const TPRelation& r,
                        const TPRelation& s, OverlapAlgorithm algorithm,
                        TPRelation* result) {
  TPDB_CHECK(result != nullptr);
  StatusOr<JoinCondition> theta = FullFactEquality(r, s);
  if (!theta.ok()) return theta.status();
  const SetOpSpec spec = SpecOf(kind);
  if (!s_driven)
    return EmitSetWindows(r, s, *theta, spec, /*swapped=*/false, algorithm,
                          result);
  // Pipeline with the inputs exchanged: its unmatched windows are the
  // facts valid only in s.
  TPDB_CHECK(spec.include_s_unmatched)
      << TPSetOpKindName(kind) << " has no s-driven pipeline";
  return EmitSetWindows(s, r, SwapJoinCondition(*theta), spec,
                        /*swapped=*/true, algorithm, result);
}

StatusOr<TPRelation> TPSetOp(TPSetOpKind kind, const TPRelation& r,
                             const TPRelation& s, std::string result_name) {
  if (result_name.empty())
    result_name =
        r.name() + "_" + TPSetOpKindName(kind) + "_" + s.name();
  return RunSetOp(kind, r, s, std::move(result_name));
}

StatusOr<TPRelation> TPSetOp(const TPSetOpSpec& spec, const TPRelation& r,
                             const TPRelation& s) {
  return TPSetOp(spec.kind, r, s, spec.result_name);
}

StatusOr<TPRelation> TPUnion(const TPRelation& r, const TPRelation& s,
                             std::string result_name) {
  if (result_name.empty()) result_name = r.name() + "_union_" + s.name();
  return RunSetOp(TPSetOpKind::kUnion, r, s, std::move(result_name));
}

StatusOr<TPRelation> TPIntersect(const TPRelation& r, const TPRelation& s,
                                 std::string result_name) {
  if (result_name.empty()) result_name = r.name() + "_intersect_" + s.name();
  return RunSetOp(TPSetOpKind::kIntersect, r, s, std::move(result_name));
}

StatusOr<TPRelation> TPDifference(const TPRelation& r, const TPRelation& s,
                                  std::string result_name) {
  if (result_name.empty()) result_name = r.name() + "_except_" + s.name();
  return RunSetOp(TPSetOpKind::kDifference, r, s, std::move(result_name));
}

}  // namespace tpdb
