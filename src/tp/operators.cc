#include "tp/operators.h"

#include "baseline/ta_join.h"
#include "tp/concat.h"

namespace tpdb {

const char* TPJoinKindName(TPJoinKind kind) {
  switch (kind) {
    case TPJoinKind::kInner:
      return "inner";
    case TPJoinKind::kAnti:
      return "anti";
    case TPJoinKind::kLeftOuter:
      return "left-outer";
    case TPJoinKind::kRightOuter:
      return "right-outer";
    case TPJoinKind::kFullOuter:
      return "full-outer";
    case TPJoinKind::kSemi:
      return "semi";
  }
  return "?";
}

Schema TPJoinOutputSchema(TPJoinKind kind, const Schema& r_facts,
                          const Schema& s_facts) {
  Schema out = r_facts;
  if (kind == TPJoinKind::kAnti || kind == TPJoinKind::kSemi) return out;
  for (const Column& c : s_facts.columns()) {
    Column copy = c;
    if (out.IndexOf(copy.name) >= 0) copy.name += "_s";
    out.AddColumn(std::move(copy));
  }
  return out;
}

namespace {

/// Which window classes of a pipeline feed the output, and whether the
/// pipeline ran with swapped inputs (s on the left).
struct EmitSpec {
  bool keep_overlapping = true;
  bool keep_unmatched = true;
  bool keep_negating = true;
  bool swapped = false;       // pipeline fact_r belongs to the s relation
  bool drop_s_facts = false;  // anti/semi joins keep only the r facts
  // Semi join: negating windows concatenate with ∧ of the λs disjunction
  // (λr ∧ (λs1 ∨ …)) instead of the default andNot.
  bool semi_concat = false;
};

/// The window classes `kind` keeps in the given pipeline orientation.
EmitSpec MakeEmitSpec(TPJoinKind kind, bool s_driven) {
  EmitSpec spec;
  if (s_driven) {
    spec.swapped = true;
    // WO(r;s,θ) = WO(s;r,θ): the full-outer join already emitted the
    // overlapping windows from the r-driven pipeline.
    spec.keep_overlapping = kind == TPJoinKind::kRightOuter;
    return spec;
  }
  switch (kind) {
    case TPJoinKind::kInner:
      spec.keep_unmatched = false;
      spec.keep_negating = false;
      break;
    case TPJoinKind::kAnti:
      spec.keep_overlapping = false;
      spec.drop_s_facts = true;
      break;
    case TPJoinKind::kSemi:
      spec.keep_overlapping = false;
      spec.keep_unmatched = false;
      spec.drop_s_facts = true;
      spec.semi_concat = true;
      break;
    default:
      break;
  }
  return spec;
}

/// Streams the window operator and appends one output tuple per kept
/// window.
Status EmitWindows(Operator* windows, const WindowLayout& layout,
                   LineageManager* manager, const EmitSpec& spec,
                   TPRelation* result) {
  windows->Open();
  while (const Row* row_ptr = windows->NextRef()) {
    const Row& row = *row_ptr;
    const WindowClass cls = layout.ClassOf(row);
    if ((cls == WindowClass::kOverlapping && !spec.keep_overlapping) ||
        (cls == WindowClass::kUnmatched && !spec.keep_unmatched) ||
        (cls == WindowClass::kNegating && !spec.keep_negating))
      continue;
    const LineageRef lineage =
        spec.semi_concat && cls == WindowClass::kNegating
            ? manager->And(layout.RLinOf(row), layout.SLinOf(row))
            : ConcatWindowLineage(manager, cls, layout.RLinOf(row),
                                  layout.SLinOf(row));
    Row fact;
    if (spec.drop_s_facts) {
      fact.reserve(layout.num_r_facts());
      for (int i = 0; i < layout.num_r_facts(); ++i)
        fact.push_back(row[layout.r_fact(i)]);
    } else if (!spec.swapped) {
      fact.reserve(layout.num_r_facts() + layout.num_s_facts());
      for (int i = 0; i < layout.num_r_facts(); ++i)
        fact.push_back(row[layout.r_fact(i)]);
      for (int i = 0; i < layout.num_s_facts(); ++i)
        fact.push_back(row[layout.s_fact(i)]);
    } else {
      // The pipeline ran on (s, r): its r side is the join's s relation.
      fact.reserve(layout.num_r_facts() + layout.num_s_facts());
      for (int i = 0; i < layout.num_s_facts(); ++i)
        fact.push_back(row[layout.s_fact(i)]);
      for (int i = 0; i < layout.num_r_facts(); ++i)
        fact.push_back(row[layout.r_fact(i)]);
    }
    TPDB_RETURN_IF_ERROR(
        result->AppendDerived(std::move(fact), layout.WindowOf(row), lineage));
  }
  windows->Close();
  return Status::OK();
}

StatusOr<TPRelation> LineageAwareJoin(TPJoinKind kind, const TPRelation& r,
                                      const TPRelation& s,
                                      const JoinCondition& theta,
                                      const TPJoinOptions& options,
                                      std::string name) {
  TPRelation result(std::move(name),
                    TPJoinOutputSchema(kind, r.fact_schema(), s.fact_schema()),
                    r.manager());
  const OverlapAlgorithm algorithm =
      ChooseOverlapAlgorithm(options.overlap_algorithm, r, s, theta);
  const JoinPipelines pipelines = LineageAwareJoinPipelines(kind);
  // Every pipeline reads both inputs flattened; flatten each once, so a
  // full outer join's two pipelines share the tables.
  const auto r_table = std::make_shared<const Table>(r.ToTable());
  const auto s_table = std::make_shared<const Table>(s.ToTable());
  if (pipelines.r_driven) {
    const OverlapProbeSide probe{s_table, nullptr};
    TPDB_RETURN_IF_ERROR(RunLineageAwareJoinPipeline(
        kind, /*s_driven=*/false, r, s, theta, algorithm, &result, &probe,
        r_table));
  }
  if (pipelines.s_driven) {
    const OverlapProbeSide probe{r_table, nullptr};
    TPDB_RETURN_IF_ERROR(RunLineageAwareJoinPipeline(
        kind, /*s_driven=*/true, r, s, theta, algorithm, &result, &probe,
        s_table));
  }
  return result;
}

}  // namespace

JoinPipelines LineageAwareJoinPipelines(TPJoinKind kind) {
  JoinPipelines pipelines;
  pipelines.r_driven = kind != TPJoinKind::kRightOuter;
  pipelines.s_driven =
      kind == TPJoinKind::kRightOuter || kind == TPJoinKind::kFullOuter;
  return pipelines;
}

Status RunLineageAwareJoinPipeline(TPJoinKind kind, bool s_driven,
                                   const TPRelation& r, const TPRelation& s,
                                   const JoinCondition& theta,
                                   OverlapAlgorithm algorithm,
                                   TPRelation* result,
                                   const OverlapProbeSide* probe,
                                   std::shared_ptr<const Table> driving_table) {
  TPDB_CHECK(result != nullptr);
  LineageManager* manager = r.manager();
  const WindowStage stage =
      kind == TPJoinKind::kInner ? WindowStage::kOverlap : WindowStage::kWuon;

  if (!s_driven) {
    TPDB_CHECK(kind != TPJoinKind::kRightOuter)
        << "right outer join has no r-driven pipeline";
    StatusOr<WindowPlan> plan = MakeWindowPlan(r, s, theta, stage, algorithm,
                                               probe, std::move(driving_table));
    if (!plan.ok()) return plan.status();
    return EmitWindows(plan->root.get(), plan->layout, manager,
                       MakeEmitSpec(kind, /*s_driven=*/false), result);
  }

  TPDB_CHECK(kind == TPJoinKind::kRightOuter ||
             kind == TPJoinKind::kFullOuter)
      << "only the outer-join kinds run an s-driven pipeline";
  StatusOr<WindowPlan> plan =
      MakeWindowPlan(s, r, SwapJoinCondition(theta), stage, algorithm, probe,
                     std::move(driving_table));
  if (!plan.ok()) return plan.status();
  return EmitWindows(plan->root.get(), plan->layout, manager,
                     MakeEmitSpec(kind, /*s_driven=*/true), result);
}

StatusOr<TPRelation> TPJoin(TPJoinKind kind, const TPRelation& r,
                            const TPRelation& s, const JoinCondition& theta,
                            const TPJoinOptions& options) {
  if (r.manager() != s.manager())
    return Status::InvalidArgument(
        "TP relations must share a LineageManager");
  if (options.validate_inputs) {
    TPDB_RETURN_IF_ERROR(r.Validate());
    TPDB_RETURN_IF_ERROR(s.Validate());
  }
  std::string name = options.result_name;
  if (name.empty())
    name = r.name() + "_" + TPJoinKindName(kind) + "_" + s.name();

  switch (options.strategy) {
    case JoinStrategy::kLineageAware:
      return LineageAwareJoin(kind, r, s, theta, options, std::move(name));
    case JoinStrategy::kTemporalAlignment:
      return TemporalAlignmentJoin(kind, r, s, theta, std::move(name));
  }
  return Status::Internal("unknown join strategy");
}

StatusOr<TPRelation> TPJoin(const TPJoinSpec& spec, const TPRelation& r,
                            const TPRelation& s) {
  return TPJoin(spec.kind, r, s, spec.theta, spec.options);
}

StatusOr<TPRelation> TPInnerJoin(const TPRelation& r, const TPRelation& s,
                                 const JoinCondition& theta,
                                 const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kInner, r, s, theta, options);
}
StatusOr<TPRelation> TPAntiJoin(const TPRelation& r, const TPRelation& s,
                                const JoinCondition& theta,
                                const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kAnti, r, s, theta, options);
}
StatusOr<TPRelation> TPLeftOuterJoin(const TPRelation& r, const TPRelation& s,
                                     const JoinCondition& theta,
                                     const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kLeftOuter, r, s, theta, options);
}
StatusOr<TPRelation> TPRightOuterJoin(const TPRelation& r,
                                      const TPRelation& s,
                                      const JoinCondition& theta,
                                      const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kRightOuter, r, s, theta, options);
}
StatusOr<TPRelation> TPFullOuterJoin(const TPRelation& r, const TPRelation& s,
                                     const JoinCondition& theta,
                                     const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kFullOuter, r, s, theta, options);
}
StatusOr<TPRelation> TPSemiJoin(const TPRelation& r, const TPRelation& s,
                                const JoinCondition& theta,
                                const TPJoinOptions& options) {
  return TPJoin(TPJoinKind::kSemi, r, s, theta, options);
}

}  // namespace tpdb
