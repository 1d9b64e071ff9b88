#include "exec/parallel.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/vector/adapters.h"

namespace tpdb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One output slot per task; filled out of order, merged in slot order.
using PartialSlots = std::vector<std::unique_ptr<TPRelation>>;

Status MergeSlots(PartialSlots* slots, TPRelation* result) {
  for (std::unique_ptr<TPRelation>& slot : *slots) {
    TPDB_CHECK(slot != nullptr);  // every task fills its slot on success
    TPDB_RETURN_IF_ERROR(result->Absorb(std::move(*slot)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<TPRelation> ParallelTPJoin(ExecContext* ctx, TPJoinKind kind,
                                    const TPRelation& r, const TPRelation& s,
                                    const JoinCondition& theta,
                                    const TPJoinOptions& options) {
  TPDB_CHECK(ctx != nullptr);
  const JoinPipelines pipelines = LineageAwareJoinPipelines(kind);
  const size_t driving_rows =
      std::max(pipelines.r_driven ? r.size() : size_t{0},
               pipelines.s_driven ? s.size() : size_t{0});
  if (options.strategy != JoinStrategy::kLineageAware ||
      !ctx->ShouldParallelize(driving_rows))
    return TPJoin(kind, r, s, theta, options);

  // One choice for the whole join; every morsel runs the same plan.
  TPJoinOptions resolved = options;
  resolved.overlap_algorithm =
      ChooseOverlapAlgorithm(options.overlap_algorithm, r, s, theta);
  const OverlapAlgorithm algorithm = resolved.overlap_algorithm;
  if (algorithm == OverlapAlgorithm::kSweep)
    return TPJoin(kind, r, s, theta, resolved);

  if (r.manager() != s.manager())
    return Status::InvalidArgument(
        "TP relations must share a LineageManager");
  std::string name = options.result_name;
  if (name.empty())
    name = r.name() + "_" + TPJoinKindName(kind) + "_" + s.name();
  const Schema out_schema =
      TPJoinOutputSchema(kind, r.fact_schema(), s.fact_schema());

  if (options.validate_inputs) {
    // Both invariant checks are independent — overlap them.
    TaskGroup validation(ctx->pool());
    validation.Spawn([&r] { return r.Validate(); });
    validation.Spawn([&s] { return s.Validate(); });
    TPDB_RETURN_IF_ERROR(validation.Wait());
  }

  // Fixed-size morsels, capped at a small multiple of the worker count.
  // The probe side of each pipeline is flattened + partitioned ONCE and
  // shared read-only across the morsel plans, so extra morsels only cost
  // their own slice, not a rebuild.
  const size_t max_morsels = static_cast<size_t>(ctx->parallelism()) * 4;
  const std::vector<Morsel> r_morsels =
      pipelines.r_driven
          ? MakeMorsels(r.size(), ctx->options().morsel_size, max_morsels)
          : std::vector<Morsel>{};
  const std::vector<Morsel> s_morsels =
      pipelines.s_driven
          ? MakeMorsels(s.size(), ctx->options().morsel_size, max_morsels)
          : std::vector<Morsel>{};

  OverlapProbeSide s_probe;  // probe side of the r-driven pipeline
  if (pipelines.r_driven) {
    StatusOr<OverlapProbeSide> probe =
        MakeWindowProbeSide(s, r.fact_schema(), theta, algorithm);
    if (!probe.ok()) return probe.status();
    s_probe = std::move(*probe);
  }
  OverlapProbeSide r_probe;  // probe side of the s-driven pipeline
  if (pipelines.s_driven) {
    StatusOr<OverlapProbeSide> probe = MakeWindowProbeSide(
        r, s.fact_schema(), SwapJoinCondition(theta), algorithm);
    if (!probe.ok()) return probe.status();
    r_probe = std::move(*probe);
  }

  PartialSlots r_slots(r_morsels.size());
  PartialSlots s_slots(s_morsels.size());

  TaskGroup group(ctx->pool());
  for (size_t i = 0; i < r_morsels.size(); ++i) {
    group.Spawn([&, i]() -> Status {
      const Clock::time_point start = Clock::now();
      const TPRelation slice = SliceRelation(r, r_morsels[i]);
      auto partial =
          std::make_unique<TPRelation>(name, out_schema, r.manager());
      TPDB_RETURN_IF_ERROR(RunLineageAwareJoinPipeline(
          kind, /*s_driven=*/false, slice, s, theta, algorithm,
          partial.get(), &s_probe));
      ctx->RecordTask(partial->size(), SecondsSince(start));
      r_slots[i] = std::move(partial);
      return Status::OK();
    });
  }
  for (size_t i = 0; i < s_morsels.size(); ++i) {
    group.Spawn([&, i]() -> Status {
      const Clock::time_point start = Clock::now();
      const TPRelation slice = SliceRelation(s, s_morsels[i]);
      auto partial =
          std::make_unique<TPRelation>(name, out_schema, r.manager());
      TPDB_RETURN_IF_ERROR(RunLineageAwareJoinPipeline(
          kind, /*s_driven=*/true, r, slice, theta, algorithm,
          partial.get(), &r_probe));
      ctx->RecordTask(partial->size(), SecondsSince(start));
      s_slots[i] = std::move(partial);
      return Status::OK();
    });
  }
  TPDB_RETURN_IF_ERROR(group.Wait());

  // Serial emit order: the whole r-driven pipeline, then the s-driven one.
  TPRelation result(std::move(name), out_schema, r.manager());
  TPDB_RETURN_IF_ERROR(MergeSlots(&r_slots, &result));
  TPDB_RETURN_IF_ERROR(MergeSlots(&s_slots, &result));
  return result;
}

StatusOr<TPRelation> ParallelTPSetOp(ExecContext* ctx, TPSetOpKind kind,
                                     const TPRelation& r, const TPRelation& s,
                                     std::string result_name) {
  TPDB_CHECK(ctx != nullptr);
  if (!ctx->ShouldParallelize(std::max(r.size(), s.size())))
    return TPSetOp(kind, r, s, std::move(result_name));

  if (result_name.empty())
    result_name = r.name() + "_" + TPSetOpKindName(kind) + "_" + s.name();

  StatusOr<JoinCondition> theta = SetOpCondition(r, s);
  if (!theta.ok()) return theta.status();
  const OverlapAlgorithm algorithm =
      ChooseOverlapAlgorithm(OverlapAlgorithm::kAuto, r, s, *theta);

  const bool s_driven = SetOpHasSDrivenPipeline(kind);
  if (algorithm == OverlapAlgorithm::kSweep) {
    // The serial plan: a hot fact chain would serialize one partition.
    TPRelation result(std::move(result_name), r.fact_schema(), r.manager());
    TPDB_RETURN_IF_ERROR(RunSetOpPipeline(kind, /*s_driven=*/false, r, s,
                                          algorithm, &result));
    if (s_driven) {
      TPDB_RETURN_IF_ERROR(RunSetOpPipeline(kind, /*s_driven=*/true, r, s,
                                            algorithm, &result));
    }
    return result;
  }

  // Deterministic for a given parallelism level: partition count depends
  // only on the knob, and tuples are routed by fact hash.
  const size_t parts = static_cast<size_t>(ctx->parallelism()) * 2;
  const std::vector<TPRelation> r_parts = HashPartitionRelation(r, parts);
  const std::vector<TPRelation> s_parts = HashPartitionRelation(s, parts);

  PartialSlots r_slots(parts);
  PartialSlots s_slots(s_driven ? parts : 0);

  TaskGroup group(ctx->pool());
  for (size_t i = 0; i < parts; ++i) {
    group.Spawn([&, i]() -> Status {
      const Clock::time_point start = Clock::now();
      auto partial = std::make_unique<TPRelation>(
          result_name, r.fact_schema(), r.manager());
      TPDB_RETURN_IF_ERROR(RunSetOpPipeline(kind, /*s_driven=*/false,
                                            r_parts[i], s_parts[i], algorithm,
                                            partial.get()));
      ctx->RecordTask(partial->size(), SecondsSince(start));
      r_slots[i] = std::move(partial);
      return Status::OK();
    });
    if (s_driven) {
      group.Spawn([&, i]() -> Status {
        const Clock::time_point start = Clock::now();
        auto partial = std::make_unique<TPRelation>(
            result_name, r.fact_schema(), r.manager());
        TPDB_RETURN_IF_ERROR(RunSetOpPipeline(kind, /*s_driven=*/true,
                                              r_parts[i], s_parts[i],
                                              algorithm, partial.get()));
        ctx->RecordTask(partial->size(), SecondsSince(start));
        s_slots[i] = std::move(partial);
        return Status::OK();
      });
    }
  }
  TPDB_RETURN_IF_ERROR(group.Wait());

  TPRelation result(std::move(result_name), r.fact_schema(), r.manager());
  TPDB_RETURN_IF_ERROR(MergeSlots(&r_slots, &result));
  TPDB_RETURN_IF_ERROR(MergeSlots(&s_slots, &result));
  return result;
}

StatusOr<Table> ParallelPipeline(ExecContext* ctx, const Table& input,
                                 const PipelineFactory& factory) {
  TPDB_CHECK(ctx != nullptr);
  TPDB_CHECK(factory != nullptr);

  const auto run_serial = [&]() -> StatusOr<Table> {
    StatusOr<OperatorPtr> op =
        factory(std::make_unique<TableScan>(&input));
    if (!op.ok()) return op.status();
    return Materialize(op->get());
  };
  if (!ctx->ShouldParallelize(input.rows.size())) return run_serial();

  const std::vector<Morsel> morsels =
      MakeMorsels(input.rows.size(), ctx->options().morsel_size);
  if (morsels.size() < 2) return run_serial();

  std::vector<Table> slots(morsels.size());
  TaskGroup group(ctx->pool());
  for (size_t i = 0; i < morsels.size(); ++i) {
    group.Spawn([&, i]() -> Status {
      const Clock::time_point start = Clock::now();
      StatusOr<OperatorPtr> op = factory(std::make_unique<TableScan>(
          &input, morsels[i].begin, morsels[i].end));
      if (!op.ok()) return op.status();
      slots[i] = Materialize(op->get());
      ctx->RecordTask(slots[i].rows.size(), SecondsSince(start));
      return Status::OK();
    });
  }
  TPDB_RETURN_IF_ERROR(group.Wait());

  // Ordered merge: morsel order == scan order == the serial row order.
  Table out;
  out.schema = slots[0].schema;
  size_t total = 0;
  for (const Table& t : slots) total += t.rows.size();
  out.rows.reserve(total);
  for (Table& t : slots)
    for (Row& row : t.rows) out.rows.push_back(std::move(row));
  return out;
}

StatusOr<Table> ParallelBatchPipeline(ExecContext* ctx, size_t num_morsels,
                                      const BatchSourceFactory& source,
                                      const BatchChainFactory& chain) {
  TPDB_CHECK(ctx != nullptr);
  TPDB_CHECK(source != nullptr);
  TPDB_CHECK(chain != nullptr);
  TPDB_CHECK_GT(num_morsels, 0u);

  std::vector<Table> slots(num_morsels);
  TaskGroup group(ctx->pool());
  for (size_t i = 0; i < num_morsels; ++i) {
    group.Spawn([&, i]() -> Status {
      const Clock::time_point start = Clock::now();
      StatusOr<vec::BatchOperatorPtr> src = source(i);
      if (!src.ok()) return src.status();
      StatusOr<vec::BatchOperatorPtr> op = chain(std::move(*src));
      if (!op.ok()) return op.status();
      slots[i] = vec::MaterializeBatches(op->get());
      ctx->RecordTask(slots[i].rows.size(), SecondsSince(start));
      return Status::OK();
    });
  }
  TPDB_RETURN_IF_ERROR(group.Wait());

  // Ordered merge: morsel order == source order == the serial row order.
  Table out;
  out.schema = slots[0].schema;
  size_t total = 0;
  for (const Table& t : slots) total += t.rows.size();
  out.rows.reserve(total);
  for (Table& t : slots)
    for (Row& row : t.rows) out.rows.push_back(std::move(row));
  return out;
}

StatusOr<TPRelation> ParallelTPJoin(ExecContext* ctx, const TPJoinSpec& spec,
                                    const TPRelation& r, const TPRelation& s) {
  return ParallelTPJoin(ctx, spec.kind, r, s, spec.theta, spec.options);
}

StatusOr<TPRelation> ParallelTPSetOp(ExecContext* ctx,
                                     const TPSetOpSpec& spec,
                                     const TPRelation& r,
                                     const TPRelation& s) {
  return ParallelTPSetOp(ctx, spec.kind, r, s, spec.result_name);
}

}  // namespace tpdb
