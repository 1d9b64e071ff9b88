#include "api/planner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "api/database.h"
#include "api/lowering_common.h"
#include "api/passes/passes.h"
#include "baseline/ta_join.h"
#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/vector/adapters.h"
#include "engine/vector/batch_ops.h"
#include "exec/exec_context.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/scan.h"
#include "tp/set_ops.h"

namespace tpdb {

namespace {

using Clock = std::chrono::steady_clock;

/// Engine-wide query metrics — every execution path funnels through
/// Planner::Execute, so this is the one place the per-query counters live.
struct EngineMetrics {
  obs::Counter* queries = obs::MetricsRegistry::Default().counter(
      "tpdb_engine_queries_total", "engine",
      "Logical plans executed (all paths: in-process and server).");
  obs::Histogram* query_us = obs::MetricsRegistry::Default().histogram(
      "tpdb_engine_query_us", "engine",
      "End-to-end plan execution latency in microseconds.");

  static const EngineMetrics& Get() {
    static const EngineMetrics m;
    return m;
  }
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Reports one whole-operator node (join, set op, scan, exchange region)
/// into the registry and links it to its physical node for the tree
/// rendering.
NodeStats* ReportNode(ExecStats* stats, PhysicalNode* node, std::string label,
                      uint64_t rows, double seconds) {
  if (stats == nullptr) return nullptr;
  NodeStats* slot = stats->AddNode(std::move(label));
  slot->rows = rows;
  slot->open_calls = 1;
  slot->seconds = seconds;
  if (node != nullptr) node->actual = slot;
  return slot;
}

/// An exchange whose region ran serially — its input came in under
/// min_parallel_rows at run time — still passed the region's rows through:
/// it reports the region's actuals, so every executed node of the tree
/// carries actuals in Explain and in the trace.
void ReportSerialExchanges(PhysicalNode* node, ExecStats* stats) {
  for (const PhysicalNodePtr& child : node->children)
    ReportSerialExchanges(child.get(), stats);
  if (node->op != PhysOp::kExchange || node->actual != nullptr) return;
  const NodeStats* region = node->children[0]->actual;
  if (region == nullptr) return;
  ReportNode(stats, node, node->Label() + " (ran serially)", region->rows,
             region->seconds);
}

TPSetOpKind MapSetOpKind(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion: return TPSetOpKind::kUnion;
    case SetOpKind::kIntersect: return TPSetOpKind::kIntersect;
    case SetOpKind::kExcept: return TPSetOpKind::kDifference;
  }
  return TPSetOpKind::kUnion;
}

/// The planner-wide probability-evaluation knobs. Per-stage APPROX
/// contracts layer on top inside the lowering helpers (StageProbOptions).
ProbEvalOptions BaseProbOptions(const PlannerOptions& options) {
  ProbEvalOptions prob;
  prob.max_circuit_nodes = options.prob_compile_budget;
  prob.mc_seed = options.prob_mc_seed;
  return prob;
}

/// Lowers stages [first, stages.size()) on the row path over `op`,
/// instrumenting each stage into `stats` when given.
StatusOr<OperatorPtr> LowerRowTail(OperatorPtr op,
                                   const std::vector<PhysicalNode*>& stages,
                                   size_t first, LineageManager* manager,
                                   ExecStats* stats,
                                   const ProbEvalOptions& prob_base) {
  for (size_t i = first; i < stages.size(); ++i) {
    StatusOr<OperatorPtr> next =
        LowerPipelineStage(*stages[i], std::move(op), manager, prob_base);
    if (!next.ok()) return next.status();
    op = std::move(*next);
    if (stats != nullptr) {
      NodeStats* slot = stats->AddNode(stages[i]->Label());
      stages[i]->actual = slot;
      op = Instrument(slot, std::move(op));
    }
  }
  return op;
}

/// Runs the instrumented row-path stages [first, stages.size()) over
/// `table` — the serial tail of a chain whose prefix the parallel driver
/// merged.
StatusOr<TPRelation> FinishRowTailOverTable(
    std::string name, Table table, const std::vector<PhysicalNode*>& stages,
    size_t first, LineageManager* manager, ExecStats* stats,
    const ProbEvalOptions& prob_base) {
  if (first == stages.size())
    return TPRelation::FromTable(std::move(name), table, manager);
  StatusOr<OperatorPtr> tail =
      LowerRowTail(std::make_unique<TableScan>(&table), stages, first,
                   manager, stats, prob_base);
  if (!tail.ok()) return tail.status();
  const Table out = Materialize(tail->get());
  return TPRelation::FromTable(std::move(name), out, manager);
}

/// The serial tail of a batch chain: materialize directly when every
/// stage lowered batch, else adapter + instrumented row stages.
StatusOr<Table> FinishBatchTail(vec::BatchOperatorPtr op,
                                const ChainExec& chain,
                                LineageManager* manager, VectorStats* vstats,
                                ExecStats* stats,
                                const ProbEvalOptions& prob_base) {
  if (chain.batch_prefix == chain.stages.size())
    return vec::MaterializeBatches(op.get(), vstats);
  OperatorPtr rop =
      std::make_unique<vec::BatchToRowAdapter>(std::move(op), vstats);
  StatusOr<OperatorPtr> tail =
      LowerRowTail(std::move(rop), chain.stages, chain.batch_prefix, manager,
                   stats, prob_base);
  if (!tail.ok()) return tail.status();
  return Materialize(tail->get());
}

}  // namespace

Planner::Planner(TPDatabase* db, PlannerOptions options)
    : db_(db), options_(std::move(options)) {
  TPDB_CHECK(db_ != nullptr);
}

StatusOr<TPRelation> Planner::Execute(const LogicalPlan& plan,
                                      ExecStats* stats) {
  if (plan.root == nullptr)
    return Status::InvalidArgument("empty logical plan");
  EngineMetrics::Get().queries->Add();
  const obs::ScopedLatencyTimer query_timer(EngineMetrics::Get().query_us);
  obs::TraceContext* trace = stats != nullptr ? stats->trace() : nullptr;

  // Snapshot statements run before the catalog lock below: SaveSnapshot
  // takes its own shared lock, LoadSnapshot registers relations through
  // the exclusive DDL path.
  if (plan.root->op == LogicalOp::kSaveSnapshot ||
      plan.root->op == LogicalOp::kLoadSnapshot) {
    const Clock::time_point start = Clock::now();
    const Status status =
        plan.root->op == LogicalOp::kSaveSnapshot
            ? db_->SaveSnapshot(plan.root->snapshot_path)
            : db_->LoadSnapshot(plan.root->snapshot_path);
    if (!status.ok()) return status;
    if (stats != nullptr) {
      NodeStats* node = stats->AddNode(plan.root->Label());
      node->open_calls = 1;
      node->seconds = SecondsSince(start);
    }
    return TPRelation("snapshot", Schema({{"path", DatumType::kString}}),
                      db_->manager());
  }

  // Queries hold the catalog in shared mode for their whole run, so
  // concurrent sessions read a stable catalog while DDL waits its turn.
  const std::shared_lock<std::shared_mutex> catalog_lock =
      db_->ReadLockCatalog();

  // parallelism == 1 pins the serial path: no pool, no exec context — the
  // evaluation below is bit-for-bit the serial planner.
  ExecOptions exec_options;
  exec_options.parallelism = options_.parallelism;
  exec_options.morsel_size = options_.morsel_size;
  exec_options.min_parallel_rows = options_.min_parallel_rows;
  ThreadPool* pool =
      options_.parallelism == 1 ? nullptr : ThreadPool::Default();
  ExecContext ctx(pool, exec_options);
  ctx_ = ctx.parallelism() > 1 ? &ctx : nullptr;

  // Bind → optimize → execute: the one lowering path.
  const uint64_t optimize_span =
      trace != nullptr ? trace->StartSpan("optimize") : 0;
  StatusOr<PhysicalPlan> physical = LowerLocked(plan, ctx.parallelism());
  if (trace != nullptr) trace->EndSpan(optimize_span);
  if (!physical.ok()) {
    ctx_ = nullptr;
    return physical.status();
  }

  const uint64_t execute_span =
      trace != nullptr ? trace->StartSpan("execute") : 0;
  StatusOr<EvalResult> result = ExecNode(physical->root.get(), stats);
  ctx_ = nullptr;
  if (trace != nullptr) trace->EndSpan(execute_span);
  if (stats != nullptr) {
    for (const WorkerStats& w : ctx.CollectWorkerStats())
      stats->AddWorker(w);
    ReportSerialExchanges(physical->root.get(), stats);
    stats->set_physical_plan(physical->ToString());
    // Mirror the executed tree into the trace AFTER set_physical_plan:
    // both read the same NodeStats slots, so the span payloads and the
    // rendered actuals agree node-for-node by construction.
    if (trace != nullptr)
      obs::AddPlanSpans(*physical->root, execute_span,
                        trace->spans()[execute_span - 1].start_us, trace);
  }
  if (!result.ok()) return result.status();
  if (result->owned) return std::move(*result->owned);
  // A bare catalog scan at the root: copy once, here.
  return TPRelation(*result->borrowed);
}

StatusOr<PhysicalPlan> Planner::Lower(const LogicalPlan& plan) {
  if (plan.root == nullptr)
    return Status::InvalidArgument("empty logical plan");
  if (plan.root->op == LogicalOp::kSaveSnapshot ||
      plan.root->op == LogicalOp::kLoadSnapshot)
    return Status::InvalidArgument(
        "snapshot statements have no physical plan");
  // Resolve the worker count the way ExecContext would, without touching
  // the shared pool — a plan-inspection call must not spawn threads.
  int parallelism = options_.parallelism;
  if (parallelism <= 0)
    parallelism = static_cast<int>(ThreadPool::HardwareParallelism());
  parallelism = std::max(parallelism, 1);
  const std::shared_lock<std::shared_mutex> catalog_lock =
      db_->ReadLockCatalog();
  return LowerLocked(plan, parallelism);
}

StatusOr<PhysicalPlan> Planner::LowerLocked(const LogicalPlan& plan,
                                            int parallelism) {
  StatusOr<PhysicalPlan> physical = BuildPhysicalPlan(plan, db_);
  if (!physical.ok()) return physical.status();
  const PassContext pass_ctx{&options_, parallelism};
  TPDB_RETURN_IF_ERROR(RunPassPipeline(&*physical, pass_ctx));
  return physical;
}

StatusOr<Planner::EvalResult> Planner::ExecNode(PhysicalNode* node,
                                                ExecStats* stats) {
  switch (node->op) {
    case PhysOp::kScan:
    case PhysOp::kBatchScan:
      // A bare source outside any chain: zero-copy borrow.
      ReportNode(stats, node, node->Label(), node->rel->size(), 0.0);
      return EvalResult{std::nullopt, node->rel};
    case PhysOp::kFilter:
    case PhysOp::kProject:
    case PhysOp::kSort:
    case PhysOp::kLimit:
    case PhysOp::kExchange:
      return ExecPipeline(node, stats);
    case PhysOp::kAggregate:
      return ExecAggregate(node, stats);
    case PhysOp::kTPJoin:
    case PhysOp::kAlign:
      return ExecJoin(node, stats);
    case PhysOp::kTPSetOp:
      return ExecSetOp(node, stats);
  }
  return Status::Internal("unhandled physical node");
}

StatusOr<Planner::EvalResult> Planner::ExecJoin(PhysicalNode* node,
                                                ExecStats* stats) {
  StatusOr<EvalResult> left = ExecNode(node->children[0].get(), stats);
  if (!left.ok()) return left.status();
  StatusOr<EvalResult> right = ExecNode(node->children[1].get(), stats);
  if (!right.ok()) return right.status();

  const Clock::time_point start = Clock::now();
  StatusOr<TPRelation> result = [&]() -> StatusOr<TPRelation> {
    if (node->op == PhysOp::kAlign) {
      // The temporal-alignment strategy, constructed from the PhysAlign
      // node (always serial — the TA baseline has no parallel driver).
      TPAlignSpec spec;
      spec.kind = node->join_kind;
      spec.theta.equal_columns = node->join_on;
      spec.validate_inputs = options_.validate_inputs;
      return TemporalAlignmentJoin(spec, left->rel(), right->rel());
    }
    TPJoinSpec spec;
    spec.kind = node->join_kind;
    spec.theta.equal_columns = node->join_on;
    spec.options.strategy = JoinStrategy::kLineageAware;
    // Resolve kAuto here, on the actual inputs, so the node (and Explain)
    // names the algorithm that runs; the join then takes it as forced.
    node->join_algorithm = ChooseOverlapAlgorithm(
        node->join_algorithm, left->rel(), right->rel(), spec.theta);
    spec.options.overlap_algorithm = node->join_algorithm;
    spec.options.validate_inputs = options_.validate_inputs;
    return ctx_ != nullptr
               ? ParallelTPJoin(ctx_, spec, left->rel(), right->rel())
               : TPJoin(spec, left->rel(), right->rel());
  }();
  if (!result.ok()) return result.status();
  ReportNode(stats, node, node->Label(), result->size(), SecondsSince(start));
  return EvalResult{std::move(*result), nullptr};
}

StatusOr<Planner::EvalResult> Planner::ExecSetOp(PhysicalNode* node,
                                                 ExecStats* stats) {
  StatusOr<EvalResult> left = ExecNode(node->children[0].get(), stats);
  if (!left.ok()) return left.status();
  StatusOr<EvalResult> right = ExecNode(node->children[1].get(), stats);
  if (!right.ok()) return right.status();

  const Clock::time_point start = Clock::now();
  TPSetOpSpec spec;
  spec.kind = MapSetOpKind(node->set_op);
  StatusOr<TPRelation> result =
      ctx_ != nullptr ? ParallelTPSetOp(ctx_, spec, left->rel(), right->rel())
                      : TPSetOp(spec, left->rel(), right->rel());
  if (!result.ok()) return result.status();
  ReportNode(stats, node, node->Label(), result->size(), SecondsSince(start));
  return EvalResult{std::move(*result), nullptr};
}

StatusOr<Planner::EvalResult> Planner::ExecPipeline(PhysicalNode* top,
                                                    ExecStats* stats) {
  ChainExec chain = CollectExecChain(top);
  PhysicalNode* source = chain.source;
  const ProbEvalOptions prob_base = BaseProbOptions(options_);

  // `ORDER BY _prob DESC LIMIT k` chains take the pruned top-k path when
  // they fit its shape (catalog source, row-local stages under the sort).
  {
    StatusOr<std::optional<EvalResult>> topk = ExecTopKProb(chain, stats);
    if (!topk.ok()) return topk.status();
    if (topk->has_value()) return std::move(**topk);
  }

  // -- Cold catalog chains read the mapped segments directly. ------------
  if (IsCatalogSource(*source) && source->cold) {
    const storage::SegmentedTable* table = source->rel->cold_storage().get();
    LineageManager* manager = source->rel->manager();
    const storage::ScanPredicate& predicate = source->scan_predicate;

    if (chain.batch_prefix > 0) {
      // Parallel: morsels of whole segments run the row-local batch
      // prefix independently (zone-map pruning composes per morsel); the
      // merged table — in segment order, i.e. the serial scan order —
      // feeds any remaining stages on the row path. Per-morsel storage
      // and vector counters merge into the explain registry, so pruning
      // is reported even on the parallel route.
      if (chain.exchange != nullptr && ctx_ != nullptr &&
          ctx_->ShouldParallelize(table->num_rows()) &&
          table->segments().size() >= 2) {
        const size_t lowered = chain.parallel_prefix;
        const size_t max_morsels =
            static_cast<size_t>(ctx_->parallelism()) * 4;
        const std::vector<Morsel> morsels =
            MakeMorsels(table->segments().size(), 1, max_morsels);
        std::vector<StorageStats> counters(morsels.size());
        std::vector<VectorStats> vcounters(morsels.size());
        const Clock::time_point start = Clock::now();
        StatusOr<Table> merged = ParallelBatchPipeline(
            ctx_, morsels.size(),
            [&](size_t i) -> StatusOr<vec::BatchOperatorPtr> {
              return vec::BatchOperatorPtr(
                  std::make_unique<storage::SegmentBatchScan>(
                      table, predicate, morsels[i].begin, morsels[i].end,
                      &counters[i], &vcounters[i]));
            },
            [&](vec::BatchOperatorPtr src)
                -> StatusOr<vec::BatchOperatorPtr> {
              return LowerBatchStages(std::move(src), chain.stages, lowered,
                                      manager, nullptr, nullptr, prob_base);
            });
        if (!merged.ok()) return merged.status();
        if (stats != nullptr) {
          StorageStats storage;
          VectorStats vstats;
          for (const StorageStats& c : counters) storage.Merge(c);
          for (const VectorStats& v : vcounters) vstats.Merge(v);
          vstats.rows_emitted += merged->rows.size();
          NodeStats* scan_stats = ReportNode(
              stats, source, source->Label() + " (cold)",
              storage.rows_decoded, storage.decode_seconds);
          scan_stats->open_calls = 1;
          stats->AddStorage(storage);
          stats->AddVector(vstats);
          ReportNode(stats, chain.exchange, chain.exchange->Label(),
                     merged->rows.size(), SecondsSince(start));
        }
        StatusOr<TPRelation> result = FinishRowTailOverTable(
            source->rel->name(), std::move(*merged), chain.stages, lowered,
            manager, stats, prob_base);
        if (!result.ok()) return result.status();
        return EvalResult{std::move(*result), nullptr};
      }

      // Serial: chunk-level batch scan → lowered batch stages → (adapter
      // + remaining row stages, when the chain has a non-batch tail).
      VectorStats vstats;
      StorageStats counters;
      NodeStats* scan_stats =
          stats != nullptr ? stats->AddNode(source->Label() + " (cold)")
                           : nullptr;
      if (scan_stats != nullptr) source->actual = scan_stats;
      vec::BatchOperatorPtr op = std::make_unique<storage::SegmentBatchScan>(
          table, predicate, &counters, &vstats);
      op = LowerBatchStages(std::move(op), chain.stages, chain.batch_prefix,
                            manager, &vstats, stats, prob_base);
      StatusOr<Table> out = FinishBatchTail(std::move(op), chain, manager,
                                            &vstats, stats, prob_base);
      if (!out.ok()) return out.status();
      if (stats != nullptr) {
        scan_stats->rows = counters.rows_decoded;
        scan_stats->open_calls = 1;
        scan_stats->seconds = counters.decode_seconds;
        stats->AddStorage(counters);
        stats->AddVector(vstats);
      }
      StatusOr<TPRelation> result =
          TPRelation::FromTable(source->rel->name(), *out, manager);
      if (!result.ok()) return result.status();
      return EvalResult{std::move(*result), nullptr};
    }

    // Row-mode cold chain (serial — the decode already dominates).
    StorageStats counters;
    NodeStats* scan_stats =
        stats != nullptr ? stats->AddNode(source->Label() + " (cold)")
                         : nullptr;
    if (scan_stats != nullptr) source->actual = scan_stats;
    StatusOr<OperatorPtr> lowered = LowerRowTail(
        std::make_unique<storage::SegmentScan>(table, predicate, &counters),
        chain.stages, 0, manager, stats, prob_base);
    if (!lowered.ok()) return lowered.status();
    const Table out = Materialize(lowered->get());
    if (stats != nullptr) {
      scan_stats->rows = counters.rows_decoded;
      scan_stats->open_calls = 1;
      scan_stats->seconds = counters.decode_seconds;
      stats->AddStorage(counters);
    }
    StatusOr<TPRelation> result =
        TPRelation::FromTable(source->rel->name(), out, manager);
    if (!result.ok()) return result.status();
    return EvalResult{std::move(*result), nullptr};
  }

  // -- Warm chains run over the flattened table of their source. ---------
  std::string name;
  LineageManager* manager = nullptr;
  auto table = std::make_unique<Table>();
  if (IsCatalogSource(*source)) {
    name = source->rel->name();
    manager = source->rel->manager();
    ReportNode(stats, source, source->Label(), source->rel->size(), 0.0);
    *table = source->rel->ToTable();
  } else {
    StatusOr<EvalResult> base = ExecNode(source, stats);
    if (!base.ok()) return base.status();
    name = base->rel().name();
    manager = base->rel().manager();
    *table = base->rel().ToTable();
  }

  if (chain.batch_prefix > 0) {
    // Parallel: contiguous morsels of the flattened table through the
    // row-local batch prefix, ordered merge, remaining stages on the row
    // path.
    if (chain.exchange != nullptr && ctx_ != nullptr &&
        ctx_->ShouldParallelize(table->rows.size())) {
      const std::vector<Morsel> morsels =
          MakeMorsels(table->rows.size(), ctx_->options().morsel_size);
      if (morsels.size() >= 2) {
        const size_t lowered = chain.parallel_prefix;
        std::vector<VectorStats> vcounters(morsels.size());
        const Clock::time_point start = Clock::now();
        StatusOr<Table> merged = ParallelBatchPipeline(
            ctx_, morsels.size(),
            [&](size_t i) -> StatusOr<vec::BatchOperatorPtr> {
              return vec::BatchOperatorPtr(
                  std::make_unique<vec::TableBatchScan>(
                      table.get(), morsels[i].begin, morsels[i].end,
                      &vcounters[i]));
            },
            [&](vec::BatchOperatorPtr src)
                -> StatusOr<vec::BatchOperatorPtr> {
              return LowerBatchStages(std::move(src), chain.stages, lowered,
                                      manager, nullptr, nullptr, prob_base);
            });
        if (!merged.ok()) return merged.status();
        if (stats != nullptr) {
          VectorStats vstats;
          for (const VectorStats& v : vcounters) vstats.Merge(v);
          vstats.rows_emitted += merged->rows.size();
          stats->AddVector(vstats);
          ReportNode(stats, chain.exchange, chain.exchange->Label(),
                     merged->rows.size(), SecondsSince(start));
        }
        StatusOr<TPRelation> result = FinishRowTailOverTable(
            name, std::move(*merged), chain.stages, lowered, manager, stats,
            prob_base);
        if (!result.ok()) return result.status();
        return EvalResult{std::move(*result), nullptr};
      }
    }

    // Serial batch.
    VectorStats vstats;
    vec::BatchOperatorPtr op =
        std::make_unique<vec::TableBatchScan>(table.get(), &vstats);
    op = LowerBatchStages(std::move(op), chain.stages, chain.batch_prefix,
                          manager, &vstats, stats, prob_base);
    StatusOr<Table> out = FinishBatchTail(std::move(op), chain, manager,
                                          &vstats, stats, prob_base);
    if (!out.ok()) return out.status();
    if (stats != nullptr) stats->AddVector(vstats);
    StatusOr<TPRelation> result = TPRelation::FromTable(name, *out, manager);
    if (!result.ok()) return result.status();
    return EvalResult{std::move(*result), nullptr};
  }

  // Row path: the exchange's row-local prefix goes through the parallel
  // driver (each morsel runs its own chain instance; outputs merge in
  // morsel order, matching the serial pipeline exactly); sort, limit and
  // everything above stay serial.
  size_t first_serial_stage = 0;
  if (chain.exchange != nullptr && ctx_ != nullptr &&
      ctx_->ShouldParallelize(table->rows.size())) {
    const size_t row_local = chain.parallel_prefix;
    const Clock::time_point start = Clock::now();
    StatusOr<Table> out = ParallelPipeline(
        ctx_, *table,
        [&chain, row_local, manager,
         &prob_base](OperatorPtr source_op) -> StatusOr<OperatorPtr> {
          OperatorPtr op = std::move(source_op);
          for (size_t i = 0; i < row_local; ++i) {
            StatusOr<OperatorPtr> lowered = LowerPipelineStage(
                *chain.stages[i], std::move(op), manager, prob_base);
            if (!lowered.ok()) return lowered.status();
            op = std::move(*lowered);
          }
          return op;
        });
    if (!out.ok()) return out.status();
    *table = std::move(*out);
    first_serial_stage = row_local;
    if (stats != nullptr)
      ReportNode(stats, chain.exchange, chain.exchange->Label(),
                 table->rows.size(), SecondsSince(start));
  }

  StatusOr<TPRelation> rel = [&]() -> StatusOr<TPRelation> {
    if (first_serial_stage == chain.stages.size()) {
      // Everything ran in the parallel driver; `table` is the result.
      return TPRelation::FromTable(name, *table, manager);
    }
    StatusOr<OperatorPtr> lowered =
        LowerRowTail(std::make_unique<TableScan>(table.get()), chain.stages,
                     first_serial_stage, manager, stats, prob_base);
    if (!lowered.ok()) return lowered.status();
    const Table out = Materialize(lowered->get());
    return TPRelation::FromTable(name, out, manager);
  }();
  if (!rel.ok()) return rel.status();
  return EvalResult{std::move(*rel), nullptr};
}

StatusOr<std::optional<Planner::EvalResult>> Planner::ExecTopKProb(
    const ChainExec& chain, ExecStats* stats) {
  const std::optional<EvalResult> no_match;

  // Shape check: ... → row-local stages → Sort(top_k, fused by the top-k
  // pass from a single `_prob DESC` key) → Limit, over a catalog source.
  if (chain.stages.size() < 2) return no_match;
  PhysicalNode* limit = chain.stages.back();
  PhysicalNode* sort = chain.stages[chain.stages.size() - 2];
  if (limit->op != PhysOp::kLimit || sort->op != PhysOp::kSort ||
      sort->top_k < 0)
    return no_match;
  PhysicalNode* source = chain.source;
  if (!IsCatalogSource(*source)) return no_match;
  const size_t sort_idx = chain.stages.size() - 2;
  for (size_t i = 0; i < sort_idx; ++i) {
    const PhysOp op = chain.stages[i]->op;
    if (op != PhysOp::kFilter && op != PhysOp::kProject) return no_match;
  }

  const size_t k = static_cast<size_t>(sort->top_k);
  LineageManager* manager = source->rel->manager();
  const ProbEvalOptions prob_base = BaseProbOptions(options_);
  ProbabilityEvaluator evaluator(manager, prob_base);
  const int lin_col = sort->schema.IndexOf(kLineageColumn);
  TPDB_CHECK_GE(lin_col, 0);
  const Clock::time_point start = Clock::now();

  // One visit unit per cold segment, carrying the zone map's probability
  // upper bound — trusted only while the manager's epoch still matches the
  // table's (SetVariableProbability stales every stored bound, so a stale
  // table degrades to bound 1.0: no pruning, still correct). The warm path
  // is the degenerate single unit over the flattened table.
  struct Unit {
    double upper = 1.0;
    size_t segment = 0;   ///< cold only
    size_t seq_base = 0;  ///< global row offset of the unit's first row
  };
  std::vector<Unit> units;
  const storage::SegmentedTable* cold =
      source->cold ? source->rel->cold_storage().get() : nullptr;
  std::unique_ptr<Table> warm;
  if (cold != nullptr) {
    const bool fresh =
        manager->probability_epoch() == cold->probability_epoch();
    size_t base = 0;
    units.reserve(cold->segments().size());
    for (size_t s = 0; s < cold->segments().size(); ++s) {
      const storage::Segment& seg = cold->segments()[s];
      units.push_back(Unit{fresh ? seg.zone.max_prob : 1.0, s, base});
      base += seg.num_rows;
    }
  } else {
    warm = std::make_unique<Table>(source->rel->ToTable());
    units.push_back(Unit{});
  }
  // Best bound first; stable, so equal bounds keep storage order.
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.upper > b.upper;
                   });

  // The running top k. Parity with ProbSort's stable sort + Limit means
  // ordering candidates by (probability desc, scan position asc); the heap
  // keeps its WORST kept entry on top, so it is evicted first and its
  // probability is the running k-th lower bound.
  struct Entry {
    double prob;
    size_t seq;
    Row row;
  };
  const auto better = [](const Entry& a, const Entry& b) {
    if (a.prob != b.prob) return a.prob > b.prob;
    return a.seq < b.seq;
  };
  std::vector<Entry> kept;  // heap ordered by `better` (worst on top)
  kept.reserve(k + 1);

  StorageStats counters;
  uint64_t rows_evaluated = 0;
  size_t units_visited = 0;
  for (const Unit& unit : units) {
    if (k == 0) break;
    // Stop once no remaining unit can beat the k-th kept probability.
    // Equality must keep scanning: a tying row with a smaller scan
    // position wins its tie-break.
    if (kept.size() == k && kept.front().prob > unit.upper) break;
    ++units_visited;

    OperatorPtr op =
        cold != nullptr
            ? OperatorPtr(std::make_unique<storage::SegmentScan>(
                  cold, source->scan_predicate, unit.segment,
                  unit.segment + 1, &counters))
            : OperatorPtr(std::make_unique<TableScan>(warm.get()));
    for (size_t i = 0; i < sort_idx; ++i) {
      StatusOr<OperatorPtr> next = LowerPipelineStage(
          *chain.stages[i], std::move(op), manager, prob_base);
      if (!next.ok()) return next.status();
      op = std::move(*next);
    }
    op->Open();
    Row row;
    size_t local = 0;
    while (op->Next(&row)) {
      // Filtering preserves relative order, so the pre-filter unit base
      // plus the post-filter local index ties rows exactly like the full
      // sort's stable scan order.
      const size_t seq = unit.seq_base + local++;
      const double prob = evaluator.Probability(row[lin_col].AsLineage());
      ++rows_evaluated;
      if (kept.size() == k && !better(Entry{prob, seq, {}}, kept.front()))
        continue;
      kept.push_back(Entry{prob, seq, std::move(row)});
      std::push_heap(kept.begin(), kept.end(), better);
      if (kept.size() > k) {
        std::pop_heap(kept.begin(), kept.end(), better);
        kept.pop_back();
      }
    }
    op->Close();
  }
  sort->prob_methods |= evaluator.methods_used();

  std::sort(kept.begin(), kept.end(), better);
  Table out;
  out.schema = sort->schema;
  out.rows.reserve(kept.size());
  for (Entry& e : kept) out.rows.push_back(std::move(e.row));

  const double seconds = SecondsSince(start);
  if (stats != nullptr) {
    NodeStats* scan_slot = ReportNode(
        stats, source,
        source->Label() + (cold != nullptr ? " (cold)" : ""),
        cold != nullptr ? counters.rows_decoded : warm->rows.size(),
        counters.decode_seconds);
    scan_slot->open_calls = 1;
    if (cold != nullptr) stats->AddStorage(counters);
    ReportNode(stats, sort, sort->Label() + " (top-k)", out.rows.size(),
               seconds);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "  top-k visited %zu/%zu units, evaluated %llu rows",
                  units_visited, units.size(),
                  static_cast<unsigned long long>(rows_evaluated));
    NodeStats* detail = stats->AddNode(buf);
    detail->rows = rows_evaluated;
    detail->open_calls = 1;
    ReportNode(stats, limit, limit->Label(), out.rows.size(), 0.0);
  }

  StatusOr<TPRelation> result =
      TPRelation::FromTable(source->rel->name(), out, manager);
  if (!result.ok()) return result.status();
  return std::optional<EvalResult>(EvalResult{std::move(*result), nullptr});
}

StatusOr<Planner::EvalResult> Planner::ExecAggregate(PhysicalNode* node,
                                                     ExecStats* stats) {
  if (node->mode == ExecMode::kBatch) {
    StatusOr<std::optional<EvalResult>> batch =
        ExecBatchAggregate(node, stats);
    if (!batch.ok()) return batch.status();
    if (batch->has_value()) return std::move(**batch);
    // The batch plan did not apply at run time (degenerate input); the row
    // aggregate computes the identical result.
  }
  return ExecRowAggregate(node, stats);
}

StatusOr<Planner::EvalResult> Planner::ExecRowAggregate(PhysicalNode* node,
                                                        ExecStats* stats) {
  StatusOr<EvalResult> child = ExecNode(node->children[0].get(), stats);
  if (!child.ok()) return child.status();
  const TPRelation& input = child->rel();
  const Clock::time_point start = Clock::now();

  StatusOr<AggPlan> plan =
      ResolveAggregatePlan(node->group_by, node->group_aliases,
                           node->aggregates, input.fact_schema());
  if (!plan.ok()) return plan.status();
  const std::vector<int>& group_idx = plan->group_idx;
  const std::vector<int>& agg_idx = plan->agg_idx;

  struct Group {
    std::vector<Datum> acc;  // one slot per aggregate (count as int64)
    TimePoint min_ts = 0;
    TimePoint max_te = 0;
    std::vector<LineageRef> lineages;
  };
  const auto row_less = [](const Row& a, const Row& b) {
    return CompareRows(a, b) < 0;
  };
  std::map<Row, Group, decltype(row_less)> groups(row_less);

  for (const TPTuple& tuple : input.tuples()) {
    Row key;
    key.reserve(group_idx.size());
    for (const int idx : group_idx)
      key.push_back(tuple.fact[static_cast<size_t>(idx)]);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    Group& g = it->second;
    if (inserted) {
      g.acc.assign(node->aggregates.size(), Datum::Null());
      g.min_ts = tuple.interval.start;
      g.max_te = tuple.interval.end;
    } else {
      g.min_ts = std::min(g.min_ts, tuple.interval.start);
      g.max_te = std::max(g.max_te, tuple.interval.end);
    }
    g.lineages.push_back(tuple.lineage);
    for (size_t j = 0; j < node->aggregates.size(); ++j) {
      const SelectItem& item = node->aggregates[j];
      const Datum* value = agg_idx[j] >= 0
                               ? &tuple.fact[static_cast<size_t>(agg_idx[j])]
                               : nullptr;
      switch (item.fn) {
        case AggFn::kCount: {
          if (value != nullptr && value->is_null()) break;
          const int64_t so_far =
              g.acc[j].is_null() ? 0 : g.acc[j].AsInt64();
          g.acc[j] = Datum(so_far + 1);
          break;
        }
        case AggFn::kSum: {
          if (value->is_null()) break;
          if (g.acc[j].is_null()) {
            g.acc[j] = *value;
          } else if (value->type() == DatumType::kDouble) {
            g.acc[j] = Datum(g.acc[j].AsDouble() + value->AsDouble());
          } else {
            g.acc[j] = Datum(g.acc[j].AsInt64() + value->AsInt64());
          }
          break;
        }
        case AggFn::kMin:
          if (!value->is_null() &&
              (g.acc[j].is_null() || *value < g.acc[j]))
            g.acc[j] = *value;
          break;
        case AggFn::kMax:
          if (!value->is_null() &&
              (g.acc[j].is_null() || g.acc[j] < *value))
            g.acc[j] = *value;
          break;
      }
    }
  }

  TPRelation result(input.name() + "_agg", Schema(std::move(plan->out_cols)),
                    input.manager());
  for (auto& [key, g] : groups) {
    Row fact = key;
    for (size_t j = 0; j < node->aggregates.size(); ++j) {
      if (node->aggregates[j].fn == AggFn::kCount && g.acc[j].is_null())
        g.acc[j] = Datum(static_cast<int64_t>(0));
      fact.push_back(std::move(g.acc[j]));
    }
    // The group spans its tuples' intervals; its lineage is the disjunction
    // of their lineages, so Probability() reports Pr[group non-empty].
    const LineageRef lineage = input.manager()->OrAll(g.lineages);
    TPDB_RETURN_IF_ERROR(result.AppendDerived(
        std::move(fact), Interval(g.min_ts, g.max_te), lineage));
  }
  ReportNode(stats, node, node->Label(), result.size(), SecondsSince(start));
  return EvalResult{std::move(result), nullptr};
}

StatusOr<std::optional<Planner::EvalResult>> Planner::ExecBatchAggregate(
    PhysicalNode* node, ExecStats* stats) {
  // The child chain was pre-validated by the mode pass: a fully batchable
  // Scan→Filter… chain over a catalog relation, optionally with an
  // exchange over its (row-local) whole length.
  ChainExec chain = CollectExecChain(node->children[0].get());
  PhysicalNode* source = chain.source;
  const ProbEvalOptions prob_base = BaseProbOptions(options_);
  TPDB_CHECK(IsCatalogSource(*source));
  const TPRelation* rel = source->rel;
  LineageManager* manager = rel->manager();
  const storage::SegmentedTable* cold =
      source->cold ? rel->cold_storage().get() : nullptr;

  Schema flat;
  const size_t batchable = CountBatchStages(source->schema, chain.stages,
                                            /*row_local_only=*/false, &flat);
  if (batchable != chain.stages.size()) return std::optional<EvalResult>();

  // Group/aggregate columns resolve against the fact prefix of the
  // flattened schema (the reserved columns sit at the end), so the
  // validation — and its errors — match the row path's exactly.
  StatusOr<AggPlan> plan = ResolveAggregatePlan(
      node->group_by, node->group_aliases, node->aggregates,
      FactSchemaOf(flat));
  if (!plan.ok()) return plan.status();
  std::vector<vec::BatchAggItem> items;
  items.reserve(node->aggregates.size());
  for (size_t j = 0; j < node->aggregates.size(); ++j)
    items.push_back(
        vec::BatchAggItem{MapAggFn(node->aggregates[j].fn), plan->agg_idx[j]});
  Schema out_schema =
      FlattenFactSchema(Schema(std::move(plan->out_cols)));

  const storage::ScanPredicate& predicate = source->scan_predicate;
  std::unique_ptr<Table> warm;  // flattened backing of the warm path
  if (cold == nullptr) warm = std::make_unique<Table>(rel->ToTable());

  VectorStats vstats;
  StorageStats counters;
  NodeStats* scan_stats = nullptr;
  std::unique_ptr<Table> merged;  // parallel prefix output
  vec::BatchOperatorPtr op;

  // Parallel prefix: the exchange covers the whole (row-local) chain; the
  // aggregate itself consumes the ordered merge serially.
  if (chain.exchange != nullptr && ctx_ != nullptr &&
      !chain.stages.empty() &&
      ctx_->ShouldParallelize(cold != nullptr ? cold->num_rows()
                                              : warm->rows.size()) &&
      (cold == nullptr || cold->segments().size() >= 2)) {
    const std::vector<Morsel> morsels =
        cold != nullptr
            ? MakeMorsels(cold->segments().size(), 1,
                          static_cast<size_t>(ctx_->parallelism()) * 4)
            : MakeMorsels(warm->rows.size(), ctx_->options().morsel_size);
    // A single morsel would only add a materialize + re-transpose round
    // trip over the serial stream below.
    if (morsels.size() >= 2) {
      std::vector<StorageStats> pcounters(morsels.size());
      std::vector<VectorStats> pvcounters(morsels.size());
      const Clock::time_point start = Clock::now();
      StatusOr<Table> out = ParallelBatchPipeline(
          ctx_, morsels.size(),
          [&](size_t i) -> StatusOr<vec::BatchOperatorPtr> {
            if (cold != nullptr)
              return vec::BatchOperatorPtr(
                  std::make_unique<storage::SegmentBatchScan>(
                      cold, predicate, morsels[i].begin, morsels[i].end,
                      &pcounters[i], &pvcounters[i]));
            return vec::BatchOperatorPtr(
                std::make_unique<vec::TableBatchScan>(
                    warm.get(), morsels[i].begin, morsels[i].end,
                    &pvcounters[i]));
          },
          [&](vec::BatchOperatorPtr src) -> StatusOr<vec::BatchOperatorPtr> {
            return LowerBatchStages(std::move(src), chain.stages,
                                    chain.stages.size(), manager, nullptr,
                                    nullptr, prob_base);
          });
      if (!out.ok()) return out.status();
      if (stats != nullptr) {
        StorageStats storage;
        for (const StorageStats& c : pcounters) storage.Merge(c);
        for (const VectorStats& v : pvcounters) vstats.Merge(v);
        if (cold != nullptr) {
          NodeStats* slot = ReportNode(stats, source,
                                       source->Label() + " (cold)",
                                       storage.rows_decoded,
                                       storage.decode_seconds);
          slot->open_calls = 1;
          stats->AddStorage(storage);
        } else {
          ReportNode(stats, source, source->Label(), rel->size(), 0.0);
        }
        ReportNode(stats, chain.exchange, chain.exchange->Label(),
                   out->rows.size(), SecondsSince(start));
      }
      merged = std::make_unique<Table>(std::move(*out));
      op = std::make_unique<vec::TableBatchScan>(merged.get(), nullptr);
    }
  }
  if (op == nullptr && cold != nullptr) {
    scan_stats = stats != nullptr
                     ? stats->AddNode(source->Label() + " (cold)")
                     : nullptr;
    if (scan_stats != nullptr) source->actual = scan_stats;
    op = std::make_unique<storage::SegmentBatchScan>(cold, predicate,
                                                     &counters, &vstats);
    op = LowerBatchStages(std::move(op), chain.stages, chain.stages.size(),
                          manager, &vstats, stats, prob_base);
  } else if (op == nullptr) {
    ReportNode(stats, source, source->Label(), rel->size(), 0.0);
    op = std::make_unique<vec::TableBatchScan>(warm.get(), &vstats);
    op = LowerBatchStages(std::move(op), chain.stages, chain.stages.size(),
                          manager, &vstats, stats, prob_base);
  }

  op = std::make_unique<vec::BatchHashAggregate>(
      std::move(op), std::move(plan->group_idx), std::move(items),
      std::move(out_schema), manager);
  if (stats != nullptr) {
    NodeStats* slot = stats->AddNode(node->Label() + " (vec)");
    node->actual = slot;
    op = vec::InstrumentBatch(slot, std::move(op));
  }
  const Table out = vec::MaterializeBatches(op.get(), &vstats);

  if (stats != nullptr) {
    if (scan_stats != nullptr) {
      scan_stats->rows = counters.rows_decoded;
      scan_stats->open_calls = 1;
      scan_stats->seconds = counters.decode_seconds;
      stats->AddStorage(counters);
    }
    stats->AddVector(vstats);
  }
  StatusOr<TPRelation> result =
      TPRelation::FromTable(rel->name() + "_agg", out, manager);
  if (!result.ok()) return result.status();
  return std::optional<EvalResult>(EvalResult{std::move(*result), nullptr});
}

}  // namespace tpdb
