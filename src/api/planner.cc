#include "api/planner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
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

}  // namespace

ProbEvalOptions BaseProbOptions(const PlannerOptions& options) {
  ProbEvalOptions prob;
  prob.max_circuit_nodes = options.prob_compile_budget;
  prob.mc_seed = options.prob_mc_seed;
  return prob;
}

/// One chain's execution state. Its rows between stages are materialized
/// (a warm source, a sort's output, a parallel region's ordered merge) or
/// a batch pipeline not yet pulled: batch stages pull them as batches, a
/// sort and the chain's consumer take them as a table. It also carries the
/// source's name and lineage manager and the counters the chain's
/// operators report into.
struct ChainRun {
  std::string name;
  LineageManager* manager = nullptr;
  std::unique_ptr<Table> table;
  vec::BatchOperatorPtr op;
  VectorStats vector;
  StorageStats storage;
  bool cold = false;
  /// `table` is a merge's or a sort's output, whose rows were already
  /// counted as scanned when the source was read.
  bool intermediate = false;
  NodeStats* cold_scan = nullptr;  ///< serial cold source, filled by Report

  vec::BatchOperatorPtr TakeBatches() {
    if (op == nullptr)
      return std::make_unique<vec::TableBatchScan>(
          std::move(table), intermediate ? nullptr : &vector);
    return std::move(op);
  }
  /// The rows as a table; `last` counts them as the chain's output.
  Table TakeTable(bool last) {
    VectorStats* emitted = last ? &vector : nullptr;
    if (op != nullptr) {
      const vec::BatchOperatorPtr pulled = std::move(op);
      return vec::MaterializeBatches(pulled.get(), emitted);
    }
    if (emitted != nullptr) emitted->rows_emitted += table->rows.size();
    return std::move(*table);
  }
  /// Publishes the counters once the chain's rows have been pulled.
  void Report(ExecStats* stats) const {
    if (stats == nullptr) return;
    if (cold_scan != nullptr) {
      cold_scan->rows = storage.rows_decoded;
      cold_scan->open_calls = 1;
      cold_scan->seconds = storage.decode_seconds;
    }
    if (cold) stats->AddStorage(storage);
    stats->AddVector(vector);
  }
};

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

Status Planner::RunChain(const ChainExec& chain, ChainRun* run,
                         ExecStats* stats) {
  PhysicalNode* source = chain.source;
  const ProbEvalOptions prob_base = BaseProbOptions(options_);
  const storage::SegmentedTable* cold =
      IsCatalogSource(*source) && source->cold
          ? source->rel->cold_storage().get()
          : nullptr;
  run->cold = cold != nullptr;
  if (IsCatalogSource(*source)) {
    run->name = source->rel->name();
    run->manager = source->rel->manager();
    if (cold == nullptr) {
      ReportNode(stats, source, source->Label(), source->rel->size(), 0.0);
      run->table = std::make_unique<Table>(source->rel->ToTable());
    }
  } else {
    StatusOr<EvalResult> base = ExecNode(source, stats);
    if (!base.ok()) return base.status();
    run->name = base->rel().name();
    run->manager = base->rel().manager();
    run->table = std::make_unique<Table>(base->rel().ToTable());
  }

  // The exchange's row-local prefix runs per morsel — whole segments of a
  // cold source, row ranges of a table — with an ordered merge, so the
  // merged table is the serial scan order. Zone-map pruning composes per
  // morsel, and the per-morsel counters merge into the run's.
  size_t next = 0;  // first stage not yet lowered
  const size_t input_rows =
      cold != nullptr ? cold->num_rows() : run->table->rows.size();
  if (chain.exchange != nullptr && ctx_ != nullptr &&
      ctx_->ShouldParallelize(input_rows)) {
    const std::vector<Morsel> morsels =
        cold != nullptr
            ? MakeMorsels(cold->segments().size(), 1,
                          static_cast<size_t>(ctx_->parallelism()) * 4)
            : MakeMorsels(input_rows, ctx_->options().morsel_size);
    if (morsels.size() >= 2) {
      std::vector<StorageStats> morsel_storage(morsels.size());
      std::vector<VectorStats> morsel_vector(morsels.size());
      const Table* table = run->table.get();
      const Clock::time_point start = Clock::now();
      StatusOr<Table> merged = ParallelBatchPipeline(
          ctx_, morsels.size(),
          [&](size_t i) -> StatusOr<vec::BatchOperatorPtr> {
            if (cold != nullptr)
              return vec::BatchOperatorPtr(
                  std::make_unique<storage::SegmentBatchScan>(
                      cold, source->scan_predicate, morsels[i].begin,
                      morsels[i].end, &morsel_storage[i], &morsel_vector[i]));
            return vec::BatchOperatorPtr(std::make_unique<vec::TableBatchScan>(
                table, morsels[i].begin, morsels[i].end, &morsel_vector[i]));
          },
          [&](vec::BatchOperatorPtr src) {
            return LowerBatchStages(std::move(src), chain.stages, 0,
                                    chain.parallel_prefix, run->manager,
                                    nullptr, nullptr, prob_base);
          });
      if (!merged.ok()) return merged.status();
      for (const StorageStats& c : morsel_storage) run->storage.Merge(c);
      for (const VectorStats& v : morsel_vector) run->vector.Merge(v);
      if (cold != nullptr)
        ReportNode(stats, source, source->Label() + " (cold)",
                   run->storage.rows_decoded, run->storage.decode_seconds);
      ReportNode(stats, chain.exchange, chain.exchange->Label(),
                 merged->rows.size(), SecondsSince(start));
      run->table = std::make_unique<Table>(std::move(*merged));
      run->intermediate = true;
      next = chain.parallel_prefix;
    }
  }
  if (cold != nullptr && next == 0) {
    // Serial cold read: the chunk-level batch scan streams the segments.
    if (stats != nullptr) {
      run->cold_scan = stats->AddNode(source->Label() + " (cold)");
      source->actual = run->cold_scan;
    }
    run->op = std::make_unique<storage::SegmentBatchScan>(
        cold, source->scan_predicate, &run->storage, &run->vector);
  }

  // The remaining stages: runs of batch stages, and sorts between them.
  while (next < chain.stages.size()) {
    PhysicalNode* stage = chain.stages[next];
    if (stage->op == PhysOp::kSort) {
      StatusOr<Table> sorted = SortTable(*stage, run->TakeTable(false),
                                         run->manager, stats, prob_base);
      if (!sorted.ok()) return sorted.status();
      run->table = std::make_unique<Table>(std::move(*sorted));
      run->intermediate = true;
      ++next;
      continue;
    }
    size_t last = next;
    while (last < chain.stages.size() &&
           chain.stages[last]->op != PhysOp::kSort)
      ++last;
    StatusOr<vec::BatchOperatorPtr> lowered =
        LowerBatchStages(run->TakeBatches(), chain.stages, next, last,
                         run->manager, &run->vector, stats, prob_base);
    if (!lowered.ok()) return lowered.status();
    run->op = std::move(*lowered);
    next = last;
  }
  return Status::OK();
}

StatusOr<Planner::EvalResult> Planner::ExecPipeline(PhysicalNode* top,
                                                    ExecStats* stats) {
  const ChainExec chain = CollectExecChain(top);

  // `ORDER BY _prob DESC LIMIT k` chains take the pruned top-k path when
  // they fit its shape (catalog source, row-local stages under the sort).
  {
    StatusOr<std::optional<EvalResult>> topk = ExecTopKProb(chain, stats);
    if (!topk.ok()) return topk.status();
    if (topk->has_value()) return std::move(**topk);
  }

  ChainRun run;
  TPDB_RETURN_IF_ERROR(RunChain(chain, &run, stats));
  const Table out = run.TakeTable(/*last=*/true);
  run.Report(stats);
  StatusOr<TPRelation> result =
      TPRelation::FromTable(run.name, out, run.manager);
  if (!result.ok()) return result.status();
  return EvalResult{std::move(*result), nullptr};
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

  // LIMIT 0 and an empty cold relation take the generic path, which still
  // validates the stages.
  const size_t k = static_cast<size_t>(sort->top_k);
  if (k == 0) return no_match;
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
    if (cold->segments().empty()) return no_match;
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

  // The running top k. Parity with SortTable's stable sort + Limit means
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
    // Stop once no remaining unit can beat the k-th kept probability.
    // Equality must keep scanning: a tying row with a smaller scan
    // position wins its tie-break.
    if (kept.size() == k && kept.front().prob > unit.upper) break;
    ++units_visited;

    vec::BatchOperatorPtr scan =
        cold != nullptr
            ? vec::BatchOperatorPtr(std::make_unique<storage::SegmentBatchScan>(
                  cold, source->scan_predicate, unit.segment,
                  unit.segment + 1, &counters))
            : vec::BatchOperatorPtr(
                  std::make_unique<vec::TableBatchScan>(warm.get()));
    StatusOr<vec::BatchOperatorPtr> op =
        LowerBatchStages(std::move(scan), chain.stages, 0, sort_idx, manager,
                         nullptr, nullptr, prob_base);
    if (!op.ok()) return op.status();
    (*op)->Open();
    size_t local = 0;
    while (const vec::ColumnBatch* batch = (*op)->NextBatch()) {
      const vec::ColumnVector& lin =
          batch->columns[static_cast<size_t>(lin_col)];
      for (size_t i = 0; i < batch->ActiveRows(); ++i) {
        // Filtering preserves relative order, so the pre-filter unit base
        // plus the post-filter local index ties rows exactly like the full
        // sort's stable scan order.
        const uint32_t r = batch->ActiveRow(i);
        const size_t seq = unit.seq_base + local++;
        const double prob = evaluator.Probability(lin.LineageAt(r));
        ++rows_evaluated;
        if (kept.size() == k && !better(Entry{prob, seq, {}}, kept.front()))
          continue;
        Row row;
        batch->DecodeRow(r, &row);
        kept.push_back(Entry{prob, seq, std::move(row)});
        std::push_heap(kept.begin(), kept.end(), better);
        if (kept.size() > k) {
          std::pop_heap(kept.begin(), kept.end(), better);
          kept.pop_back();
        }
      }
    }
    (*op)->Close();
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
  // The chain below streams its batches into the aggregate: a catalog
  // source as batch scans, a join / set-op / aggregate result flattened
  // into a table first.
  const ChainExec chain = CollectExecChain(node->children[0].get());
  ChainRun run;
  TPDB_RETURN_IF_ERROR(RunChain(chain, &run, stats));
  vec::BatchOperatorPtr op = run.TakeBatches();

  // Group/aggregate columns resolve against the fact prefix of the
  // flattened schema (the reserved columns sit at the end).
  StatusOr<AggPlan> plan =
      ResolveAggregatePlan(node->group_by, node->group_aliases,
                           node->aggregates, FactSchemaOf(op->schema()));
  if (!plan.ok()) return plan.status();
  std::vector<vec::BatchAggItem> items;
  items.reserve(node->aggregates.size());
  for (size_t j = 0; j < node->aggregates.size(); ++j)
    items.push_back(
        vec::BatchAggItem{MapAggFn(node->aggregates[j].fn), plan->agg_idx[j]});
  op = std::make_unique<vec::BatchHashAggregate>(
      std::move(op), std::move(plan->group_idx), std::move(items),
      FlattenFactSchema(Schema(std::move(plan->out_cols))), run.manager);
  if (stats != nullptr) {
    NodeStats* slot = stats->AddNode(node->Label() + " (vec)");
    node->actual = slot;
    op = vec::InstrumentBatch(slot, std::move(op));
  }
  const Table out = vec::MaterializeBatches(op.get(), &run.vector);
  run.Report(stats);
  StatusOr<TPRelation> result =
      TPRelation::FromTable(run.name + "_agg", out, run.manager);
  if (!result.ok()) return result.status();
  return EvalResult{std::move(*result), nullptr};
}

}  // namespace tpdb
