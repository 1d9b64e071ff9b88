// Batch implementations of the relational pipeline stages: table scan,
// filter, project, probability threshold, limit, and hash aggregate.
// Filters and thresholds narrow the selection vector instead of copying
// rows; project re-views the child's columns; the aggregate reads only the
// columns it actually needs. Every operator keeps its input's row order,
// so a pipeline's output order is its source's scan order.
#ifndef TPDB_ENGINE_VECTOR_BATCH_OPS_H_
#define TPDB_ENGINE_VECTOR_BATCH_OPS_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/explain.h"
#include "engine/vector/batch_operator.h"
#include "engine/vector/predicate.h"
#include "lineage/compile/prob_eval.h"

namespace tpdb {
class LineageManager;
}  // namespace tpdb

namespace tpdb::vec {

/// Leaf over an in-memory table (or a morsel of one): transposes runs of
/// kBatchRows rows into typed column vectors.
class TableBatchScan final : public BatchOperator {
 public:
  explicit TableBatchScan(const Table* table, VectorStats* stats = nullptr)
      : TableBatchScan(table, 0, std::numeric_limits<size_t>::max(), stats) {}
  TableBatchScan(const Table* table, size_t begin, size_t end,
                 VectorStats* stats = nullptr);
  /// Scans a table it owns (a materialized intermediate result).
  explicit TableBatchScan(std::unique_ptr<Table> table,
                          VectorStats* stats = nullptr)
      : TableBatchScan(table.get(), stats) {
    owned_ = std::move(table);
  }

  const Schema& schema() const override { return table_->schema; }
  void Open() override { pos_ = begin_; }
  const ColumnBatch* NextBatch() override;
  void Close() override {}

 private:
  std::unique_ptr<Table> owned_;
  const Table* table_;
  size_t begin_;
  size_t end_;
  size_t pos_;
  VectorStats* stats_;
  ColumnBatch batch_;
};

/// σ — evaluates the compiled predicate over the active rows and keeps the
/// truthy ones in the selection vector. Batches whose rows all survive are
/// forwarded untouched; fully-deselected batches are skipped.
class BatchFilter final : public BatchOperator {
 public:
  BatchFilter(BatchOperatorPtr child, VectorExprPtr predicate,
              VectorStats* stats = nullptr);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override { child_->Open(); }
  const ColumnBatch* NextBatch() override;
  void Close() override { child_->Close(); }

 private:
  BatchOperatorPtr child_;
  VectorExprPtr predicate_;
  VectorStats* stats_;
  ColumnBatch out_;
  std::vector<int8_t> truth_;
};

/// π — re-views the selected columns of the child's batch (no data moves).
class BatchProject final : public BatchOperator {
 public:
  BatchProject(BatchOperatorPtr child, std::vector<int> indices,
               std::vector<std::string> names = {});

  const Schema& schema() const override { return schema_; }
  void Open() override { child_->Open(); }
  const ColumnBatch* NextBatch() override;
  void Close() override { child_->Close(); }

 private:
  BatchOperatorPtr child_;
  std::vector<int> indices_;
  Schema schema_;
  ColumnBatch out_;
};

/// WITH PROB — deselects rows whose lineage probability misses the
/// threshold. Probabilities run through the evaluation ladder
/// (lineage/compile/prob_eval.h): memo, then decomposition and Shannon
/// expansion, sampled only when the expansion budget runs out — to the
/// stage's `APPROX(eps, delta)` if it has one.
class BatchProbThreshold final : public BatchOperator {
 public:
  /// `methods_out`, when given, receives the ProbMethod bitmask of the
  /// rungs used (fetch_or via atomic_ref in Close — several parallel
  /// instances may share the target).
  BatchProbThreshold(BatchOperatorPtr child, LineageManager* manager,
                     double threshold, bool strict,
                     VectorStats* stats = nullptr,
                     ProbEvalOptions prob_opts = {},
                     uint8_t* methods_out = nullptr);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override { child_->Open(); }
  const ColumnBatch* NextBatch() override;
  void Close() override;

 private:
  BatchOperatorPtr child_;
  double threshold_;
  bool strict_;
  int lin_col_;
  VectorStats* stats_;
  ProbabilityEvaluator evaluator_;
  uint8_t* methods_out_;
  ColumnBatch out_;
};

/// LIMIT / OFFSET over active rows (selection-aware).
class BatchLimit final : public BatchOperator {
 public:
  BatchLimit(BatchOperatorPtr child, size_t limit, size_t offset = 0,
             VectorStats* stats = nullptr);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override {
    child_->Open();
    skipped_ = 0;
    emitted_ = 0;
  }
  const ColumnBatch* NextBatch() override;
  void Close() override { child_->Close(); }

 private:
  BatchOperatorPtr child_;
  size_t limit_;
  size_t offset_;
  VectorStats* stats_;
  size_t skipped_ = 0;
  size_t emitted_ = 0;
  ColumnBatch out_;
};

/// Aggregate functions of the batch hash aggregate (mirrors api AggFn).
enum class BatchAggFn { kCount, kSum, kMin, kMax };

/// One aggregate: function + source column (-1 = COUNT(*)).
struct BatchAggItem {
  BatchAggFn fn = BatchAggFn::kCount;
  int col = -1;
};

/// Grouped aggregation over the flattened layout (facts ++ _ts ++ _te ++
/// _lin): groups on `group_by` columns, accumulates `aggs`, and emits one
/// row per group — key columns, aggregate columns, then the group's
/// interval span and the disjunction of its tuples' lineages — in
/// ascending key order. It is the engine's only GROUP BY.
class BatchHashAggregate final : public BatchOperator {
 public:
  /// `output` is the flattened output schema (group cols ++ agg cols ++
  /// _ts/_te/_lin); the child's schema must carry the reserved columns.
  BatchHashAggregate(BatchOperatorPtr child, std::vector<int> group_by,
                     std::vector<BatchAggItem> aggs, Schema output,
                     LineageManager* manager);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  const ColumnBatch* NextBatch() override;
  void Close() override;

 private:
  void Build();

  BatchOperatorPtr child_;
  std::vector<int> group_by_;
  std::vector<BatchAggItem> aggs_;
  Schema schema_;
  LineageManager* manager_;
  bool built_ = false;
  std::vector<Row> out_rows_;
  size_t pos_ = 0;
  ColumnBatch batch_;
};

/// Runs `op` (Open/NextBatch*/Close) and materializes the active rows, in
/// selection order, into a Table. Counts emitted rows into `stats`.
Table MaterializeBatches(BatchOperator* op, VectorStats* stats = nullptr);

/// Wraps `child`, counting emitted rows/batches and timing NextBatch into
/// a fresh node of `stats` (the batch counterpart of engine/explain's
/// Instrument).
BatchOperatorPtr InstrumentBatch(std::string label, BatchOperatorPtr child,
                                 ExecStats* stats);

/// Same, reporting into a pre-registered node — used by the physical-plan
/// executors, which share one NodeStats slot between a plan node and its
/// lowered operator.
BatchOperatorPtr InstrumentBatch(NodeStats* node, BatchOperatorPtr child);

}  // namespace tpdb::vec

#endif  // TPDB_ENGINE_VECTOR_BATCH_OPS_H_
