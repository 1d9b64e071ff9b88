#include "engine/vector/batch_ops.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "lineage/probability.h"
#include "tp/tp_relation.h"

namespace tpdb::vec {

TableBatchScan::TableBatchScan(const Table* table, size_t begin, size_t end,
                               VectorStats* stats)
    : table_(table), begin_(begin), end_(end), pos_(begin), stats_(stats) {
  TPDB_CHECK(table_ != nullptr);
  TPDB_CHECK_LE(begin_, end_);
}

const ColumnBatch* TableBatchScan::NextBatch() {
  const size_t limit = std::min(end_, table_->rows.size());
  if (pos_ >= limit) return nullptr;
  const size_t n = std::min(kBatchRows, limit - pos_);
  TransposeRows(table_->rows, pos_, pos_ + n, &batch_);
  pos_ += n;
  if (stats_ != nullptr) {
    ++stats_->batches;
    stats_->rows_scanned += n;
  }
  return &batch_;
}

BatchFilter::BatchFilter(BatchOperatorPtr child, VectorExprPtr predicate,
                         VectorStats* stats)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      stats_(stats) {
  TPDB_CHECK(child_ != nullptr);
  TPDB_CHECK(predicate_ != nullptr);
}

const ColumnBatch* BatchFilter::NextBatch() {
  while (const ColumnBatch* in = child_->NextBatch()) {
    const size_t n = in->ActiveRows();
    if (n == 0) continue;
    truth_.resize(n);
    predicate_->EvalTruth(*in, in->sel_all ? nullptr : in->sel.data(), n,
                          truth_.data());
    size_t survivors = 0;
    for (size_t i = 0; i < n; ++i) survivors += truth_[i] == kTrue;
    if (survivors == n) return in;  // untouched pass-through
    if (stats_ != nullptr) stats_->rows_pruned += n - survivors;
    if (survivors == 0) continue;
    out_.AssignView(*in);
    out_.sel_all = false;
    out_.sel.clear();
    out_.sel.reserve(survivors);
    for (size_t i = 0; i < n; ++i)
      if (truth_[i] == kTrue) out_.sel.push_back(in->ActiveRow(i));
    return &out_;
  }
  return nullptr;
}

BatchProject::BatchProject(BatchOperatorPtr child, std::vector<int> indices,
                           std::vector<std::string> names)
    : child_(std::move(child)), indices_(std::move(indices)) {
  TPDB_CHECK(child_ != nullptr);
  const Schema& in = child_->schema();
  TPDB_CHECK(names.empty() || names.size() == indices_.size())
      << "rename list must match projection list";
  std::vector<Column> cols;
  cols.reserve(indices_.size());
  for (size_t i = 0; i < indices_.size(); ++i) {
    const int idx = indices_[i];
    TPDB_CHECK_GE(idx, 0);
    TPDB_CHECK_LT(static_cast<size_t>(idx), in.num_columns());
    Column c = in.column(static_cast<size_t>(idx));
    if (!names.empty()) c.name = names[i];
    cols.push_back(std::move(c));
  }
  schema_ = Schema(std::move(cols));
}

const ColumnBatch* BatchProject::NextBatch() {
  const ColumnBatch* in = child_->NextBatch();
  if (in == nullptr) return nullptr;
  out_.num_rows = in->num_rows;
  out_.columns.clear();
  out_.columns.reserve(indices_.size());
  for (const int idx : indices_)
    out_.columns.push_back(in->columns[static_cast<size_t>(idx)].View());
  out_.sel_all = in->sel_all;
  out_.sel = in->sel;
  return &out_;
}

BatchProbThreshold::BatchProbThreshold(BatchOperatorPtr child,
                                       LineageManager* manager,
                                       double threshold, bool strict,
                                       VectorStats* stats,
                                       ProbEvalOptions prob_opts,
                                       uint8_t* methods_out)
    : child_(std::move(child)),
      threshold_(threshold),
      strict_(strict),
      stats_(stats),
      evaluator_(manager, prob_opts),
      methods_out_(methods_out) {
  TPDB_CHECK(child_ != nullptr);
  TPDB_CHECK(manager != nullptr);
  lin_col_ = child_->schema().IndexOf(kLineageColumn);
  TPDB_CHECK_GE(lin_col_, 0);
}

void BatchProbThreshold::Close() {
  child_->Close();
  if (methods_out_ != nullptr) {
    std::atomic_ref<uint8_t>(*methods_out_)
        .fetch_or(evaluator_.methods_used(), std::memory_order_relaxed);
  }
}

const ColumnBatch* BatchProbThreshold::NextBatch() {
  while (const ColumnBatch* in = child_->NextBatch()) {
    const size_t n = in->ActiveRows();
    if (n == 0) continue;
    const ColumnVector& lin = in->columns[static_cast<size_t>(lin_col_)];
    out_.sel.clear();
    out_.sel.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = in->ActiveRow(i);
      const double p = evaluator_.Probability(lin.LineageAt(r));
      if (strict_ ? p > threshold_ : p >= threshold_) out_.sel.push_back(r);
    }
    if (out_.sel.size() == n) return in;
    if (stats_ != nullptr) stats_->rows_pruned += n - out_.sel.size();
    if (out_.sel.empty()) continue;
    std::vector<uint32_t> sel = std::move(out_.sel);
    out_.AssignView(*in);
    out_.sel_all = false;
    out_.sel = std::move(sel);
    return &out_;
  }
  return nullptr;
}

BatchLimit::BatchLimit(BatchOperatorPtr child, size_t limit, size_t offset,
                       VectorStats* stats)
    : child_(std::move(child)), limit_(limit), offset_(offset),
      stats_(stats) {
  TPDB_CHECK(child_ != nullptr);
}

const ColumnBatch* BatchLimit::NextBatch() {
  if (emitted_ >= limit_) return nullptr;
  while (const ColumnBatch* in = child_->NextBatch()) {
    const size_t n = in->ActiveRows();
    if (n == 0) continue;
    size_t start = 0;
    if (skipped_ < offset_) {
      start = std::min(offset_ - skipped_, n);
      skipped_ += start;
      if (stats_ != nullptr) stats_->rows_pruned += start;
      if (start == n) continue;
    }
    const size_t take = std::min(limit_ - emitted_, n - start);
    emitted_ += take;
    if (start == 0 && take == n) return in;
    if (stats_ != nullptr) stats_->rows_pruned += n - start - take;
    out_.AssignView(*in);
    out_.sel_all = false;
    out_.sel.clear();
    out_.sel.reserve(take);
    for (size_t i = start; i < start + take; ++i)
      out_.sel.push_back(in->ActiveRow(i));
    return &out_;
  }
  return nullptr;
}

BatchHashAggregate::BatchHashAggregate(BatchOperatorPtr child,
                                       std::vector<int> group_by,
                                       std::vector<BatchAggItem> aggs,
                                       Schema output, LineageManager* manager)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      schema_(std::move(output)),
      manager_(manager) {
  TPDB_CHECK(child_ != nullptr);
  TPDB_CHECK(manager_ != nullptr);
}

void BatchHashAggregate::Open() {
  child_->Open();
  built_ = false;
  out_rows_.clear();
  pos_ = 0;
}

void BatchHashAggregate::Close() {
  child_->Close();
  out_rows_.clear();
  out_rows_.shrink_to_fit();
  built_ = false;
}

void BatchHashAggregate::Build() {
  // Lineages are OR-ed in input order and groups are emitted in ascending
  // key order, so one input order gives one result, bit for bit.
  const Schema& in = child_->schema();
  const int ts_col = in.IndexOf(kTsColumn);
  const int te_col = in.IndexOf(kTeColumn);
  const int lin_col = in.IndexOf(kLineageColumn);
  TPDB_CHECK(ts_col >= 0 && te_col >= 0 && lin_col >= 0)
      << "aggregate input lacks the reserved columns";

  struct Group {
    std::vector<Datum> acc;  // one slot per aggregate (count as int64)
    TimePoint min_ts = 0;
    TimePoint max_te = 0;
    std::vector<LineageRef> lineages;
  };
  // Hash grouping with a sorted emit: O(1) probes per row, ascending-key
  // output order.
  struct RowHashFn {
    size_t operator()(const Row& row) const {
      uint64_t h = 1469598103934665603ull;  // FNV-1a over datum hashes
      for (const Datum& d : row) h = (h ^ d.Hash()) * 1099511628211ull;
      return static_cast<size_t>(h);
    }
  };
  struct RowEqFn {
    bool operator()(const Row& a, const Row& b) const {
      return CompareRows(a, b) == 0;
    }
  };
  std::unordered_map<Row, Group, RowHashFn, RowEqFn> groups;

  Row key;  // reused across rows; copied into the map only on insert
  while (const ColumnBatch* batch = child_->NextBatch()) {
    const ColumnVector& ts = batch->columns[static_cast<size_t>(ts_col)];
    const ColumnVector& te = batch->columns[static_cast<size_t>(te_col)];
    const ColumnVector& lin = batch->columns[static_cast<size_t>(lin_col)];
    // Interval endpoints are int64 in every valid relation; read the raw
    // span when the batch is typed (cold chunks, transposed tables).
    const bool ts_typed = ts.rep == ColumnVector::Rep::kInt64;
    const bool te_typed = te.rep == ColumnVector::Rep::kInt64;
    const size_t n = batch->ActiveRows();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = batch->ActiveRow(i);
      key.clear();
      for (const int idx : group_by_)
        key.push_back(batch->columns[static_cast<size_t>(idx)].ValueAt(r));
      auto [it, inserted] = groups.try_emplace(key);
      Group& g = it->second;
      const TimePoint row_ts = ts_typed ? ts.ints[r] : ts.ValueAt(r).AsInt64();
      const TimePoint row_te = te_typed ? te.ints[r] : te.ValueAt(r).AsInt64();
      if (inserted) {
        g.acc.assign(aggs_.size(), Datum::Null());
        g.min_ts = row_ts;
        g.max_te = row_te;
      } else {
        g.min_ts = std::min(g.min_ts, row_ts);
        g.max_te = std::max(g.max_te, row_te);
      }
      g.lineages.push_back(lin.LineageAt(r));
      for (size_t j = 0; j < aggs_.size(); ++j) {
        const BatchAggItem& item = aggs_[j];
        Datum value_storage;
        const Datum* value = nullptr;
        if (item.col >= 0) {
          value_storage =
              batch->columns[static_cast<size_t>(item.col)].ValueAt(r);
          value = &value_storage;
        }
        switch (item.fn) {
          case BatchAggFn::kCount: {
            if (value != nullptr && value->is_null()) break;
            const int64_t so_far =
                g.acc[j].is_null() ? 0 : g.acc[j].AsInt64();
            g.acc[j] = Datum(so_far + 1);
            break;
          }
          case BatchAggFn::kSum: {
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
          case BatchAggFn::kMin:
            if (!value->is_null() &&
                (g.acc[j].is_null() || *value < g.acc[j]))
              g.acc[j] = *value;
            break;
          case BatchAggFn::kMax:
            if (!value->is_null() &&
                (g.acc[j].is_null() || g.acc[j] < *value))
              g.acc[j] = *value;
            break;
        }
      }
    }
  }

  std::vector<std::pair<const Row*, Group*>> ordered;
  ordered.reserve(groups.size());
  for (auto& [group_key, g] : groups) ordered.emplace_back(&group_key, &g);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return CompareRows(*a.first, *b.first) < 0;
            });
  out_rows_.reserve(groups.size());
  for (auto& [key_ptr, g_ptr] : ordered) {
    Group& g = *g_ptr;
    Row row = *key_ptr;
    row.reserve(schema_.num_columns());
    for (size_t j = 0; j < aggs_.size(); ++j) {
      if (aggs_[j].fn == BatchAggFn::kCount && g.acc[j].is_null())
        g.acc[j] = Datum(static_cast<int64_t>(0));
      row.push_back(std::move(g.acc[j]));
    }
    row.push_back(Datum(g.min_ts));
    row.push_back(Datum(g.max_te));
    row.push_back(Datum(manager_->OrAll(g.lineages)));
    out_rows_.push_back(std::move(row));
  }
}

const ColumnBatch* BatchHashAggregate::NextBatch() {
  if (!built_) {
    Build();
    built_ = true;
    pos_ = 0;
  }
  if (pos_ >= out_rows_.size()) return nullptr;
  const size_t n = std::min(kBatchRows, out_rows_.size() - pos_);
  TransposeRows(out_rows_, pos_, pos_ + n, &batch_);
  pos_ += n;
  return &batch_;
}

Table MaterializeBatches(BatchOperator* op, VectorStats* stats) {
  Table out;
  out.schema = op->schema();
  op->Open();
  while (const ColumnBatch* batch = op->NextBatch()) {
    const size_t n = batch->ActiveRows();
    out.rows.reserve(out.rows.size() + n);
    for (size_t i = 0; i < n; ++i) {
      Row row;
      batch->DecodeRow(batch->ActiveRow(i), &row);
      out.rows.push_back(std::move(row));
    }
    if (stats != nullptr) stats->rows_emitted += n;
  }
  op->Close();
  return out;
}

namespace {

class InstrumentedBatchOperator final : public BatchOperator {
 public:
  InstrumentedBatchOperator(BatchOperatorPtr child, NodeStats* stats)
      : child_(std::move(child)), stats_(stats) {
    TPDB_CHECK(child_ != nullptr);
    TPDB_CHECK(stats_ != nullptr);
  }

  const Schema& schema() const override { return child_->schema(); }

  void Open() override {
    ++stats_->open_calls;
    child_->Open();
  }

  const ColumnBatch* NextBatch() override {
    const auto start = std::chrono::steady_clock::now();
    const ColumnBatch* batch = child_->NextBatch();
    stats_->seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (batch != nullptr) stats_->rows += batch->ActiveRows();
    return batch;
  }

  void Close() override { child_->Close(); }

 private:
  BatchOperatorPtr child_;
  NodeStats* stats_;
};

}  // namespace

BatchOperatorPtr InstrumentBatch(std::string label, BatchOperatorPtr child,
                                 ExecStats* stats) {
  TPDB_CHECK(stats != nullptr);
  return std::make_unique<InstrumentedBatchOperator>(
      std::move(child), stats->AddNode(std::move(label)));
}

BatchOperatorPtr InstrumentBatch(NodeStats* node, BatchOperatorPtr child) {
  return std::make_unique<InstrumentedBatchOperator>(std::move(child), node);
}

}  // namespace tpdb::vec
