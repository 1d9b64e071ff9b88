// TableScan: leaf operator over a materialized table.
#ifndef TPDB_ENGINE_SCAN_H_
#define TPDB_ENGINE_SCAN_H_

#include "engine/operator.h"

namespace tpdb {

/// Scans an in-memory table. The table must outlive the operator.
/// NextRef() is the hot path: it indexes straight into the table's row
/// storage, so downstream pipelines pay no per-tuple copy for the scan.
class TableScan final : public Operator {
 public:
  explicit TableScan(const Table* table) : table_(table) {
    TPDB_CHECK(table != nullptr);
  }

  const Schema& schema() const override { return table_->schema; }
  void Open() override { pos_ = 0; }
  bool Next(Row* out) override {
    if (pos_ >= table_->rows.size()) return false;
    *out = table_->rows[pos_++];
    return true;
  }
  const Row* NextRef() override {
    if (pos_ >= table_->rows.size()) return nullptr;
    return &table_->rows[pos_++];
  }
  void Close() override {}

 private:
  const Table* table_;
  size_t pos_ = 0;
};

}  // namespace tpdb

#endif  // TPDB_ENGINE_SCAN_H_
