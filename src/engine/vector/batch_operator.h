// The batch-at-a-time operator protocol of the relational pipeline stages —
// the Volcano Open/Next/Close lifecycle, pulling a ColumnBatch per call
// instead of one row. A pipeline hands its rows to the row operators
// (sort, the TP joins) by materializing them into a Table
// (MaterializeBatches in engine/vector/batch_ops.h).
#ifndef TPDB_ENGINE_VECTOR_BATCH_OPERATOR_H_
#define TPDB_ENGINE_VECTOR_BATCH_OPERATOR_H_

#include <memory>

#include "engine/vector/column_batch.h"

namespace tpdb::vec {

/// A pull-based batch operator. Lifecycle: Open() once, NextBatch() until
/// it returns nullptr, Close() once. The returned batch stays valid until
/// the next NextBatch()/Close() call on this operator, so pass-through
/// operators (filter, limit) may forward the child's batch — possibly with
/// a narrowed selection vector — without copying any column data.
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  /// Output schema; valid before Open().
  virtual const Schema& schema() const = 0;

  virtual void Open() = 0;

  /// Produces the next batch, or nullptr at end of stream. Batches are
  /// never empty: operators that deselect every row of a batch pull on.
  virtual const ColumnBatch* NextBatch() = 0;

  virtual void Close() = 0;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

}  // namespace tpdb::vec

#endif  // TPDB_ENGINE_VECTOR_BATCH_OPERATOR_H_
