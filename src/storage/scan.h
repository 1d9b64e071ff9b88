// Cold scans over a SegmentedTable. Both consult each segment's zone map
// against the pushed-down predicate before decoding anything —
// non-overlapping time ranges, out-of-bounds numeric ranges and
// sub-threshold probability segments are skipped whole.
// SegmentBatchScan, the engine's cold read path, serves column views of
// the surviving chunks; SegmentScan decodes them into rows one segment at
// a time (bounded memory) for callers that read rows.
//
// Pruning is conservative: a segment is skipped only when its zone map
// proves no row can satisfy the predicate, so the (still applied)
// downstream filter sees exactly the rows it would have seen without
// pruning.
#ifndef TPDB_STORAGE_SCAN_H_
#define TPDB_STORAGE_SCAN_H_

#include <limits>
#include <string>
#include <vector>

#include "engine/explain.h"
#include "engine/operator.h"
#include "engine/vector/batch_operator.h"
#include "storage/segment.h"

namespace tpdb::storage {

/// A conjunctive per-column range: lo {<,<=} value {<,<=} hi.
struct ScanRange {
  double lo = -std::numeric_limits<double>::infinity();
  bool lo_strict = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_strict = false;
};

/// The fragment of a query predicate a scan can prune on: conjunctive
/// numeric column ranges (including _ts/_te time bounds) plus a lineage
/// probability threshold. Anything the planner cannot express here simply
/// stays out — the scan then prunes less but never wrongly. Callers
/// setting `min_prob` directly must hold the invariant the planner
/// enforces: the manager's probability_epoch() still equals the
/// SegmentedTable's (zone-map max_prob is snapshot-time data).
struct ScanPredicate {
  std::vector<std::pair<std::string, ScanRange>> column_ranges;
  double min_prob = 0.0;
  bool min_prob_strict = false;

  /// Tightens the range of `column` with `value` as a new lower bound.
  void AddLowerBound(const std::string& column, double value, bool strict);
  /// Tightens the range of `column` with `value` as a new upper bound.
  void AddUpperBound(const std::string& column, double value, bool strict);
  /// Equality pins both bounds.
  void AddEquals(const std::string& column, double value);
  /// Keeps the strongest probability threshold.
  void AddMinProb(double min_prob, bool strict);

  bool Empty() const {
    return column_ranges.empty() && min_prob <= 0.0 && !min_prob_strict;
  }

  /// "key in [3, 7) AND prob >= 0.5" rendering for Explain's physical tree.
  std::string ToString() const;

 private:
  ScanRange* RangeOf(const std::string& column);
};

/// True iff `segment`'s zone map admits at least one row satisfying
/// `predicate` (column names resolved against `schema`).
bool SegmentMayMatch(const Segment& segment, const Schema& schema,
                     const ScanPredicate& predicate);

/// Compressed-domain pruning: true iff every packed int64 chunk named by
/// `predicate` admits at least one row, judged by the exact min/max in the
/// chunk's block header — sharper than the zone map's ulp-widened double
/// bounds (e.g. `x > exact_max` prunes here but not there), and still
/// without decompressing a single value.
bool CompressedChunksMayMatch(const Segment& segment, const Schema& schema,
                              const ScanPredicate& predicate);

/// Zone-map cardinality estimate: total rows of the segments `predicate`
/// cannot prune (zone map and compressed-domain checks both applied). The
/// mode-selection pass costs cold scans with this (an upper bound on the
/// rows the scan will decode — pruning is conservative, the per-row filter
/// still runs above).
size_t EstimateScanRows(const SegmentedTable& table,
                        const ScanPredicate& predicate);

/// Relative per-row decode cost of the segments `predicate` leaves alive:
/// 1.0 for fully plain (zero-copy) segments, growing with the fraction of
/// their bytes that must be decompressed first. The mode-selection pass
/// multiplies this into its cold-scan cost units.
double EstimateDecodeFactor(const SegmentedTable& table,
                            const ScanPredicate& predicate);

/// Leaf operator over a SegmentedTable. The table (and its mapping) must
/// outlive the operator; `stats` (optional) accumulates scan counters.
class SegmentScan final : public Operator {
 public:
  SegmentScan(const SegmentedTable* table, ScanPredicate predicate,
              StorageStats* stats = nullptr);

  const Schema& schema() const override { return table_->schema(); }
  void Open() override;
  bool Next(Row* out) override;
  const Row* NextRef() override;
  void Close() override;

 private:
  /// Prunes/decodes segments until one yields rows or input is exhausted.
  bool FillBuffer();

  const SegmentedTable* table_;
  ScanPredicate predicate_;
  StorageStats* stats_;
  size_t next_segment_ = 0;
  size_t buffer_pos_ = 0;
  std::vector<Row> buffer_;
  ChunkStorage storage_;  ///< scratch for decompressing packed chunks
};

/// Chunk-level batch scan: the engine's cold read path. Serves
/// ColumnBatches of up to vec::kBatchRows rows whose column vectors view
/// the mapped segment chunks directly — no per-row materialization at all;
/// downstream batch filters only narrow the selection vector. Zone-map
/// pruning composes unchanged (the same SegmentMayMatch check as the row
/// scan, against the same pushed-down predicate).
///
/// The segment-range form scans only segments [seg_begin, seg_end) — the
/// morsel unit of the parallel batch driver (concatenating per-range
/// outputs in range order reproduces the full scan's row order exactly)
/// and the unit the probability top-k path visits in zone-map upper-bound
/// order.
class SegmentBatchScan final : public vec::BatchOperator {
 public:
  SegmentBatchScan(const SegmentedTable* table, ScanPredicate predicate,
                   StorageStats* stats = nullptr,
                   VectorStats* vstats = nullptr);
  SegmentBatchScan(const SegmentedTable* table, ScanPredicate predicate,
                   size_t seg_begin, size_t seg_end,
                   StorageStats* stats = nullptr,
                   VectorStats* vstats = nullptr);

  const Schema& schema() const override { return table_->schema(); }
  void Open() override;
  const vec::ColumnBatch* NextBatch() override;
  void Close() override {}

 private:
  const SegmentedTable* table_;
  ScanPredicate predicate_;
  size_t seg_begin_;
  size_t seg_end_;
  StorageStats* stats_;
  VectorStats* vstats_;
  size_t segment_ = 0;  ///< current segment index
  size_t row_ = 0;      ///< next row within the current segment
  vec::ColumnBatch batch_;
  /// Chunk views of the current segment, packed chunks decompressed into
  /// `storage_` on the segment's first visit; batches view these until the
  /// segment is exhausted.
  std::vector<const ColumnChunk*> views_;
  ChunkStorage storage_;
};

}  // namespace tpdb::storage

#endif  // TPDB_STORAGE_SCAN_H_
