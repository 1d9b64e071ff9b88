#include "storage/scan.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "engine/schema.h"
#include "obs/metrics.h"
#include "tp/tp_relation.h"

namespace tpdb::storage {

namespace {

/// Process-wide cold-read metrics, mirrored from the per-query
/// StorageStats counters at the same sites (the per-query view feeds
/// Explain; these feed the cumulative registry).
struct ScanMetrics {
  obs::Counter* segments_scanned = obs::MetricsRegistry::Default().counter(
      "tpdb_storage_segments_scanned_total", "storage",
      "Cold segments decoded by scans.");
  obs::Counter* segments_pruned = obs::MetricsRegistry::Default().counter(
      "tpdb_storage_segments_pruned_total", "storage",
      "Cold segments pruned by zone maps (never decoded).");
  obs::Counter* chunks_pruned_compressed =
      obs::MetricsRegistry::Default().counter(
          "tpdb_storage_chunks_pruned_compressed_total", "storage",
          "Segments rejected by packed-chunk min/max without decompression.");
  obs::Counter* rows_decoded = obs::MetricsRegistry::Default().counter(
      "tpdb_storage_rows_decoded_total", "storage",
      "Rows decoded from cold segments.");
  obs::Histogram* decode_us = obs::MetricsRegistry::Default().histogram(
      "tpdb_storage_segment_decode_us", "storage",
      "Per-segment decode (materialize) time in microseconds.");

  static const ScanMetrics& Get() {
    static const ScanMetrics m;
    return m;
  }
};

}  // namespace

ScanRange* ScanPredicate::RangeOf(const std::string& column) {
  for (auto& [name, range] : column_ranges)
    if (name == column) return &range;
  column_ranges.emplace_back(column, ScanRange{});
  return &column_ranges.back().second;
}

void ScanPredicate::AddLowerBound(const std::string& column, double value,
                                  bool strict) {
  ScanRange* range = RangeOf(column);
  if (value > range->lo || (value == range->lo && strict)) {
    range->lo = value;
    range->lo_strict = strict;
  }
}

void ScanPredicate::AddUpperBound(const std::string& column, double value,
                                  bool strict) {
  ScanRange* range = RangeOf(column);
  if (value < range->hi || (value == range->hi && strict)) {
    range->hi = value;
    range->hi_strict = strict;
  }
}

void ScanPredicate::AddEquals(const std::string& column, double value) {
  AddLowerBound(column, value, /*strict=*/false);
  AddUpperBound(column, value, /*strict=*/false);
}

void ScanPredicate::AddMinProb(double min_prob, bool strict) {
  if (min_prob > this->min_prob ||
      (min_prob == this->min_prob && strict)) {
    this->min_prob = min_prob;
    this->min_prob_strict = strict;
  }
}

std::string ScanPredicate::ToString() const {
  std::string out;
  for (const auto& [name, range] : column_ranges) {
    if (!out.empty()) out += " AND ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s in %s%g, %g%s", name.c_str(),
                  range.lo_strict ? "(" : "[", range.lo, range.hi,
                  range.hi_strict ? ")" : "]");
    out += buf;
  }
  if (min_prob > 0.0 || min_prob_strict) {
    if (!out.empty()) out += " AND ";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "prob %s %g", min_prob_strict ? ">" : ">=",
                  min_prob);
    out += buf;
  }
  return out;
}

size_t EstimateScanRows(const SegmentedTable& table,
                        const ScanPredicate& predicate) {
  size_t rows = 0;
  for (const Segment& segment : table.segments())
    if (SegmentMayMatch(segment, table.schema(), predicate) &&
        CompressedChunksMayMatch(segment, table.schema(), predicate))
      rows += segment.num_rows;
  return rows;
}

double EstimateDecodeFactor(const SegmentedTable& table,
                            const ScanPredicate& predicate) {
  size_t encoded = 0, packed = 0;
  for (const Segment& segment : table.segments()) {
    if (!SegmentMayMatch(segment, table.schema(), predicate) ||
        !CompressedChunksMayMatch(segment, table.schema(), predicate))
      continue;
    encoded += segment.encoded_bytes;
    packed += segment.packed_bytes;
  }
  if (encoded == 0) return 1.0;
  return 1.0 + 0.5 * (static_cast<double>(packed) /
                      static_cast<double>(encoded));
}

namespace {

/// Conservative intersection test of a double predicate range against the
/// exact int64 bounds of a packed block. Bound conversion rounds toward
/// the range's interior (ceil/floor); the ±1 strict-inequality tightening
/// only applies where doubles represent integers exactly, so the test can
/// under-prune but never over-prune.
bool IntRangeMayMatch(const ScanRange& range, int64_t vmin, int64_t vmax) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63
  constexpr double kExactInts = 9007199254740992.0;  // 2^53
  if (std::isfinite(range.lo)) {
    double c = std::ceil(range.lo);
    if (range.lo_strict && c == range.lo && std::fabs(c) < kExactInts)
      c += 1.0;
    if (c >= kTwo63) return false;  // lower bound above every int64
    const int64_t lo =
        c <= -kTwo63 ? std::numeric_limits<int64_t>::min()
                     : static_cast<int64_t>(c);
    if (vmax < lo) return false;
  }
  if (std::isfinite(range.hi)) {
    double f = std::floor(range.hi);
    if (range.hi_strict && f == range.hi && std::fabs(f) < kExactInts)
      f -= 1.0;
    if (f < -kTwo63) return false;  // upper bound below every int64
    const int64_t hi =
        f >= kTwo63 ? std::numeric_limits<int64_t>::max()
                    : static_cast<int64_t>(f);
    if (vmin > hi) return false;
  }
  return true;
}

}  // namespace

bool CompressedChunksMayMatch(const Segment& segment, const Schema& schema,
                              const ScanPredicate& predicate) {
  for (const auto& [column, range] : predicate.column_ranges) {
    const int idx = schema.IndexOf(column);
    if (idx < 0 || static_cast<size_t>(idx) >= segment.chunks.size())
      continue;
    const ColumnChunk& chunk = segment.chunks[static_cast<size_t>(idx)];
    // Only packed int64 chunks carry value-ordered exact bounds
    // (dictionary code bounds say nothing about the strings they stand
    // for). NULL placeholders inside the block only widen [min, max] —
    // widening never prunes a live row.
    if (chunk.encoding != ColumnEncoding::kPackedInt64) continue;
    if (!IntRangeMayMatch(range, chunk.block.min, chunk.block.max))
      return false;
  }
  return true;
}

bool SegmentMayMatch(const Segment& segment, const Schema& schema,
                     const ScanPredicate& predicate) {
  const ZoneMap& zone = segment.zone;
  if (predicate.min_prob_strict ? zone.max_prob <= predicate.min_prob
                                : zone.max_prob < predicate.min_prob)
    return false;
  for (const auto& [column, range] : predicate.column_ranges) {
    // The dedicated temporal bounds hold even when a column's generic
    // min/max is unavailable: every _ts is >= ts_min, every _te <= te_max
    // (widened one ulp so the int64→double conversion stays conservative).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (column == kTsColumn) {
      const double ts_min =
          std::nextafter(static_cast<double>(zone.ts_min), -kInf);
      if (range.hi < ts_min || (range.hi_strict && range.hi == ts_min))
        return false;
    }
    if (column == kTeColumn) {
      const double te_max =
          std::nextafter(static_cast<double>(zone.te_max), kInf);
      if (range.lo > te_max || (range.lo_strict && range.lo == te_max))
        return false;
    }
    const int idx = schema.IndexOf(column);
    if (idx < 0 || static_cast<size_t>(idx) >= zone.bounds.size()) continue;
    const ColumnBounds& bounds = zone.bounds[static_cast<size_t>(idx)];
    if (!bounds.valid) continue;  // non-numeric or all-NULL: cannot prune
    // Every row value lies in [bounds.min, bounds.max]; skip the segment
    // when that envelope cannot intersect the predicate's range.
    if (bounds.max < range.lo || (range.lo_strict && bounds.max == range.lo))
      return false;
    if (bounds.min > range.hi || (range.hi_strict && bounds.min == range.hi))
      return false;
  }
  return true;
}

SegmentScan::SegmentScan(const SegmentedTable* table, ScanPredicate predicate,
                         StorageStats* stats)
    : table_(table), predicate_(std::move(predicate)), stats_(stats) {
  TPDB_CHECK(table_ != nullptr);
}

void SegmentScan::Open() {
  next_segment_ = 0;
  buffer_pos_ = 0;
  buffer_.clear();
}

bool SegmentScan::FillBuffer() {
  using Clock = std::chrono::steady_clock;
  while (next_segment_ < table_->segments().size()) {
    const Segment& segment = table_->segments()[next_segment_++];
    if (!SegmentMayMatch(segment, table_->schema(), predicate_)) {
      if (stats_ != nullptr) ++stats_->segments_skipped;
      ScanMetrics::Get().segments_pruned->Add();
      continue;
    }
    if (!CompressedChunksMayMatch(segment, table_->schema(), predicate_)) {
      if (stats_ != nullptr) ++stats_->chunks_skipped_compressed;
      ScanMetrics::Get().chunks_pruned_compressed->Add();
      continue;
    }
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<const ColumnChunk*>> chunks =
        MaterializeSegment(segment, &storage_);
    // The snapshot's CRC already vouched for these bytes at load time; a
    // malformed block here is a programming error, not input corruption.
    TPDB_CHECK(chunks.ok()) << chunks.status().ToString();
    buffer_.resize(segment.num_rows);
    for (size_t row = 0; row < segment.num_rows; ++row) {
      Row& out = buffer_[row];
      out.clear();
      out.reserve(chunks->size());
      for (const ColumnChunk* chunk : *chunks)
        out.push_back(chunk->ValueAt(row));
    }
    buffer_pos_ = 0;
    const double decode_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (stats_ != nullptr) {
      ++stats_->segments_scanned;
      stats_->rows_decoded += segment.num_rows;
      stats_->bytes_mapped += segment.encoded_bytes;
      stats_->compressed_bytes += segment.packed_bytes;
      stats_->decode_seconds += decode_seconds;
    }
    ScanMetrics::Get().segments_scanned->Add();
    ScanMetrics::Get().rows_decoded->Add(segment.num_rows);
    ScanMetrics::Get().decode_us->Record(
        static_cast<uint64_t>(decode_seconds * 1e6));
    if (!buffer_.empty()) return true;
  }
  return false;
}

bool SegmentScan::Next(Row* out) {
  const Row* row = NextRef();
  if (row == nullptr) return false;
  *out = *row;
  return true;
}

const Row* SegmentScan::NextRef() {
  while (buffer_pos_ >= buffer_.size()) {
    buffer_.clear();
    buffer_pos_ = 0;
    if (!FillBuffer()) return nullptr;
  }
  return &buffer_[buffer_pos_++];
}

void SegmentScan::Close() {
  buffer_.clear();
  buffer_pos_ = 0;
}

namespace {

/// Views rows [off, off + n) of a segment chunk as a batch column — pure
/// span arithmetic, no value is decoded. Null bitmaps keep the chunk's
/// byte array with a bit offset (they are bit-packed, so they cannot be
/// subspanned at arbitrary rows).
vec::ColumnVector ViewChunk(const ColumnChunk& chunk, size_t off, size_t n) {
  using Rep = vec::ColumnVector::Rep;
  vec::ColumnVector v;
  switch (chunk.encoding) {
    case ColumnEncoding::kAllNull:
      v.rep = Rep::kAllNull;
      break;
    case ColumnEncoding::kPlainInt64:
      v.rep = Rep::kInt64;
      v.ints = chunk.ints.subspan(off, n);
      v.null_bits = chunk.null_bitmap;
      v.null_bit_offset = off;
      break;
    case ColumnEncoding::kPlainDouble:
      v.rep = Rep::kDouble;
      v.doubles = chunk.doubles.subspan(off, n);
      v.null_bits = chunk.null_bitmap;
      v.null_bit_offset = off;
      break;
    case ColumnEncoding::kDictString:
      v.rep = Rep::kDict;
      v.dict = &chunk.Dict();
      v.codes = chunk.codes.subspan(off, n);
      v.null_bits = chunk.null_bitmap;
      v.null_bit_offset = off;
      break;
    case ColumnEncoding::kLineage:
      v.rep = Rep::kLineage;
      v.lineage = std::span<const LineageRef>(chunk.lineage).subspan(off, n);
      break;
    case ColumnEncoding::kGeneric:
      v.rep = Rep::kGeneric;
      v.generic = std::span<const Datum>(chunk.generic).subspan(off, n);
      break;
    case ColumnEncoding::kPackedInt64:
    case ColumnEncoding::kPackedDict:
    case ColumnEncoding::kPackedLineage:
      TPDB_CHECK(false) << "ViewChunk on a deferred packed chunk; "
                           "MaterializeSegment first";
      break;
  }
  return v;
}

}  // namespace

SegmentBatchScan::SegmentBatchScan(const SegmentedTable* table,
                                   ScanPredicate predicate,
                                   StorageStats* stats,
                                   VectorStats* vstats)
    : SegmentBatchScan(table, std::move(predicate), 0,
                       table->segments().size(), stats, vstats) {}

SegmentBatchScan::SegmentBatchScan(const SegmentedTable* table,
                                   ScanPredicate predicate, size_t seg_begin,
                                   size_t seg_end, StorageStats* stats,
                                   VectorStats* vstats)
    : table_(table),
      predicate_(std::move(predicate)),
      seg_begin_(seg_begin),
      seg_end_(std::min(seg_end, table->segments().size())),
      stats_(stats),
      vstats_(vstats),
      segment_(seg_begin) {
  TPDB_CHECK(table_ != nullptr);
  TPDB_CHECK_LE(seg_begin_, seg_end_);
}

void SegmentBatchScan::Open() {
  segment_ = seg_begin_;
  row_ = 0;
}

const vec::ColumnBatch* SegmentBatchScan::NextBatch() {
  using Clock = std::chrono::steady_clock;
  while (segment_ < seg_end_) {
    const Segment& segment = table_->segments()[segment_];
    if (row_ == 0) {
      // First visit of this segment: prune or commit to scanning it.
      if (segment.num_rows == 0 ||
          !SegmentMayMatch(segment, table_->schema(), predicate_)) {
        if (segment.num_rows > 0) {
          if (stats_ != nullptr) ++stats_->segments_skipped;
          ScanMetrics::Get().segments_pruned->Add();
        }
        ++segment_;
        continue;
      }
      if (!CompressedChunksMayMatch(segment, table_->schema(), predicate_)) {
        if (stats_ != nullptr) ++stats_->chunks_skipped_compressed;
        ScanMetrics::Get().chunks_pruned_compressed->Add();
        ++segment_;
        continue;
      }
      // Decompress the segment's packed chunks once; every batch of this
      // segment views the materialized arrays.
      const Clock::time_point start = Clock::now();
      StatusOr<std::vector<const ColumnChunk*>> chunks =
          MaterializeSegment(segment, &storage_);
      TPDB_CHECK(chunks.ok()) << chunks.status().ToString();
      views_ = std::move(*chunks);
      const double decode_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (stats_ != nullptr) {
        ++stats_->segments_scanned;
        stats_->bytes_mapped += segment.encoded_bytes;
        stats_->compressed_bytes += segment.packed_bytes;
        stats_->decode_seconds += decode_seconds;
      }
      ScanMetrics::Get().segments_scanned->Add();
      ScanMetrics::Get().decode_us->Record(
          static_cast<uint64_t>(decode_seconds * 1e6));
    }
    const size_t n = std::min(vec::kBatchRows, segment.num_rows - row_);
    batch_.num_rows = n;
    batch_.sel_all = true;
    batch_.sel.clear();
    batch_.columns.clear();
    batch_.columns.reserve(views_.size());
    for (const ColumnChunk* chunk : views_)
      batch_.columns.push_back(ViewChunk(*chunk, row_, n));
    row_ += n;
    if (row_ >= segment.num_rows) {
      ++segment_;
      row_ = 0;
    }
    if (stats_ != nullptr) stats_->rows_decoded += n;
    ScanMetrics::Get().rows_decoded->Add(n);
    if (vstats_ != nullptr) {
      ++vstats_->batches;
      vstats_->rows_scanned += n;
    }
    return &batch_;
  }
  return nullptr;
}

}  // namespace tpdb::storage

