// ColumnBatch: the unit of the vectorized execution path — a slice of up
// to kBatchRows tuples held column-wise as typed vectors plus a selection
// vector of the rows still alive.
//
// A ColumnVector is either a zero-copy *view* (spans aliasing a mmapped
// segment chunk or another batch's storage) or *owned* (typed vectors the
// batch transposed out of row storage). Views are what make the cold path
// fast: a SegmentBatchScan hands out the segment's raw int64/double arrays
// and dictionary codes without decoding a single Datum; rows removed by a
// filter are merely deselected, never copied.
//
// Null convention matches storage/segment.h: bit (null_bit_offset + i) of
// `null_bits` set ⇒ row i is NULL; an empty bitmap means no row is NULL
// (kGeneric encodes NULLs as null Datums instead).
#ifndef TPDB_ENGINE_VECTOR_COLUMN_BATCH_H_
#define TPDB_ENGINE_VECTOR_COLUMN_BATCH_H_

#include <span>
#include <string>
#include <vector>

#include "engine/row.h"
#include "engine/schema.h"

namespace tpdb::vec {

/// Target tuples per batch (sources may emit short tail batches).
inline constexpr size_t kBatchRows = 1024;

/// One column of a batch. Move-only: spans may alias the owned_* storage,
/// so a copy would dangle — use View() for an explicit non-owning alias.
struct ColumnVector {
  /// Physical representation (what the spans below mean).
  enum class Rep : uint8_t {
    kAllNull,  ///< every row NULL; no data
    kInt64,    ///< ints
    kDouble,   ///< doubles
    kString,   ///< strings (one std::string per row)
    kDict,     ///< dict + codes (the segment string encoding)
    kLineage,  ///< lineage (never NULL — a null *ref* is still a datum)
    kGeneric,  ///< generic Datums (mixed-type fallback; NULLs are Datums)
  };

  Rep rep = Rep::kAllNull;

  std::span<const uint8_t> null_bits;  ///< empty = no NULLs (see header)
  size_t null_bit_offset = 0;

  std::span<const int64_t> ints;
  std::span<const double> doubles;
  std::span<const std::string> strings;
  const std::vector<std::string>* dict = nullptr;
  std::span<const uint32_t> codes;
  std::span<const LineageRef> lineage;
  std::span<const Datum> generic;

  // Owned backing; the spans above may view these. Empty for views.
  std::vector<uint8_t> owned_null_bits;
  std::vector<int64_t> owned_ints;
  std::vector<double> owned_doubles;
  std::vector<std::string> owned_strings;
  std::vector<LineageRef> owned_lineage;
  std::vector<Datum> owned_generic;

  ColumnVector() = default;
  ColumnVector(ColumnVector&&) = default;
  ColumnVector& operator=(ColumnVector&&) = default;
  ColumnVector(const ColumnVector&) = delete;
  ColumnVector& operator=(const ColumnVector&) = delete;

  bool IsNull(size_t row) const {
    if (rep == Rep::kAllNull) return true;
    if (rep == Rep::kGeneric) return generic[row].is_null();
    if (null_bits.empty()) return false;
    const size_t bit = null_bit_offset + row;
    return (null_bits[bit / 8] >> (bit % 8)) & 1u;
  }

  const std::string& StringAt(size_t row) const {
    return rep == Rep::kDict ? (*dict)[codes[row]] : strings[row];
  }

  /// Lineage reference of `row` (CHECK-fails on non-lineage values, like
  /// Datum::AsLineage).
  LineageRef LineageAt(size_t row) const {
    if (rep == Rep::kLineage) return lineage[row];
    return ValueAt(row).AsLineage();
  }

  /// The value of `row` as a Datum (copies strings).
  Datum ValueAt(size_t row) const;

  /// Non-owning alias of this vector; `this` must outlive the view (a
  /// batch operator's output batch views its child's current batch, which
  /// the protocol keeps alive until the next NextBatch call).
  ColumnVector View() const;
};

/// A batch of rows in columnar form, plus the selection vector.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;
  /// When `sel_all` is true every row is active; otherwise only the rows
  /// listed in `sel`, in increasing order — so consuming a batch in
  /// selection order preserves the source's row order exactly.
  bool sel_all = true;
  std::vector<uint32_t> sel;

  size_t ActiveRows() const { return sel_all ? num_rows : sel.size(); }
  uint32_t ActiveRow(size_t i) const {
    return sel_all ? static_cast<uint32_t>(i) : sel[i];
  }

  /// Materializes row `row` (a physical index, not a selection position).
  void DecodeRow(size_t row, Row* out) const;

  /// Points this batch at `src`'s columns (views) with `src`'s selection.
  void AssignView(const ColumnBatch& src);
};

/// Transposes rows [begin, end) of `rows` into typed column vectors:
/// uniformly-typed columns get int64/double/string/lineage storage (plus a
/// null bitmap), mixed columns fall back to generic Datums — mirroring the
/// segment encoder's choices.
void TransposeRows(const std::vector<Row>& rows, size_t begin, size_t end,
                   ColumnBatch* out);

}  // namespace tpdb::vec

#endif  // TPDB_ENGINE_VECTOR_COLUMN_BATCH_H_
