// Vectorized predicate evaluation: a compiled expression tree evaluated
// column-wise over a batch's active rows, producing Kleene truth values
// the BatchFilter turns into a selection vector.
//
// The tree is built once at plan time with column indices already resolved
// and constant subtrees already folded (the builders collapse literal-only
// nodes to constants), so a batch evaluation is pure loops: typed fast
// paths over int64/double spans and dictionary codes, with a per-row Datum
// fallback for mixed-type columns that follows engine/expr.cc's
// three-valued semantics exactly, plus the planner's int64↔double
// promotion rule.
//
// Nodes carry per-batch scratch buffers, so one compiled tree must not be
// shared across threads — the parallel driver compiles one per morsel
// chain.
#ifndef TPDB_ENGINE_VECTOR_PREDICATE_H_
#define TPDB_ENGINE_VECTOR_PREDICATE_H_

#include <memory>

#include "engine/expr.h"
#include "engine/vector/column_batch.h"

namespace tpdb::vec {

/// Kleene truth values.
inline constexpr int8_t kFalse = 0;
inline constexpr int8_t kTrue = 1;
inline constexpr int8_t kNull = -1;

/// A compiled vectorized boolean expression.
class VectorExpr {
 public:
  virtual ~VectorExpr() = default;

  /// Evaluates truth for `n` rows of `batch`. `rows` lists the physical
  /// row indices to evaluate (nullptr = the identity 0..n-1); out[i] gets
  /// kFalse/kTrue/kNull for rows[i].
  virtual void EvalTruth(const ColumnBatch& batch, const uint32_t* rows,
                         size_t n, int8_t* out) const = 0;

  /// Non-null when this node is a constant (used by builders to fold).
  virtual const int8_t* constant_truth() const { return nullptr; }
};

using VectorExprPtr = std::unique_ptr<const VectorExpr>;

/// One operand of a comparison: a resolved column index, a constant, or a
/// boolean subexpression compared by its Kleene value as an int64 0/1 or
/// NULL (engine/expr.cc evaluates `(a = b) = 1` that way).
struct VOperand {
  int col = -1;  ///< >= 0: index into the batch's columns
  Datum lit;
  std::shared_ptr<const VectorExpr> sub;  ///< non-null: subexpression

  static VOperand Column(int index) {
    VOperand o;
    o.col = index;
    return o;
  }
  static VOperand Literal(Datum value) {
    VOperand o;
    o.lit = std::move(value);
    return o;
  }
  static VOperand Truth(VectorExprPtr expr) {
    VOperand o;
    o.sub = std::move(expr);
    return o;
  }
  bool is_column() const { return col >= 0; }
  bool is_literal() const { return col < 0 && sub == nullptr; }
};

// -- Builders (mirroring engine/expr.h, with constant folding) ------------

VectorExprPtr VConst(int8_t truth);
/// Comparison; `promote_numeric` selects the planner's int64↔double
/// promotion semantics instead of Datum::Compare's type-rank order.
VectorExprPtr VCompare(CompareOp op, bool promote_numeric, VOperand a,
                       VOperand b);
/// Truthiness of a bare column/literal in boolean position (NULL → null,
/// else DatumTruthy).
VectorExprPtr VTruthy(VOperand a);
VectorExprPtr VIsNull(VOperand a);
/// IS NULL over a boolean subexpression (true iff the subtree is null).
VectorExprPtr VIsNullOf(VectorExprPtr a);
VectorExprPtr VAnd(VectorExprPtr a, VectorExprPtr b);
VectorExprPtr VOr(VectorExprPtr a, VectorExprPtr b);
VectorExprPtr VNot(VectorExprPtr a);

}  // namespace tpdb::vec

#endif  // TPDB_ENGINE_VECTOR_PREDICATE_H_
