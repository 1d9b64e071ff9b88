#include "engine/vector/predicate.h"

#include <utility>
#include <vector>

namespace tpdb::vec {

namespace {

using Rep = ColumnVector::Rep;

int8_t BoolTruth(bool b) { return b ? kTrue : kFalse; }

bool ToDouble(const Datum& d, double* out) {
  if (d.type() == DatumType::kInt64) {
    *out = static_cast<double>(d.AsInt64());
    return true;
  }
  if (d.type() == DatumType::kDouble) {
    *out = d.AsDouble();
    return true;
  }
  return false;
}

/// Truth of `op` given a three-way comparison result.
int8_t CompareTruth(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return BoolTruth(c == 0);
    case CompareOp::kNe: return BoolTruth(c != 0);
    case CompareOp::kLt: return BoolTruth(c < 0);
    case CompareOp::kLe: return BoolTruth(c <= 0);
    case CompareOp::kGt: return BoolTruth(c > 0);
    case CompareOp::kGe: return BoolTruth(c >= 0);
  }
  return kNull;
}

template <typename T>
int8_t CompareNum(CompareOp op, T x, T y) {
  switch (op) {
    case CompareOp::kEq: return BoolTruth(x == y);
    case CompareOp::kNe: return BoolTruth(x != y);
    case CompareOp::kLt: return BoolTruth(x < y);
    case CompareOp::kLe: return BoolTruth(x <= y);
    case CompareOp::kGt: return BoolTruth(x > y);
    case CompareOp::kGe: return BoolTruth(x >= y);
  }
  return kNull;
}

/// Per-row comparison with engine/expr.cc's semantics: CompareExpr's
/// Datum::Compare order, or — when `promote` — the planner's numeric
/// promotion (compare as doubles, NULL on non-numeric operands).
int8_t CompareDatums(bool promote, CompareOp op, const Datum& a,
                     const Datum& b) {
  if (a.is_null() || b.is_null()) return kNull;
  if (promote) {
    double x = 0, y = 0;
    if (!ToDouble(a, &x) || !ToDouble(b, &y)) return kNull;
    return CompareNum(op, x, y);
  }
  return CompareTruth(op, a.Compare(b));
}

/// The value a boolean subexpression has as a comparison operand: int64
/// 1/0, or NULL.
Datum TruthDatum(int8_t truth) {
  return truth == kNull ? Datum::Null()
                        : Datum(static_cast<int64_t>(truth == kTrue));
}

class ConstNode final : public VectorExpr {
 public:
  explicit ConstNode(int8_t truth) : truth_(truth) {}
  void EvalTruth(const ColumnBatch&, const uint32_t*, size_t n,
                 int8_t* out) const override {
    std::fill(out, out + n, truth_);
  }
  const int8_t* constant_truth() const override { return &truth_; }

 private:
  int8_t truth_;
};

class CompareNode final : public VectorExpr {
 public:
  CompareNode(CompareOp op, bool promote, VOperand a, VOperand b)
      : op_(op), promote_(promote), a_(std::move(a)), b_(std::move(b)) {}

  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override;

 private:
  /// Per-dictionary truth cache for "dict column vs string literal": one
  /// comparison per distinct string instead of one per row. Scratch state
  /// — see the thread-safety note in the header.
  mutable const std::vector<std::string>* cached_dict_ = nullptr;
  mutable std::vector<int8_t> dict_truth_;
  /// Truth of subexpression operands for the batch in flight.
  mutable std::vector<int8_t> a_truth_;
  mutable std::vector<int8_t> b_truth_;

  CompareOp op_;
  bool promote_;
  VOperand a_;
  VOperand b_;
};

void CompareNode::EvalTruth(const ColumnBatch& batch, const uint32_t* rows,
                            size_t n, int8_t* out) const {
  const ColumnVector* ca =
      a_.is_column() ? &batch.columns[static_cast<size_t>(a_.col)] : nullptr;
  const ColumnVector* cb =
      b_.is_column() ? &batch.columns[static_cast<size_t>(b_.col)] : nullptr;
  const auto row_at = [&](size_t i) -> size_t {
    return rows != nullptr ? rows[i] : i;
  };
  const auto null_at = [&](const ColumnVector* c, size_t r) {
    return c != nullptr && c->IsNull(r);
  };

  // A subexpression operand compares by its Kleene value, row by row.
  if (a_.sub != nullptr || b_.sub != nullptr) {
    if (a_.sub != nullptr) {
      a_truth_.resize(n);
      a_.sub->EvalTruth(batch, rows, n, a_truth_.data());
    }
    if (b_.sub != nullptr) {
      b_truth_.resize(n);
      b_.sub->EvalTruth(batch, rows, n, b_truth_.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      const Datum x = a_.sub != nullptr ? TruthDatum(a_truth_[i])
                      : ca != nullptr   ? ca->ValueAt(r)
                                        : a_.lit;
      const Datum y = b_.sub != nullptr ? TruthDatum(b_truth_[i])
                      : cb != nullptr   ? cb->ValueAt(r)
                                        : b_.lit;
      out[i] = CompareDatums(promote_, op_, x, y);
    }
    return;
  }

  // Runtime shape of each side. Literals are non-null (builders fold
  // null-literal comparisons to a constant).
  const bool a_int = ca ? ca->rep == Rep::kInt64
                        : a_.lit.type() == DatumType::kInt64;
  const bool b_int = cb ? cb->rep == Rep::kInt64
                        : b_.lit.type() == DatumType::kInt64;
  const bool a_dbl = ca ? ca->rep == Rep::kDouble
                        : a_.lit.type() == DatumType::kDouble;
  const bool b_dbl = cb ? cb->rep == Rep::kDouble
                        : b_.lit.type() == DatumType::kDouble;
  const bool a_str = ca ? (ca->rep == Rep::kDict || ca->rep == Rep::kString)
                        : a_.lit.type() == DatumType::kString;
  const bool b_str = cb ? (cb->rep == Rep::kDict || cb->rep == Rep::kString)
                        : b_.lit.type() == DatumType::kString;

  // Same-type int64 without promotion: Datum::Compare is numeric order.
  if (!promote_ && a_int && b_int) {
    const int64_t la = ca == nullptr ? a_.lit.AsInt64() : 0;
    const int64_t lb = cb == nullptr ? b_.lit.AsInt64() : 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      if (null_at(ca, r) || null_at(cb, r)) {
        out[i] = kNull;
        continue;
      }
      out[i] = CompareNum(op_, ca ? ca->ints[r] : la, cb ? cb->ints[r] : lb);
    }
    return;
  }

  // Doubles either way (same-type doubles, or the planner's promotion of
  // an int64/double mix).
  const bool a_num = a_int || a_dbl;
  const bool b_num = b_int || b_dbl;
  if (a_num && b_num && (promote_ || (a_dbl && b_dbl))) {
    const double la =
        ca == nullptr ? (a_int ? static_cast<double>(a_.lit.AsInt64())
                               : a_.lit.AsDouble())
                      : 0.0;
    const double lb =
        cb == nullptr ? (b_int ? static_cast<double>(b_.lit.AsInt64())
                               : b_.lit.AsDouble())
                      : 0.0;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      if (null_at(ca, r) || null_at(cb, r)) {
        out[i] = kNull;
        continue;
      }
      const double x =
          ca ? (a_int ? static_cast<double>(ca->ints[r]) : ca->doubles[r])
             : la;
      const double y =
          cb ? (b_int ? static_cast<double>(cb->ints[r]) : cb->doubles[r])
             : lb;
      out[i] = CompareNum(op_, x, y);
    }
    return;
  }

  if (!promote_ && a_str && b_str) {
    // Dictionary column vs string literal: one comparison per distinct
    // string, then a table lookup per row.
    if (ca != nullptr && ca->rep == Rep::kDict && cb == nullptr) {
      if (cached_dict_ != ca->dict) {
        cached_dict_ = ca->dict;
        dict_truth_.resize(ca->dict->size());
        for (size_t d = 0; d < ca->dict->size(); ++d)
          dict_truth_[d] =
              CompareTruth(op_, (*ca->dict)[d].compare(b_.lit.AsString()));
      }
      for (size_t i = 0; i < n; ++i) {
        const size_t r = row_at(i);
        out[i] = ca->IsNull(r) ? kNull : dict_truth_[ca->codes[r]];
      }
      return;
    }
    const std::string* la = ca == nullptr ? &a_.lit.AsString() : nullptr;
    const std::string* lb = cb == nullptr ? &b_.lit.AsString() : nullptr;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_at(i);
      if (null_at(ca, r) || null_at(cb, r)) {
        out[i] = kNull;
        continue;
      }
      const std::string& x = ca ? ca->StringAt(r) : *la;
      const std::string& y = cb ? cb->StringAt(r) : *lb;
      out[i] = CompareTruth(op_, x.compare(y));
    }
    return;
  }

  // Mixed / generic shapes: per-row Datums with engine/expr.cc semantics.
  for (size_t i = 0; i < n; ++i) {
    const size_t r = row_at(i);
    const Datum x = ca ? ca->ValueAt(r) : a_.lit;
    const Datum y = cb ? cb->ValueAt(r) : b_.lit;
    out[i] = CompareDatums(promote_, op_, x, y);
  }
}

class TruthyNode final : public VectorExpr {
 public:
  explicit TruthyNode(int col) : col_(col) {}
  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override {
    const ColumnVector& c = batch.columns[static_cast<size_t>(col_)];
    for (size_t i = 0; i < n; ++i) {
      const size_t r = rows != nullptr ? rows[i] : i;
      if (c.IsNull(r)) {
        out[i] = kNull;
      } else if (c.rep == Rep::kInt64) {
        out[i] = BoolTruth(c.ints[r] != 0);
      } else if (c.rep == Rep::kGeneric) {
        out[i] = BoolTruth(DatumTruthy(c.generic[r]));
      } else {
        out[i] = kTrue;  // DatumTruthy: non-null non-int64 is truthy
      }
    }
  }

 private:
  int col_;
};

class IsNullColNode final : public VectorExpr {
 public:
  explicit IsNullColNode(int col) : col_(col) {}
  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override {
    const ColumnVector& c = batch.columns[static_cast<size_t>(col_)];
    for (size_t i = 0; i < n; ++i)
      out[i] = BoolTruth(c.IsNull(rows != nullptr ? rows[i] : i));
  }

 private:
  int col_;
};

class IsNullOfNode final : public VectorExpr {
 public:
  explicit IsNullOfNode(VectorExprPtr a) : a_(std::move(a)) {}
  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override {
    buf_.resize(n);
    a_->EvalTruth(batch, rows, n, buf_.data());
    for (size_t i = 0; i < n; ++i) out[i] = BoolTruth(buf_[i] == kNull);
  }

 private:
  VectorExprPtr a_;
  mutable std::vector<int8_t> buf_;
};

class AndOrNode final : public VectorExpr {
 public:
  AndOrNode(bool is_and, VectorExprPtr a, VectorExprPtr b)
      : is_and_(is_and), a_(std::move(a)), b_(std::move(b)) {}
  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override {
    a_buf_.resize(n);
    b_buf_.resize(n);
    a_->EvalTruth(batch, rows, n, a_buf_.data());
    b_->EvalTruth(batch, rows, n, b_buf_.data());
    // Kleene, matching engine/expr.cc's AndOrExpr.
    for (size_t i = 0; i < n; ++i) {
      const int8_t a = a_buf_[i], b = b_buf_[i];
      if (is_and_) {
        out[i] = (a == kFalse || b == kFalse) ? kFalse
                 : (a == kNull || b == kNull) ? kNull
                                              : kTrue;
      } else {
        out[i] = (a == kTrue || b == kTrue) ? kTrue
                 : (a == kNull || b == kNull) ? kNull
                                              : kFalse;
      }
    }
  }

 private:
  bool is_and_;
  VectorExprPtr a_;
  VectorExprPtr b_;
  mutable std::vector<int8_t> a_buf_;
  mutable std::vector<int8_t> b_buf_;
};

class NotNode final : public VectorExpr {
 public:
  explicit NotNode(VectorExprPtr a) : a_(std::move(a)) {}
  void EvalTruth(const ColumnBatch& batch, const uint32_t* rows, size_t n,
                 int8_t* out) const override {
    a_->EvalTruth(batch, rows, n, out);
    for (size_t i = 0; i < n; ++i)
      if (out[i] != kNull) out[i] = BoolTruth(out[i] == kFalse);
  }

 private:
  VectorExprPtr a_;
};

}  // namespace

VectorExprPtr VConst(int8_t truth) {
  return std::make_unique<ConstNode>(truth);
}

VectorExprPtr VCompare(CompareOp op, bool promote_numeric, VOperand a,
                       VOperand b) {
  // A constant subexpression is just its value.
  for (VOperand* o : {&a, &b})
    if (o->sub != nullptr && o->sub->constant_truth() != nullptr)
      *o = VOperand::Literal(TruthDatum(*o->sub->constant_truth()));
  if (a.is_literal() && b.is_literal())
    return VConst(CompareDatums(promote_numeric, op, a.lit, b.lit));
  if ((a.is_literal() && a.lit.is_null()) ||
      (b.is_literal() && b.lit.is_null()))
    return VConst(kNull);  // any comparison with NULL is NULL
  return std::make_unique<CompareNode>(op, promote_numeric, std::move(a),
                                       std::move(b));
}

VectorExprPtr VTruthy(VOperand a) {
  if (!a.is_column())
    return VConst(a.lit.is_null() ? kNull : BoolTruth(DatumTruthy(a.lit)));
  return std::make_unique<TruthyNode>(a.col);
}

VectorExprPtr VIsNull(VOperand a) {
  if (!a.is_column()) return VConst(BoolTruth(a.lit.is_null()));
  return std::make_unique<IsNullColNode>(a.col);
}

VectorExprPtr VIsNullOf(VectorExprPtr a) {
  if (const int8_t* t = a->constant_truth())
    return VConst(BoolTruth(*t == kNull));
  return std::make_unique<IsNullOfNode>(std::move(a));
}

VectorExprPtr VAnd(VectorExprPtr a, VectorExprPtr b) {
  // Kleene folds: FALSE absorbs (even against NULL), TRUE is the identity.
  if (const int8_t* t = a->constant_truth()) {
    if (*t == kFalse) return VConst(kFalse);
    if (*t == kTrue) return b;
  }
  if (const int8_t* t = b->constant_truth()) {
    if (*t == kFalse) return VConst(kFalse);
    if (*t == kTrue) return a;
  }
  if (a->constant_truth() != nullptr && b->constant_truth() != nullptr)
    return VConst(kNull);  // both NULL
  return std::make_unique<AndOrNode>(true, std::move(a), std::move(b));
}

VectorExprPtr VOr(VectorExprPtr a, VectorExprPtr b) {
  if (const int8_t* t = a->constant_truth()) {
    if (*t == kTrue) return VConst(kTrue);
    if (*t == kFalse) return b;
  }
  if (const int8_t* t = b->constant_truth()) {
    if (*t == kTrue) return VConst(kTrue);
    if (*t == kFalse) return a;
  }
  if (a->constant_truth() != nullptr && b->constant_truth() != nullptr)
    return VConst(kNull);
  return std::make_unique<AndOrNode>(false, std::move(a), std::move(b));
}

VectorExprPtr VNot(VectorExprPtr a) {
  if (const int8_t* t = a->constant_truth())
    return VConst(*t == kNull ? kNull : BoolTruth(*t == kFalse));
  return std::make_unique<NotNode>(std::move(a));
}

}  // namespace tpdb::vec
