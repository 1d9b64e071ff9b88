// Constant folding over filter predicates. Folds with the engine's EXACT
// evaluation semantics — Kleene three-valued logic, Datum comparison with
// int64↔double promotion — so a folded plan is element-wise identical to
// the unfolded one. Only equivalences that hold in 3VL everywhere are
// applied (e.g. x AND false = false even when x is NULL; NULL is NOT
// rewritten to false, because under NOT they differ).
#include <utility>

#include "api/lowering_common.h"
#include "api/passes/passes.h"
#include "engine/expr.h"

namespace tpdb {

namespace {

bool IsLiteral(const AstExprPtr& e) {
  return e != nullptr && e->kind == AstExprKind::kLiteral;
}

bool IsLiteralNull(const AstExprPtr& e) {
  return IsLiteral(e) && e->literal.is_null();
}

/// Non-null literal the filter keeps rows on.
bool IsLiteralTrue(const AstExprPtr& e) {
  return IsLiteral(e) && !e->literal.is_null() && DatumTruthy(e->literal);
}

/// Non-null literal the filter drops rows on (NULL is handled separately).
bool IsLiteralFalse(const AstExprPtr& e) {
  return IsLiteral(e) && !e->literal.is_null() && !DatumTruthy(e->literal);
}

AstExprPtr BoolLiteral(bool value) {
  return AstLiteral(Datum(static_cast<int64_t>(value ? 1 : 0)));
}

/// Folds a comparison of two literals exactly as CompareExpr and the
/// vector predicate's numeric promotion evaluate it.
AstExprPtr FoldLiteralCompare(CompareOp op, const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return AstLiteral(Datum::Null());
  const bool numeric_mix =
      (a.type() == DatumType::kInt64 && b.type() == DatumType::kDouble) ||
      (a.type() == DatumType::kDouble && b.type() == DatumType::kInt64);
  if (numeric_mix) {
    double x = 0, y = 0;
    if (!DatumToDouble(a, &x) || !DatumToDouble(b, &y))
      return AstLiteral(Datum::Null());
    switch (op) {
      case CompareOp::kEq: return BoolLiteral(x == y);
      case CompareOp::kNe: return BoolLiteral(x != y);
      case CompareOp::kLt: return BoolLiteral(x < y);
      case CompareOp::kLe: return BoolLiteral(x <= y);
      case CompareOp::kGt: return BoolLiteral(x > y);
      case CompareOp::kGe: return BoolLiteral(x >= y);
    }
    return AstLiteral(Datum::Null());
  }
  const int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq: return BoolLiteral(c == 0);
    case CompareOp::kNe: return BoolLiteral(c != 0);
    case CompareOp::kLt: return BoolLiteral(c < 0);
    case CompareOp::kLe: return BoolLiteral(c <= 0);
    case CompareOp::kGt: return BoolLiteral(c > 0);
    case CompareOp::kGe: return BoolLiteral(c >= 0);
  }
  return AstLiteral(Datum::Null());
}

}  // namespace

AstExprPtr FoldAstExpr(const AstExprPtr& e) {
  if (e == nullptr) return e;
  switch (e->kind) {
    case AstExprKind::kColumn:
    case AstExprKind::kLiteral:
      return e;
    case AstExprKind::kCompare: {
      const AstExprPtr a = FoldAstExpr(e->left);
      const AstExprPtr b = FoldAstExpr(e->right);
      if (IsLiteral(a) && IsLiteral(b))
        return FoldLiteralCompare(e->compare_op, a->literal, b->literal);
      if (a == e->left && b == e->right) return e;
      return AstCompare(e->compare_op, a, b);
    }
    case AstExprKind::kAnd: {
      const AstExprPtr a = FoldAstExpr(e->left);
      const AstExprPtr b = FoldAstExpr(e->right);
      // Exact 3VL: false ∧ x = false (any x), true ∧ x = x.
      if (IsLiteralFalse(a) || IsLiteralFalse(b)) return BoolLiteral(false);
      if (IsLiteralTrue(a)) return b;
      if (IsLiteralTrue(b)) return a;
      if (IsLiteralNull(a) && IsLiteralNull(b))
        return AstLiteral(Datum::Null());
      if (a == e->left && b == e->right) return e;
      return AstAnd(a, b);
    }
    case AstExprKind::kOr: {
      const AstExprPtr a = FoldAstExpr(e->left);
      const AstExprPtr b = FoldAstExpr(e->right);
      // Exact 3VL: true ∨ x = true (any x), false ∨ x = x.
      if (IsLiteralTrue(a) || IsLiteralTrue(b)) return BoolLiteral(true);
      if (IsLiteralFalse(a)) return b;
      if (IsLiteralFalse(b)) return a;
      if (IsLiteralNull(a) && IsLiteralNull(b))
        return AstLiteral(Datum::Null());
      if (a == e->left && b == e->right) return e;
      return AstOr(a, b);
    }
    case AstExprKind::kNot: {
      const AstExprPtr a = FoldAstExpr(e->left);
      if (IsLiteral(a)) {
        if (a->literal.is_null()) return AstLiteral(Datum::Null());
        return BoolLiteral(!DatumTruthy(a->literal));
      }
      if (a == e->left) return e;
      return AstNot(a);
    }
    case AstExprKind::kIsNull: {
      const AstExprPtr a = FoldAstExpr(e->left);
      if (IsLiteral(a)) return BoolLiteral(a->literal.is_null());
      if (a == e->left) return e;
      return AstIsNull(a);
    }
  }
  return e;
}

namespace {

void FoldNode(PhysicalNodePtr& node) {
  for (PhysicalNodePtr& child : node->children) FoldNode(child);
  if (node->op == PhysOp::kFilter && !node->is_prob &&
      node->predicate != nullptr) {
    node->predicate = FoldAstExpr(node->predicate);
    // An always-true filter keeps every row: splice it out.
    if (IsLiteralTrue(node->predicate)) {
      PhysicalNodePtr child = std::move(node->children[0]);
      node = std::move(child);
    }
  }
}

}  // namespace

Status FoldConstantsPass(PhysicalPlan* plan) {
  TPDB_CHECK(plan != nullptr && plan->root != nullptr);
  FoldNode(plan->root);
  return Status::OK();
}

}  // namespace tpdb
