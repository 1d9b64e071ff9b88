// Predicate & probability-threshold pushdown. Within each pipelined chain
// (the maximal run of PhysFilter / PhysProject / PhysSort / PhysLimit over
// one source), filters sink toward the source:
//
//   - past PhysSort — the engine sort is stable, so filtering before or
//     after sorting yields the same rows in the same order;
//   - past PhysProject — predicate column references are rewritten through
//     the projection's aliases back to source names (probability
//     thresholds read only the lineage column, which rides along, and move
//     unconditionally);
//   - cheap predicate filters move ahead of expensive probability
//     thresholds (both are stream filters of one conjunction — reordering
//     preserves the surviving set and the emit order).
//
// A predicate filter that ends up directly on a PhysTPJoin moves into the
// join's inputs, conjunct by conjunct (a row passes σ[A AND B] exactly
// when it passes σ[A] and σ[B]). The paper builds every window of a
// driving tuple (WO → WUO → WUON) from that tuple and its θ-matching
// tuples alone, and each output tuple carries its driving tuple's facts,
// so a selection on the driving side's facts commutes with the join:
//
//   - reads only left fact columns, kind INNER / LEFT / ANTI / SEMI (the
//     r-driven pipeline only) — the conjunct moves onto the left input;
//   - reads only right fact columns (mapped back through
//     TPJoinOutputSchema's `_s` renames), kind INNER / RIGHT (INNER's
//     overlapping windows are per (r, s) pair; RIGHT runs only the
//     s-driven pipeline) — the conjunct moves onto the right input;
//   - a moved conjunct that reads only join_on columns is also mirrored,
//     renamed, onto the other input: θ equality is exact, non-NULL Datum
//     equality, so every θ-match of a surviving tuple satisfies it too,
//     and the other side loses only tuples no surviving tuple can match.
//
// Pruning a join input removes whole driving tuples (or non-matching
// partners) and keeps the relative order of the rest, so the surviving
// output is the same tuples in the same order with the same lineage.
//
// Nothing ever crosses a PhysLimit (that would change which rows survive)
// or any other barrier (aggregates, set ops, PhysAlign). Never across a
// join: FULL JOIN (its s-driven pipeline emits NULL left facts, and left
// tuples shape the s-driven negating windows, and vice versa), the
// non-driving side of an outer join (its facts are NULL on unmatched and
// negating windows, so `IS NULL` would change meaning), probability
// thresholds (the join rewrites the lineage), `_ts` / `_te` / `_lin`
// (window intervals are not input intervals) and conjuncts that mix both
// sides; those stay in the filter above the join.
//
// Afterwards the conjunctive bounds of the leading filter run are
// harvested into the cold source's ScanPredicate — the predicate moves
// INTO PhysScan, where the segment zone maps prune on it.
#include <map>
#include <utility>
#include <vector>

#include "api/lowering_common.h"
#include "api/passes/passes.h"

namespace tpdb {

namespace {

using Renames = std::map<std::string, std::string>;

/// Rewrites every column reference of `e` through `renames`; returns null
/// when a referenced column has no source mapping (the filter then stays
/// where it is). The reserved interval/lineage columns pass through
/// unchanged only when `keep_reserved` (projections carry them along;
/// join inputs do not share them with the join output).
AstExprPtr RenameColumns(const AstExprPtr& e, const Renames& renames,
                         bool keep_reserved = true) {
  if (e == nullptr) return nullptr;
  const auto rename = [&](const AstExprPtr& sub) {
    return RenameColumns(sub, renames, keep_reserved);
  };
  switch (e->kind) {
    case AstExprKind::kColumn: {
      if (IsReservedColumn(e->column)) return keep_reserved ? e : nullptr;
      auto it = renames.find(e->column);
      if (it == renames.end()) return nullptr;
      if (it->second == e->column) return e;
      return AstColumn(it->second);
    }
    case AstExprKind::kLiteral:
      return e;
    case AstExprKind::kCompare: {
      const AstExprPtr a = rename(e->left);
      const AstExprPtr b = rename(e->right);
      if (a == nullptr || b == nullptr) return nullptr;
      if (a == e->left && b == e->right) return e;
      return AstCompare(e->compare_op, a, b);
    }
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      const AstExprPtr a = rename(e->left);
      const AstExprPtr b = rename(e->right);
      if (a == nullptr || b == nullptr) return nullptr;
      if (a == e->left && b == e->right) return e;
      return e->kind == AstExprKind::kAnd ? AstAnd(a, b) : AstOr(a, b);
    }
    case AstExprKind::kNot: {
      const AstExprPtr a = rename(e->left);
      if (a == nullptr) return nullptr;
      return a == e->left ? e : AstNot(a);
    }
    case AstExprKind::kIsNull: {
      const AstExprPtr a = rename(e->left);
      if (a == nullptr) return nullptr;
      return a == e->left ? e : AstIsNull(a);
    }
  }
  return nullptr;
}

/// Output name → source name map of a projection stage.
Renames ProjectRenames(const PhysicalNode& project) {
  Renames renames;
  for (size_t i = 0; i < project.columns.size(); ++i) {
    const std::string out =
        i < project.aliases.size() && !project.aliases[i].empty()
            ? project.aliases[i]
            : project.columns[i];
    renames.emplace(out, project.columns[i]);  // first mapping wins
  }
  return renames;
}

/// Tries to move the filter `above` below the stage `below`; returns true
/// (after rewriting the predicate, when needed) if the swap is legal.
bool CanSink(PhysicalNode* above, const PhysicalNode& below) {
  if (above->op != PhysOp::kFilter) return false;
  switch (below.op) {
    case PhysOp::kSort:
      return true;  // stable sort commutes with stream filters
    case PhysOp::kProject: {
      if (above->is_prob) return true;  // reads only the lineage column
      const AstExprPtr rewritten =
          RenameColumns(above->predicate, ProjectRenames(below));
      if (rewritten == nullptr) return false;
      above->predicate = rewritten;
      return true;
    }
    case PhysOp::kFilter:
      // Cheap-first: predicate filters sink below probability thresholds.
      return below.is_prob && !above->is_prob;
    default:
      return false;  // never across a limit
  }
}

/// Join output name → input column name, per side, resolved the way the
/// filter above the join resolves it (first occurrence of a name wins).
struct JoinRenames {
  Renames left;
  Renames right;
};

JoinRenames OutputToInputColumns(const PhysicalNode& join) {
  const Schema out = FactSchemaOf(join.schema);
  const Schema s = FactSchemaOf(join.children[1]->schema);
  const size_t num_r = FactSchemaOf(join.children[0]->schema).num_columns();
  JoinRenames renames;
  for (size_t i = 0; i < out.num_columns(); ++i) {
    const std::string& name = out.column(i).name;
    if (out.IndexOf(name) != static_cast<int>(i)) continue;  // shadowed
    if (i < num_r) {
      renames.left.emplace(name, name);
      continue;
    }
    const size_t si = i - num_r;
    const std::string& source = s.column(si).name;
    if (s.IndexOf(source) == static_cast<int>(si))
      renames.right.emplace(name, source);
  }
  return renames;
}

/// One side's join_on columns → the partner columns on the other side,
/// for the pairs whose two columns share a type (an int64 key never
/// θ-matches a double key, but the mirrored predicate would compile with
/// numeric promotion and could keep a different set).
Renames EquiPartners(const PhysicalNode& join, bool from_left) {
  const Schema r = FactSchemaOf(join.children[0]->schema);
  const Schema s = FactSchemaOf(join.children[1]->schema);
  Renames partners;
  for (const auto& [rc, sc] : join.join_on) {
    const int ri = r.IndexOf(rc);
    const int si = s.IndexOf(sc);
    if (ri < 0 || si < 0 ||
        r.column(static_cast<size_t>(ri)).type !=
            s.column(static_cast<size_t>(si)).type)
      continue;
    if (from_left)
      partners.emplace(rc, sc);
    else
      partners.emplace(sc, rc);
  }
  return partners;
}

/// Puts a predicate filter on top of `input`.
void WrapInFilter(PhysicalNodePtr& input, AstExprPtr predicate) {
  auto filter = std::make_unique<PhysicalNode>();
  filter->op = PhysOp::kFilter;
  filter->predicate = std::move(predicate);
  filter->schema = input->schema;
  filter->children.push_back(std::move(input));
  input = std::move(filter);
}

/// Moves one conjunct of a filter that sits directly on `join` into the
/// join's input(s) when that is legal (see the file comment); returns
/// whether it moved.
bool SinkConjunct(const AstExprPtr& conjunct, PhysicalNode* join,
                  const JoinRenames& renames) {
  const TPJoinKind kind = join->join_kind;
  const bool left_driven =
      kind == TPJoinKind::kInner || kind == TPJoinKind::kLeftOuter ||
      kind == TPJoinKind::kAnti || kind == TPJoinKind::kSemi;
  const bool right_driven =
      kind == TPJoinKind::kInner || kind == TPJoinKind::kRightOuter;
  AstExprPtr left =
      left_driven ? RenameColumns(conjunct, renames.left, false) : nullptr;
  AstExprPtr right = left == nullptr && right_driven
                         ? RenameColumns(conjunct, renames.right, false)
                         : nullptr;
  if (left == nullptr && right == nullptr) return false;
  if (left != nullptr)
    right = RenameColumns(left, EquiPartners(*join, true), false);
  else
    left = RenameColumns(right, EquiPartners(*join, false), false);
  if (left != nullptr) WrapInFilter(join->children[0], std::move(left));
  if (right != nullptr) WrapInFilter(join->children[1], std::move(right));
  return true;
}

void CollectConjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e->kind == AstExprKind::kAnd) {
    CollectConjuncts(e->left, out);
    CollectConjuncts(e->right, out);
  } else {
    out->push_back(e);
  }
}

/// Moves the conjuncts of the predicate filter `filter`, which sits
/// directly on `join`, that may cross the join into its inputs (a row
/// passes σ[A AND B] exactly when it passes σ[A] and σ[B]); the rest stay
/// in `filter`. Returns true when nothing of the filter is left.
bool SinkIntoJoin(PhysicalNode* filter, PhysicalNode* join) {
  if (filter->op != PhysOp::kFilter || filter->is_prob ||
      join->op != PhysOp::kTPJoin)
    return false;
  const JoinRenames renames = OutputToInputColumns(*join);
  std::vector<AstExprPtr> conjuncts;
  CollectConjuncts(filter->predicate, &conjuncts);
  AstExprPtr residual;
  bool moved = false;
  for (const AstExprPtr& conjunct : conjuncts) {
    if (SinkConjunct(conjunct, join, renames)) {
      moved = true;
      continue;
    }
    residual = residual == nullptr ? conjunct : AstAnd(residual, conjunct);
  }
  if (residual == nullptr) return true;
  if (moved) filter->predicate = residual;
  return false;
}

Status PushChain(PhysicalNodePtr& top);

Status PushChildren(PhysicalNode* node) {
  for (PhysicalNodePtr& child : node->children)
    TPDB_RETURN_IF_ERROR(PushChain(child));
  return Status::OK();
}

Status PushChain(PhysicalNodePtr& top) {
  if (!IsPipelinedPhysOp(top->op)) return PushChildren(top.get());

  // Detach the chain (top-down) from its source.
  std::vector<PhysicalNodePtr> top_down;
  PhysicalNodePtr cursor = std::move(top);
  while (IsPipelinedPhysOp(cursor->op)) {
    PhysicalNodePtr child = std::move(cursor->children[0]);
    cursor->children.clear();
    top_down.push_back(std::move(cursor));
    cursor = std::move(child);
  }
  PhysicalNodePtr source = std::move(cursor);

  // Bottom-up stage order (the order rows flow through them).
  std::vector<PhysicalNodePtr> stages;
  stages.reserve(top_down.size());
  for (auto it = top_down.rbegin(); it != top_down.rend(); ++it)
    stages.push_back(std::move(*it));

  // Bubble filters downward until fixpoint. Each swap strictly sinks a
  // filter, so this terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < stages.size(); ++i) {
      if (CanSink(stages[i].get(), *stages[i - 1])) {
        std::swap(stages[i - 1], stages[i]);
        changed = true;
      }
    }
  }

  // The leading run of predicate filters now sits directly on the source;
  // their conjuncts that may cross a join move into its inputs (filters of
  // one run commute, so one that stays does not block the ones above it).
  // The inputs' own chains then sink them further, down to the scans.
  for (size_t i = 0; i < stages.size() && stages[i]->op == PhysOp::kFilter &&
                     !stages[i]->is_prob;) {
    if (SinkIntoJoin(stages[i].get(), source.get()))
      stages.erase(stages.begin() + static_cast<ptrdiff_t>(i));
    else
      ++i;
  }
  TPDB_RETURN_IF_ERROR(PushChildren(source.get()));

  // Stage schemas follow their (possibly new) positions.
  Schema schema = source->schema;
  for (PhysicalNodePtr& stage : stages) {
    if (stage->op == PhysOp::kProject) {
      StatusOr<ProjectPlan> plan =
          PlanProjectStage(stage->columns, stage->aliases, schema);
      if (!plan.ok()) return plan.status();
      schema = ProjectOutputSchema(*plan, schema);
    }
    stage->schema = schema;
  }

  // The predicate moves into the scan: conjunctive bounds of the leading
  // filter run, for the zone maps to prune on (cold sources only — warm
  // scans have no segment statistics).
  if ((source->op == PhysOp::kScan || source->op == PhysOp::kBatchScan) &&
      source->cold) {
    std::vector<PhysicalNode*> ptrs;
    ptrs.reserve(stages.size());
    for (const PhysicalNodePtr& stage : stages) ptrs.push_back(stage.get());
    source->scan_predicate = CollectColdScanPredicate(
        ptrs, source->rel->manager(), source->rel->cold_storage().get());
  }

  // Reattach bottom-up.
  PhysicalNodePtr acc = std::move(source);
  for (PhysicalNodePtr& stage : stages) {
    stage->children.clear();
    stage->children.push_back(std::move(acc));
    acc = std::move(stage);
  }
  top = std::move(acc);
  return Status::OK();
}

}  // namespace

Status PushdownPass(PhysicalPlan* plan) {
  TPDB_CHECK(plan != nullptr && plan->root != nullptr);
  return PushChain(plan->root);
}

}  // namespace tpdb
