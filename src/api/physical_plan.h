// Physical plan IR — the optimizing middle layer between the logical
// algebra and the executors. The planner binds a LogicalPlan against the
// catalog into a typed physical-operator tree, runs the pass pipeline over
// it (api/passes/: constant folding, predicate & probability-threshold
// pushdown, projection pruning, zone-map-costed mode selection), and then
// executes the annotated tree. Batch and parallel execution are not
// separate lowerings: a node's form follows from its op, and a parallel
// region is one more node of ONE tree —
//
//   PhysScan / PhysBatchScan   a catalog source (whole or batch-mode; cold
//                              sources carry the pushed-down ScanPredicate
//                              the zone maps prune on)
//   PhysFilter                 σ — a predicate or a probability threshold
//   PhysProject / PhysSort / PhysLimit
//   PhysAggregate              grouped aggregation (batch hash aggregate)
//   PhysTPJoin                 lineage-aware TP join (tp/operators.h)
//   PhysAlign                  temporal-alignment strategy join
//                              (baseline/ta_join.h)
//   PhysTPSetOp                TP union / intersection / difference
//   PhysExchange               parallel-region marker: the chain below it
//                              runs per-morsel with an ordered merge
//
// Every node carries its resolved flattened schema, an estimated
// cardinality + cost (filled by the mode-selection pass), and — after an
// instrumented execution — a pointer to its actual NodeStats, which
// ToString renders side by side ("est … rows" vs "actual … rows").
#ifndef TPDB_API_PHYSICAL_PLAN_H_
#define TPDB_API_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/logical_plan.h"
#include "common/status.h"
#include "engine/explain.h"
#include "storage/scan.h"
#include "tp/overlap_join.h"
#include "tp/tp_relation.h"

namespace tpdb {

class TPDatabase;

/// Node types of the physical algebra.
enum class PhysOp {
  kScan,        ///< catalog source read as a whole relation or table
  kBatchScan,   ///< batch-mode source: TableBatchScan or SegmentBatchScan
  kFilter,      ///< predicate filter or probability threshold
  kProject,
  kAggregate,
  kTPJoin,      ///< lineage-aware TP join
  kTPSetOp,
  kAlign,       ///< temporal-alignment strategy join
  kSort,
  kLimit,
  kExchange,    ///< parallel region: child chain runs per-morsel
};

const char* PhysOpName(PhysOp op);

/// Cost-model annotations (mode-selection pass): estimated output
/// cardinality and cumulative cost in abstract per-row work units.
struct PhysCost {
  double rows = 0.0;
  double cost = 0.0;
};

struct PhysicalNode;
using PhysicalNodePtr = std::unique_ptr<PhysicalNode>;

/// One node of a physical plan. Only the payload fields of its `op` are
/// meaningful; BuildPhysicalPlan constructs each shape from the logical
/// tree and the catalog.
struct PhysicalNode {
  PhysOp op = PhysOp::kScan;
  std::vector<PhysicalNodePtr> children;

  /// Resolved flattened output schema (facts ++ _ts ++ _te ++ _lin).
  Schema schema;

  // kScan / kBatchScan
  std::string relation;
  const TPRelation* rel = nullptr;  ///< bound catalog relation
  bool cold = false;                ///< serves from the columnar backing
  storage::ScanPredicate scan_predicate;  ///< pushdown pass (cold only)

  // kFilter — exactly one of the two forms:
  AstExprPtr predicate;        ///< predicate form (null for probability)
  bool is_prob = false;        ///< probability-threshold form
  double min_prob = 0.0;
  bool min_prob_strict = false;
  /// APPROX(eps, delta): the precision of any sampled value (0 = the
  /// evaluator's fallback precision).
  double approx_eps = 0.0;
  double approx_delta = 0.0;
  /// ProbMethod bitmask of the evaluation rungs the node actually used,
  /// filled in during execution (operators update it through an atomic_ref,
  /// the plan is rendered afterwards). Explain shows it as `prob=...`.
  uint8_t prob_methods = 0;

  // kProject
  std::vector<std::string> columns;
  std::vector<std::string> aliases;

  // kAggregate
  std::vector<std::string> group_by;
  std::vector<std::string> group_aliases;
  std::vector<SelectItem> aggregates;

  // kTPJoin / kAlign
  TPJoinKind join_kind = TPJoinKind::kInner;
  std::vector<std::pair<std::string, std::string>> join_on;
  /// Overlap algorithm of the join. kAuto until the join runs; the
  /// executor then resolves it on the actual inputs
  /// (ChooseOverlapAlgorithm), so an executed plan names what ran.
  OverlapAlgorithm join_algorithm = OverlapAlgorithm::kAuto;

  // kTPSetOp
  SetOpKind set_op = SetOpKind::kUnion;

  // kSort
  std::vector<OrderItem> order_by;
  /// ≥0: only the top `top_k` rows are needed (a downstream Limit was fused
  /// by the top-k pass); enables pruned `ORDER BY _prob DESC` execution.
  int64_t top_k = -1;

  // kLimit
  int64_t limit = 0;
  int64_t offset = 0;

  // kExchange
  int workers = 1;

  /// Cost-model estimates (mode-selection pass).
  PhysCost est;
  /// Actual execution counters of this node, when the plan ran with an
  /// ExecStats registry (null otherwise). Owned by the registry.
  const NodeStats* actual = nullptr;

  /// One-line description, e.g. "BatchScan(events) σ[_ts in [512, inf)]".
  std::string Label() const;

  /// Multi-line indented tree rendering with per-node form ({batch} for a
  /// batch scan, filter, project, limit and aggregate, {row} for the rest),
  /// estimated rows/cost, and actual rows/time when present.
  std::string ToString(int indent = 0) const;
};

/// A complete physical plan (owning its node tree). The bound relation
/// pointers reference the catalog: a plan is valid while the catalog lock
/// that existed at build time is held, or until the next DDL.
struct PhysicalPlan {
  PhysicalNodePtr root;

  std::string ToString() const {
    return root ? root->ToString() : "<empty>";
  }
};

/// Binds `plan` against `db`'s catalog (the caller must hold the catalog
/// at least shared) into an unoptimized physical tree: scans resolve their
/// relations, projections and aggregates resolve their columns, joins
/// compute their output schemas. Snapshot statements are not physical —
/// the planner handles them before lowering.
StatusOr<PhysicalPlan> BuildPhysicalPlan(const LogicalPlan& plan,
                                         TPDatabase* db);

/// True for the pipelined physical ops that fuse into one operator chain
/// (filter / project / sort / limit — exchange is a chain marker, not a
/// stage).
bool IsPipelinedPhysOp(PhysOp op);

/// True for a bound catalog source (PhysScan / PhysBatchScan).
bool IsCatalogSource(const PhysicalNode& source);

}  // namespace tpdb

#endif  // TPDB_API_PHYSICAL_PLAN_H_
