// Per-query tracing: a TraceContext accumulates a tree of timed spans —
// the query phases (parse, optimize, execute) plus one span per physical
// plan node, whose payload is the node's NodeStats actuals — and renders
// them as chrome://tracing JSON (load the file via the chrome://tracing or
// Perfetto UI) or as an indented text tree.
//
// A trace id rides the wire: the kTraceQuery frame carries the client's
// query id, which becomes the trace id, so a span tree seen in the tracing
// UI names the request that produced it. Plan-node spans reuse the exact
// NodeStats slots the Explain rendering reads, which is what makes the
// trace and "Physical plan (est | actual)" agree node-for-node.
//
// TraceContexts are single-threaded by design: one context belongs to one
// query on one session thread (parallel morsels aggregate into NodeStats,
// which the plan-node spans read after the fact).
#ifndef TPDB_OBS_TRACE_H_
#define TPDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tpdb {
struct PhysicalNode;
}  // namespace tpdb

namespace tpdb::obs {

/// One completed span. `parent` is the id of the enclosing span (0 =
/// root). Plan-node spans carry the produced row count in `rows`;
/// phase spans leave it at kNoRows.
struct TraceSpan {
  static constexpr uint64_t kNoRows = ~uint64_t{0};

  uint64_t id = 0;      ///< 1-based, in creation (pre-)order
  uint64_t parent = 0;  ///< 0 = no parent
  std::string name;
  std::string detail;       ///< plan-node label or phase annotation
  uint64_t start_us = 0;    ///< steady-clock microseconds
  uint64_t dur_us = 0;
  uint64_t rows = kNoRows;  ///< plan-node spans: rows produced
  bool plan_node = false;   ///< true for per-PhysicalNode spans
};

class TraceContext {
 public:
  explicit TraceContext(uint64_t trace_id = 0) : trace_id_(trace_id) {}

  uint64_t trace_id() const { return trace_id_; }

  /// Opens a span under the innermost still-open span and returns its id.
  uint64_t StartSpan(std::string name);

  /// Closes the span — must be the innermost open one (spans nest).
  void EndSpan(uint64_t id);

  /// Records an already-measured span (plan nodes, whose timing comes from
  /// NodeStats rather than live start/stop). Returns its id.
  uint64_t AddSpan(TraceSpan span);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// The plan-node spans only, in creation order — pre-order over the
  /// physical tree, matching the Explain rendering line order.
  std::vector<const TraceSpan*> PlanSpans() const;

  /// chrome://tracing "traceEvents" JSON (complete "X" events). The
  /// physical-plan rendering, when given, is embedded under
  /// otherData.physical_plan so one artifact carries both views.
  std::string ToChromeJson(const std::string& physical_plan = "") const;

  /// Indented text tree ("name detail  1.234 ms (rows N)") for logs.
  std::string ToTreeString() const;

 private:
  uint64_t trace_id_;
  std::vector<TraceSpan> spans_;
  std::vector<uint64_t> open_;  ///< stack of open span ids
};

/// Mirrors a physical tree into plan-node spans under `parent`: one span
/// per node that reported actuals, pre-order, named by the node's op and
/// carrying its NodeStats actual rows/time as the payload — exactly the
/// nodes Explain renders with "(actual ...)". A node without actuals (a
/// stage that ran per-morsel inside a parallel region) gets no span; its
/// children hang under the nearest ancestor that has one.
/// `base_start_us` anchors the synthetic span times (NodeStats records
/// durations, not start times; children share their parent's start so
/// the tree nests in the tracing UI).
void AddPlanSpans(const PhysicalNode& node, uint64_t parent,
                  uint64_t base_start_us, TraceContext* trace);

}  // namespace tpdb::obs

#endif  // TPDB_OBS_TRACE_H_
