#include "obs/trace.h"

#include <cstdio>

#include "api/physical_plan.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace tpdb::obs {

uint64_t TraceContext::StartSpan(std::string name) {
  TraceSpan span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = std::move(name);
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void TraceContext::EndSpan(uint64_t id) {
  TPDB_CHECK(!open_.empty() && open_.back() == id)
      << "EndSpan(" << id << ") does not close the innermost open span";
  TraceSpan& span = spans_[id - 1];
  span.dur_us = NowUs() - span.start_us;
  open_.pop_back();
}

uint64_t TraceContext::AddSpan(TraceSpan span) {
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<const TraceSpan*> TraceContext::PlanSpans() const {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& span : spans_) {
    if (span.plan_node) out.push_back(&span);
  }
  return out;
}

std::string TraceContext::ToChromeJson(
    const std::string& physical_plan) const {
  std::string events;
  for (const TraceSpan& span : spans_) {
    if (!events.empty()) events += ",";
    events += "{\"name\":";
    AppendJsonEscaped(span.name, &events);
    events += ",\"cat\":\"";
    events += span.plan_node ? "plan" : "phase";
    events += "\",\"ph\":\"X\",\"ts\":" + std::to_string(span.start_us) +
              ",\"dur\":" + std::to_string(span.dur_us) +
              ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" +
              std::to_string(span.id) +
              ",\"parent\":" + std::to_string(span.parent);
    if (span.rows != TraceSpan::kNoRows)
      events += ",\"rows\":" + std::to_string(span.rows);
    if (!span.detail.empty()) {
      events += ",\"detail\":";
      AppendJsonEscaped(span.detail, &events);
    }
    events += "}}";
  }
  std::string other = "{\"trace_id\":" + std::to_string(trace_id_);
  if (!physical_plan.empty()) {
    other += ",\"physical_plan\":";
    AppendJsonEscaped(physical_plan, &other);
  }
  other += "}";
  return "{\"traceEvents\":[" + events + "],\"otherData\":" + other + "}";
}

std::string TraceContext::ToTreeString() const {
  // Depth = distance to the root through parent ids (spans are created
  // parents-first, so a single forward pass suffices).
  std::vector<int> depth(spans_.size(), 0);
  std::string out;
  for (const TraceSpan& span : spans_) {
    const int d =
        span.parent == 0 ? 0 : depth[static_cast<size_t>(span.parent) - 1] + 1;
    depth[span.id - 1] = d;
    out.append(static_cast<size_t>(d) * 2, ' ');
    out += span.name;
    if (!span.detail.empty()) out += " " + span.detail;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %.3f ms",
                  static_cast<double>(span.dur_us) / 1e3);
    out += buf;
    if (span.rows != TraceSpan::kNoRows)
      out += " (rows " + std::to_string(span.rows) + ")";
    out += "\n";
  }
  return out;
}

void AddPlanSpans(const PhysicalNode& node, uint64_t parent,
                  uint64_t base_start_us, TraceContext* trace) {
  uint64_t id = parent;
  if (node.actual != nullptr) {
    TraceSpan span;
    span.parent = parent;
    span.name = PhysOpName(node.op);
    span.detail = node.Label();
    span.start_us = base_start_us;
    span.plan_node = true;
    span.dur_us = static_cast<uint64_t>(node.actual->seconds * 1e6);
    span.rows = node.actual->rows;
    id = trace->AddSpan(std::move(span));
  }
  for (const PhysicalNodePtr& child : node.children)
    AddPlanSpans(*child, id, base_start_us, trace);
}

}  // namespace tpdb::obs
