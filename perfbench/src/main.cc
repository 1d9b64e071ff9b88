// Loopback benchmark of the tpdb server: one workload per run, an
// in-process server driven by in-process wire clients, every result checked.
//
//   tpdb_loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: tpdb_loopbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tpdb::perfbench;
  std::string workload;
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    long long n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (!ParseInt(value, &n) || n < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      opts.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      opts.trace = n != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (opts.work_dir.empty()) return Usage("--work-dir is required");
  if (opts.seconds < 1) return Usage("--seconds must be at least 1");
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads())
    if (w.name == workload) spec = &w;
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  tpdb::StatusOr<RunReport> report = RunWorkload(*spec, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += report->correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report->attempted);
  json += ", \"failed\": " + std::to_string(report->failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report->metrics.size(); ++i) {
    const Metric& m = report->metrics[i];
    // A failed operation makes a latency infinite; JSON has no infinity.
    const double value = std::isfinite(m.value) ? m.value : 1e300;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report->correct ? 0 : 1;
}
