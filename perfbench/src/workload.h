// The benchmark's three workloads and the runner that runs one of them
// against an in-process tpdb server over loopback.
#ifndef TPDB_PERFBENCH_WORKLOAD_H_
#define TPDB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "tp/operators.h"

namespace tpdb::perfbench {

enum class DataKind { kWebkit, kMeteo, kUniform };

/// Everything that distinguishes one workload. Each connection role runs
/// exactly one statement shape, so its latency has a single mode.
struct WorkloadSpec {
  std::string name;
  DataKind data = DataKind::kWebkit;
  /// Tuples per generated relation.
  int64_t tuples = 0;
  /// Written with SaveSnapshot and served from LoadSnapshot (else the
  /// generated relations are served from memory).
  bool snapshot = false;
  /// WAL armed (one fsync per append) plus an open-loop stream of
  /// one-row Appends.
  bool append_stream = false;

  // The statement shape: SELECT * FROM left <kind> JOIN right ON column.
  TPJoinKind kind = TPJoinKind::kInner;
  std::string left;
  std::string right;
  std::string column;
  /// `WHERE key = k` with a seeded k per statement.
  bool point_key = false;
  /// `WITH PROB APPROX(eps, delta) >= threshold`.
  bool approx = false;

  /// Closed-loop query connections.
  size_t query_connections = 1;
  /// Timed statements per --seconds, summed over connections: the fixed
  /// operation count is this rate times --seconds.
  double statements_per_second = 0.0;
  /// Untimed statements in the set-up warm-up pass (point-key shapes visit
  /// every query key once instead).
  size_t warmup_statements = 0;
  /// Traced-mode statements (each followed by an in-process replay).
  size_t traced_statements = 0;
  /// Tuples per relation of the reduced NJ-vs-TA left outer join record
  /// (0 = not recorded on this workload).
  int64_t paper_tuples = 0;
};

/// The registered workloads, by name.
const std::vector<WorkloadSpec>& Workloads();

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory (snapshots, WAL, span dumps); created and owned by
  /// the caller.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced mode) or per-layer metrics (traced mode),
  /// in the order printed.
  std::vector<Metric> metrics;
};

/// Runs `spec` once: repeated set-up, the fixed-count timed phase, the
/// correctness gate and, in traced mode, the per-layer breakdown. Prints
/// human-readable lines to stdout as it goes.
StatusOr<RunReport> RunWorkload(const WorkloadSpec& spec,
                                const RunOptions& options);

}  // namespace tpdb::perfbench

#endif  // TPDB_PERFBENCH_WORKLOAD_H_
