// Physical-plan layer benchmark, emitting BENCH_plan.json: plan
// construction latency over a cold input — parse → logical plan, logical
// → bound physical tree (BuildPhysicalPlan), and the optimizer pass
// pipeline (fold → pushdown → prune → mode select), each timed
// separately.
//
// Like bench_storage this is a plain main():
//
//   ./bench/bench_physical_plan [out.json]
//
// TPDB_BENCH_SCALE multiplies the workload size (default 20000 tuples).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/passes/passes.h"
#include "api/physical_plan.h"
#include "api/planner.h"
#include "common/random.h"
#include "datasets/generator.h"

namespace tpdb {
namespace {

using Clock = std::chrono::steady_clock;

double TimeBestOf(int reps, const std::function<void()>& run) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    run();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

struct PlanLatency {
  std::string query;
  double parse_us = 0.0;
  double build_us = 0.0;
  double passes_us = 0.0;
};

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_plan.json";
  const char* scale_env = std::getenv("TPDB_BENCH_SCALE");
  const int64_t scale = scale_env != nullptr && std::atoll(scale_env) > 0
                            ? std::atoll(scale_env)
                            : 1;
  const int64_t tuples = 20000 * scale;
  const int reps = 5;

  // -- Workload ----------------------------------------------------------
  TPDatabase warm;
  {
    Random rng(20260729);
    UniformWorkloadOptions options;
    options.num_tuples = tuples;
    options.num_facts = std::max<int64_t>(tuples / 40, 8);
    options.history_length = 20000;
    StatusOr<TPRelation> r =
        MakeUniformWorkload(warm.manager(), "r", options, &rng);
    TPDB_CHECK(r.ok()) << r.status().ToString();
    TPDB_CHECK(warm.Register(std::move(*r)).ok());
  }
  const std::string snapshot_path = out_path + ".scratch.tpdb";
  TPDB_CHECK(warm.SaveSnapshot(snapshot_path).ok());
  TPDatabase cold;
  TPDB_CHECK(cold.LoadSnapshot(snapshot_path).ok());
  TPDB_CHECK((*cold.Get("r"))->cold_storage() != nullptr);

  const int64_t key_cut = std::max<int64_t>(tuples / 40, 8) / 3;
  const std::vector<std::string> queries = {
      "SELECT * FROM r WHERE key >= " + std::to_string(key_cut),
      "SELECT * FROM r WHERE key >= " + std::to_string(key_cut) +
          " AND _ts < 10000",
      "SELECT key FROM r WHERE key >= 2 ORDER BY key LIMIT 100",
      "SELECT key, COUNT(*) AS n, MAX(key) FROM r WHERE key >= " +
          std::to_string(key_cut) + " GROUP BY key",
      "SELECT * FROM r WITH PROB >= 0.5",
  };

  // -- Plan-construction + pass-pipeline latency -------------------------
  std::vector<PlanLatency> latencies;
  for (const std::string& query : queries) {
    PlanLatency lat;
    lat.query = query;
    lat.parse_us =
        1e6 * TimeBestOf(reps, [&] { TPDB_CHECK(cold.Plan(query).ok()); });
    StatusOr<LogicalPlan> logical = cold.Plan(query);
    TPDB_CHECK(logical.ok());
    lat.build_us = 1e6 * TimeBestOf(reps, [&] {
                     TPDB_CHECK(BuildPhysicalPlan(*logical, &cold).ok());
                   });
    PlannerOptions options;
    const PassContext pass_ctx{&options, /*parallelism=*/4};
    lat.passes_us = 1e6 * TimeBestOf(reps, [&] {
                      StatusOr<PhysicalPlan> plan =
                          BuildPhysicalPlan(*logical, &cold);
                      TPDB_CHECK(plan.ok());
                      TPDB_CHECK(RunPassPipeline(&*plan, pass_ctx).ok());
                    }) -
                    lat.build_us;
    latencies.push_back(std::move(lat));
  }

  // -- Emit --------------------------------------------------------------
  FILE* out = std::fopen(out_path.c_str(), "w");
  TPDB_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out, "{\n  \"tuples\": %lld,\n",
               static_cast<long long>(tuples));
  std::fprintf(out, "  \"plan_latency_us\": [\n");
  for (size_t i = 0; i < latencies.size(); ++i) {
    const PlanLatency& l = latencies[i];
    std::fprintf(out,
                 "    {\"query\": \"%s\", \"parse\": %.2f, \"build\": %.2f, "
                 "\"passes\": %.2f}%s\n",
                 l.query.c_str(), l.parse_us, l.build_us,
                 std::max(0.0, l.passes_us),
                 i + 1 < latencies.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::remove(snapshot_path.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tpdb

int main(int argc, char** argv) { return tpdb::Main(argc, argv); }
