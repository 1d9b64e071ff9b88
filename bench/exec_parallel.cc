// Serial-vs-parallel throughput of the exec/ runtime: the NJ overlap join,
// the TP set operations and SQL GROUP BY at 1/2/4/8 workers, emitting
// BENCH_exec.json (the baseline for the exec trajectory).
//
// Unlike the figure benches this one is a plain main(): it sweeps thread
// counts over its own pools, which the google-benchmark harness cannot
// express cleanly, and machine-readable output matters more than
// statistical repetition here (each point takes the best of 3 runs).
//
//   ./bench/bench_exec_parallel [out.json]
//
// TPDB_BENCH_SCALE multiplies the workload size (default 8000 tuples/side,
// 30000 rows per aggregated relation).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/database.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "exec/parallel.h"
#include "exec/session.h"
#include "exec/thread_pool.h"

namespace tpdb {
namespace {

using Clock = std::chrono::steady_clock;

struct Measurement {
  std::string op;
  int threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;  // serial seconds / this
  size_t result_rows = 0;
};

/// Best of `reps` timed runs, after one untimed warm-up run so that no
/// row's first (1-worker) point pays for the cache warm-up.
double TimeBestOf(int reps, const std::function<size_t()>& run,
                  size_t* rows) {
  *rows = run();
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    *rows = run();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (seconds < best) best = seconds;
  }
  return best;
}

int Main(int argc, char** argv) {
  const char* scale_env = std::getenv("TPDB_BENCH_SCALE");
  const int64_t scale =
      scale_env != nullptr && std::atoll(scale_env) > 0
          ? std::atoll(scale_env)
          : 1;
  const int64_t tuples = 8000 * scale;

  LineageManager manager;
  Random rng(1234);
  UniformWorkloadOptions options;
  options.num_tuples = tuples;
  // Probe-heavy shape: few keys and long durations make each driving tuple
  // overlap many probe tuples, which is where parallelism pays.
  options.num_facts = std::max<int64_t>(tuples / 40, 8);
  options.history_length = 20000;
  options.avg_duration = 120.0;
  options.gap_probability = 0.2;
  StatusOr<TPRelation> r = MakeUniformWorkload(&manager, "r", options, &rng);
  TPDB_CHECK(r.ok()) << r.status().ToString();
  StatusOr<TPRelation> s = MakeUniformWorkload(&manager, "s", options, &rng);
  TPDB_CHECK(s.ok()) << s.status().ToString();

  const JoinCondition theta = JoinCondition::Equals("key");
  TPJoinOptions join_options;
  join_options.validate_inputs = false;  // time the operator, not the check

  std::vector<Measurement> results;
  const int reps = 3;

  // `run` gets the worker count and a context with that many workers on a
  // pool of its own (SQL rows ignore the context: the planner runs on the
  // shared pool).
  const auto sweep = [&](const std::string& op,
                         const std::function<size_t(int, ExecContext*)>& run) {
    double serial_seconds = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      Measurement m;
      m.op = op;
      m.threads = threads;
      if (threads == 1) {
        // parallelism 1 = the serial operator path, no pool at all.
        ExecContext ctx(nullptr, ExecOptions{.parallelism = 1});
        m.seconds = TimeBestOf(
            reps, [&] { return run(threads, &ctx); }, &m.result_rows);
        serial_seconds = m.seconds;
      } else {
        ThreadPool pool(static_cast<size_t>(threads));
        ExecOptions exec_options;
        exec_options.parallelism = threads;
        exec_options.min_parallel_rows = 64;
        ExecContext ctx(&pool, exec_options);
        m.seconds = TimeBestOf(
            reps, [&] { return run(threads, &ctx); }, &m.result_rows);
      }
      m.speedup = serial_seconds / m.seconds;
      std::printf("%-14s threads=%d  %8.3f ms  speedup=%.2fx  rows=%zu\n",
                  op.c_str(), threads, m.seconds * 1000.0, m.speedup,
                  m.result_rows);
      results.push_back(m);
    }
  };

  sweep("join_inner", [&](int, ExecContext* ctx) -> size_t {
    StatusOr<TPRelation> out = ParallelTPJoin(
        ctx, TPJoinKind::kInner, *r, *s, theta, join_options);
    TPDB_CHECK(out.ok()) << out.status().ToString();
    return out->size();
  });
  sweep("join_louter", [&](int, ExecContext* ctx) -> size_t {
    StatusOr<TPRelation> out = ParallelTPJoin(
        ctx, TPJoinKind::kLeftOuter, *r, *s, theta, join_options);
    TPDB_CHECK(out.ok()) << out.status().ToString();
    return out->size();
  });
  sweep("union", [&](int, ExecContext* ctx) -> size_t {
    StatusOr<TPRelation> out =
        ParallelTPSetOp(ctx, TPSetOpKind::kUnion, *r, *s);
    TPDB_CHECK(out.ok()) << out.status().ToString();
    return out->size();
  });
  sweep("intersect", [&](int, ExecContext* ctx) -> size_t {
    StatusOr<TPRelation> out =
        ParallelTPSetOp(ctx, TPSetOpKind::kIntersect, *r, *s);
    TPDB_CHECK(out.ok()) << out.status().ToString();
    return out->size();
  });

  // SQL GROUP BY through the planner, over a warm and a cold catalog chain
  // at 64 and 4 096 groups and over a join result. The chain under an
  // aggregate runs serially, so these rows are the baseline a per-morsel
  // partial-state aggregate has to beat.
  const int64_t agg_rows = 30000 * scale;
  TPDatabase warm;
  for (const int64_t groups : {64, 4096}) {
    UniformWorkloadOptions agg_options;
    agg_options.num_tuples = agg_rows;
    agg_options.num_facts = groups;
    StatusOr<TPRelation> rel = MakeUniformWorkload(
        warm.manager(), "g" + std::to_string(groups), agg_options, &rng);
    TPDB_CHECK(rel.ok()) << rel.status().ToString();
    TPDB_CHECK(warm.Register(std::move(*rel)).ok());
  }
  UniformWorkloadOptions join_inputs;
  join_inputs.num_tuples = tuples;
  join_inputs.num_facts = 4096;
  for (const char* name : {"jr", "js"}) {
    StatusOr<TPRelation> rel =
        MakeUniformWorkload(warm.manager(), name, join_inputs, &rng);
    TPDB_CHECK(rel.ok()) << rel.status().ToString();
    TPDB_CHECK(warm.Register(std::move(*rel)).ok());
  }
  const std::string snapshot =
      (std::filesystem::temp_directory_path() /
       ("bench_exec_parallel_" + std::to_string(::getpid()) + ".tpdb"))
          .string();
  TPDB_CHECK(warm.SaveSnapshot(snapshot).ok());
  TPDatabase cold;
  TPDB_CHECK(cold.LoadSnapshot(snapshot).ok());
  const auto sql = [](TPDatabase* db, const std::string& query) {
    return [db, query](int threads, ExecContext*) -> size_t {
      SessionOptions session;
      session.parallelism = threads;
      StatusOr<TPRelation> out = Session(db, session).Query(query);
      TPDB_CHECK(out.ok()) << out.status().ToString();
      return out->size();
    };
  };
  for (const char* groups : {"64", "4096"}) {
    const std::string query =
        std::string("SELECT key, COUNT(*), MAX(key) FROM g") + groups +
        " WHERE key >= 1 GROUP BY key";
    sweep(std::string("agg_warm_") + groups, sql(&warm, query));
    sweep(std::string("agg_cold_") + groups, sql(&cold, query));
  }
  sweep("agg_join", sql(&warm,
                        "SELECT key, COUNT(*), MAX(key_s) FROM jr LEFT JOIN "
                        "js ON key GROUP BY key"));
  std::remove(snapshot.c_str());

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_exec.json";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TPDB_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f, "{\n  \"workload\": {\"tuples_per_side\": %lld, "
               "\"keys\": %lld, \"theta\": \"key = key\", "
               "\"agg_rows\": %lld, \"agg_join_keys\": %lld},\n",
               static_cast<long long>(tuples),
               static_cast<long long>(options.num_facts),
               static_cast<long long>(agg_rows),
               static_cast<long long>(join_inputs.num_facts));
  std::fprintf(f, "  \"hardware_threads\": %zu,\n",
               ThreadPool::HardwareParallelism());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"threads\": %d, \"seconds\": %.6f, "
                 "\"speedup\": %.3f, \"rows\": %zu}%s\n",
                 m.op.c_str(), m.threads, m.seconds, m.speedup,
                 m.result_rows, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tpdb

int main(int argc, char** argv) { return tpdb::Main(argc, argv); }
