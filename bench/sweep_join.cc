// Overlap-join algorithm choice, emitting BENCH_join.json — the CI gate of
// kAuto's data rule (ChooseOverlapAlgorithm). Three serial runs of the NJ
// window pipeline of a left outer join (overlap join → LAWAU → LAWAN,
// flattening included) over each workload shape:
//
//   probe    OverlapAlgorithm::kPartitioned (the paper's NJ plan)
//   sweep    OverlapAlgorithm::kSweep
//   auto     OverlapAlgorithm::kAuto (the default: picks one of the two
//            from the probe's candidate pairs per input row)
//
// on six shapes: uniform keys, Zipf 0.8 / 1.2 / 2.0 key histograms, and
// the Webkit (10k) and Meteo (1k) generators of the paper's datasets. The
// per-window lineage concatenation that turns the windows into join
// tuples does the same work under every algorithm and is left out of the
// timed span; it runs once per algorithm for the parity check.
//
// The process exits non-zero if (a) any algorithm's join result diverges
// element-wise from the probe's (values, intervals, or probabilities),
// (b) kAuto is more than 10% slower than the faster forced algorithm on
// any shape, or (c) kAuto is less than 3x faster than the probe on
// Zipf 2.0. Both ratios are medians over rounds of the per-round ratio,
// and the reported times are medians, so one noisy round moves nothing.
//
//   ./bench/bench_sweep_join [out.json]
//
// TPDB_BENCH_SCALE multiplies the synthetic shapes' size (default 8000
// tuples/side).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "datasets/generator.h"
#include "datasets/meteo.h"
#include "datasets/webkit.h"
#include "exec/thread_pool.h"
#include "lineage/probability.h"
#include "tp/operators.h"
#include "tp/plans.h"

namespace tpdb {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kAutoSlack = 1.10;          // auto vs the faster forced
constexpr double kRequiredSkewSpeedup = 3.0;  // auto vs probe, Zipf 2.0
// Rounds per shape: at least kMinRounds, and more until the shape has
// been timed for kMinSeconds, so the millisecond-sized shapes get as
// steady a median as the slow ones.
constexpr int kMinRounds = 21;
constexpr double kMinSeconds = 0.5;

struct CanonicalTuple {
  Row fact;
  Interval interval;
  double probability;
};

std::vector<CanonicalTuple> Canonicalize(const TPRelation& rel) {
  ProbabilityEngine engine(rel.manager());
  std::vector<CanonicalTuple> out;
  out.reserve(rel.size());
  for (const TPTuple& t : rel.tuples())
    out.push_back(
        CanonicalTuple{t.fact, t.interval, engine.Probability(t.lineage)});
  std::sort(out.begin(), out.end(),
            [](const CanonicalTuple& a, const CanonicalTuple& b) {
              const int c = CompareRows(a.fact, b.fact);
              if (c != 0) return c < 0;
              if (a.interval != b.interval) return a.interval < b.interval;
              return a.probability < b.probability;
            });
  return out;
}

bool SameContents(const TPRelation& a, const TPRelation& b) {
  if (a.size() != b.size()) return false;
  const std::vector<CanonicalTuple> ca = Canonicalize(a);
  const std::vector<CanonicalTuple> cb = Canonicalize(b);
  for (size_t i = 0; i < ca.size(); ++i) {
    if (CompareRows(ca[i].fact, cb[i].fact) != 0) return false;
    if (ca[i].interval != cb[i].interval) return false;
    if (std::abs(ca[i].probability - cb[i].probability) > 1e-9) return false;
  }
  return true;
}

struct Shape {
  std::string name;
  std::unique_ptr<TPRelation> r;
  std::unique_ptr<TPRelation> s;
  JoinCondition theta;
};

/// Uniform-generator pair with `tuples / 8` keys, Zipf-allocated.
Shape MakeKeyed(LineageManager* manager, const std::string& name,
                int64_t tuples, double zipf, uint64_t seed) {
  Random rng(seed);
  UniformWorkloadOptions options;
  options.num_tuples = tuples;
  options.num_facts = std::max<int64_t>(tuples / 8, 8);
  options.history_length = 20000;
  options.avg_duration = 120.0;
  options.gap_probability = 0.2;
  options.fact_skew = zipf;
  StatusOr<TPRelation> r =
      MakeUniformWorkload(manager, name + "_r", options, &rng);
  TPDB_CHECK(r.ok()) << r.status().ToString();
  StatusOr<TPRelation> s =
      MakeUniformWorkload(manager, name + "_s", options, &rng);
  TPDB_CHECK(s.ok()) << s.status().ToString();
  return Shape{name, std::make_unique<TPRelation>(std::move(*r)),
               std::make_unique<TPRelation>(std::move(*s)),
               JoinCondition::Equals("key")};
}

Shape MakeWebkit(LineageManager* manager) {
  WebkitOptions options;
  options.num_tuples = 10000;
  StatusOr<WebkitDataset> ds = MakeWebkitDataset(manager, options);
  TPDB_CHECK(ds.ok()) << ds.status().ToString();
  return Shape{"webkit", std::make_unique<TPRelation>(std::move(ds->r)),
               std::make_unique<TPRelation>(std::move(ds->s)), ds->theta};
}

Shape MakeMeteo(LineageManager* manager) {
  MeteoOptions options;
  options.num_tuples = 1000;
  StatusOr<MeteoDataset> ds = MakeMeteoDataset(manager, options);
  TPDB_CHECK(ds.ok()) << ds.status().ToString();
  return Shape{"meteo", std::make_unique<TPRelation>(std::move(ds->r)),
               std::make_unique<TPRelation>(std::move(ds->s)), ds->theta};
}

struct Result {
  std::string shape;
  double candidates_per_row = 0.0;
  std::string chosen;
  double probe_s = 0.0;
  double sweep_s = 0.0;
  double auto_s = 0.0;
  double auto_ratio = 0.0;  ///< median of auto / min(probe, sweep)
  size_t rounds = 0;
  size_t rows = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Main(int argc, char** argv) {
  const char* scale_env = std::getenv("TPDB_BENCH_SCALE");
  const int64_t scale = scale_env != nullptr && std::atoll(scale_env) > 0
                            ? std::atoll(scale_env)
                            : 1;
  const int64_t tuples = 8000 * scale;

  LineageManager manager;
  std::vector<Shape> shapes;
  shapes.push_back(MakeKeyed(&manager, "uniform", tuples, 0.0, 1234));
  shapes.push_back(MakeKeyed(&manager, "zipf0.8", tuples, 0.8, 5678));
  shapes.push_back(MakeKeyed(&manager, "zipf1.2", tuples, 1.2, 5679));
  shapes.push_back(MakeKeyed(&manager, "zipf2.0", tuples, 2.0, 5680));
  shapes.push_back(MakeWebkit(&manager));
  shapes.push_back(MakeMeteo(&manager));

  const TPJoinKind kind = TPJoinKind::kLeftOuter;
  const OverlapAlgorithm algorithms[] = {OverlapAlgorithm::kPartitioned,
                                         OverlapAlgorithm::kSweep,
                                         OverlapAlgorithm::kAuto};

  bool parity_ok = true;
  bool auto_ok = true;
  double skew_speedup = 0.0;
  std::vector<Result> results;

  for (const Shape& shape : shapes) {
    Result res;
    res.shape = shape.name;
    res.candidates_per_row =
        OverlapCandidatesPerRow(*shape.r, *shape.s, shape.theta);
    res.chosen = OverlapAlgorithmName(ChooseOverlapAlgorithm(
        OverlapAlgorithm::kAuto, *shape.r, *shape.s, shape.theta));

    // Each round times the three back to back (in rotating order), so a
    // round's ratios compare runs made under the same load.
    std::vector<double> seconds[3];
    double timed = 0.0;
    for (int rep = 0; rep < kMinRounds || timed < kMinSeconds; ++rep) {
      for (int i = 0; i < 3; ++i) {
        const int a = (rep + i) % 3;
        const Clock::time_point start = Clock::now();
        StatusOr<WindowPlan> plan = MakeWindowPlan(
            *shape.r, *shape.s, shape.theta, WindowStage::kWuon,
            algorithms[a]);
        TPDB_CHECK(plan.ok()) << plan.status().ToString();
        plan->root->Open();
        while (plan->root->NextRef() != nullptr) {
        }
        plan->root->Close();
        seconds[a].push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
        timed += seconds[a].back();
      }
    }
    std::unique_ptr<TPRelation> out[3];
    for (int a = 0; a < 3; ++a) {
      TPJoinOptions options;
      options.overlap_algorithm = algorithms[a];
      StatusOr<TPRelation> joined =
          TPJoin(kind, *shape.r, *shape.s, shape.theta, options);
      TPDB_CHECK(joined.ok()) << joined.status().ToString();
      out[a] = std::make_unique<TPRelation>(std::move(*joined));
    }
    for (int a = 1; a < 3; ++a) {
      if (!SameContents(*out[0], *out[a])) {
        std::fprintf(stderr, "PARITY FAILURE: %s/%s diverges from probe\n",
                     shape.name.c_str(), OverlapAlgorithmName(algorithms[a]));
        parity_ok = false;
      }
    }
    std::vector<double> auto_ratio, skew_ratio;
    for (size_t rep = 0; rep < seconds[0].size(); ++rep) {
      auto_ratio.push_back(seconds[2][rep] /
                           std::min(seconds[0][rep], seconds[1][rep]));
      skew_ratio.push_back(seconds[0][rep] / seconds[2][rep]);
    }
    res.rounds = seconds[0].size();
    res.probe_s = Median(seconds[0]);
    res.sweep_s = Median(seconds[1]);
    res.auto_s = Median(seconds[2]);
    res.auto_ratio = Median(auto_ratio);
    res.rows = out[0]->size();

    if (res.auto_ratio > kAutoSlack) {
      std::fprintf(stderr,
                   "FAIL: %s auto takes %.2fx the faster forced algorithm "
                   "(allowed %.2fx)\n",
                   shape.name.c_str(), res.auto_ratio, kAutoSlack);
      auto_ok = false;
    }
    if (shape.name == "zipf2.0") skew_speedup = Median(skew_ratio);
    std::printf("%-8s cand/row %7.1f -> %-11s probe %8.3f ms  sweep %8.3f ms"
                "  auto %8.3f ms (%.2fx faster forced)  rounds=%zu\n",
                res.shape.c_str(), res.candidates_per_row, res.chosen.c_str(),
                res.probe_s * 1000.0, res.sweep_s * 1000.0,
                res.auto_s * 1000.0, res.auto_ratio, res.rounds);
    results.push_back(res);
  }

  const bool speedup_ok = skew_speedup >= kRequiredSkewSpeedup;
  std::printf("zipf2.0: auto %.2fx faster than probe (required %.1fx)\n",
              skew_speedup, kRequiredSkewSpeedup);

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_join.json";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TPDB_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f,
               "{\n  \"workloads\": {\"synthetic_tuples_per_side\": %lld, "
               "\"timed\": \"left-outer window pipeline\", "
               "\"threads\": 1},\n",
               static_cast<long long>(tuples));
  std::fprintf(f, "  \"hardware_threads\": %zu,\n",
               ThreadPool::HardwareParallelism());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& m = results[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"candidates_per_row\": %.2f, "
                 "\"chosen\": \"%s\", \"probe_s\": %.6f, \"sweep_s\": %.6f, "
                 "\"auto_s\": %.6f, \"auto_vs_faster\": %.3f, "
                 "\"rounds\": %zu, \"rows\": %zu}%s\n",
                 m.shape.c_str(), m.candidates_per_row, m.chosen.c_str(),
                 m.probe_s, m.sweep_s, m.auto_s, m.auto_ratio, m.rounds,
                 m.rows,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gates\": {\"parity\": %s, \"auto_within_10pct\": %s, "
               "\"skew_speedup\": %.3f, \"required\": %.1f}\n}\n",
               parity_ok ? "true" : "false", auto_ok ? "true" : "false",
               skew_speedup, kRequiredSkewSpeedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!parity_ok) {
    std::fprintf(stderr, "FAIL: algorithm parity violated\n");
    return 1;
  }
  if (!auto_ok) return 1;
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: zipf2.0 auto speedup %.2fx < required %.1fx\n",
                 skew_speedup, kRequiredSkewSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tpdb

int main(int argc, char** argv) { return tpdb::Main(argc, argv); }
