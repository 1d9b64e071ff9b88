// Shared plumbing of the loopback benchmark: timing, percentiles, the
// canonical row form the correctness gate compares, metrics-registry
// snapshots, and the in-memory span recorder of the traced mode.
#ifndef TPDB_PERFBENCH_BENCH_H_
#define TPDB_PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/row.h"
#include "lineage/lineage.h"
#include "obs/metrics.h"
#include "tp/tp_relation.h"

namespace tpdb::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- percentiles -------------------------------------------------------------

/// Nearest-rank quantile of `samples` (sorted in place). 0 when empty.
double Quantile(std::vector<double>* samples, double q);
/// Samples strictly beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);
double Median(std::vector<double> values);

// -- canonical rows (correctness gate) ----------------------------------------

/// One result tuple in comparable form: up to kMaxFacts int64-or-null fact
/// values, the interval and the probability. Every workload's facts are
/// int64 columns, so this covers all three result shapes.
struct CanonRow {
  static constexpr size_t kMaxFacts = 4;
  std::array<int64_t, kMaxFacts> facts{};
  uint8_t null_mask = 0;
  uint8_t arity = 0;
  int64_t ts = 0;
  int64_t te = 0;
  double prob = 0.0;

  /// Orders by facts, then interval; probability is not part of the key.
  bool KeyLess(const CanonRow& o) const;
  bool KeyEquals(const CanonRow& o) const;
};

/// Wire rows (facts ++ _ts ++ _te ++ _prob) in canonical, key-sorted form.
StatusOr<std::vector<CanonRow>> CanonicalFromWire(const std::vector<Row>& rows);

/// An in-process result with exact ProbabilityEngine probabilities, in
/// canonical, key-sorted form.
StatusOr<std::vector<CanonRow>> CanonicalFromRelation(const TPRelation& rel);

/// Exact contract: same facts and intervals, probabilities within 1e-9.
/// Returns an empty string on a match, else a one-line reason.
std::string CompareExact(const std::vector<CanonRow>& got,
                         const std::vector<CanonRow>& want);

/// APPROX(eps, delta) >= threshold contract, against the exact result of
/// the same statement without the threshold: every returned tuple exists
/// there with the same exact probability (1e-9) and p >= threshold - eps,
/// and at least `recall` of the tuples with p >= threshold + eps come back.
std::string CompareApprox(const std::vector<CanonRow>& got,
                          const std::vector<CanonRow>& exact_all,
                          double threshold, double eps, double recall);

// -- metrics registry snapshots ---------------------------------------------

/// Every counter value and histogram bucket array of the default registry,
/// by metric name.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, obs::HistogramData> histograms;

  static RegistrySnapshot Capture();
  /// `after - before`, per counter and per histogram bucket.
  static RegistrySnapshot Delta(const RegistrySnapshot& before,
                                const RegistrySnapshot& after);
  uint64_t Counter(const std::string& name) const;
  const obs::HistogramData& Histogram(const std::string& name) const;
};

// -- spans -----------------------------------------------------------------

/// One timed call into a layer. Spans of one statement share trace_id;
/// parent is an index into the recorder's span vector (-1 = root).
struct Span {
  uint64_t trace_id = 0;
  int parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder: spans nest by call order, are kept in
/// memory, and are written out once at the end.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* rec, uint64_t trace_id, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, by span index: its duration minus the union
  /// of its children's intervals, in milliseconds.
  std::vector<double> SelfMs() const;
  /// Index of the root span above span `i`.
  int RootOf(int i) const;

  /// chrome://tracing JSON (complete events; args carry parent + trace id).
  Status WriteChromeJson(const std::string& path) const;

 private:
  int Begin(uint64_t trace_id, std::string name);
  void End(int index);

  std::vector<Span> spans_;
  std::vector<int> open_;
};

// -- process -------------------------------------------------------------------

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace tpdb::perfbench

#endif  // TPDB_PERFBENCH_BENCH_H_
