#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lineage/probability.h"

namespace tpdb::perfbench {

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  return (*samples)[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

// -- canonical rows ------------------------------------------------------------

bool CanonRow::KeyLess(const CanonRow& o) const {
  if (arity != o.arity) return arity < o.arity;
  for (size_t i = 0; i < arity; ++i) {
    const bool null_a = (null_mask >> i) & 1;
    const bool null_b = (o.null_mask >> i) & 1;
    if (null_a != null_b) return null_a;
    if (!null_a && facts[i] != o.facts[i]) return facts[i] < o.facts[i];
  }
  if (ts != o.ts) return ts < o.ts;
  return te < o.te;
}

bool CanonRow::KeyEquals(const CanonRow& o) const {
  return !KeyLess(o) && !o.KeyLess(*this);
}

namespace {

Status SetFact(CanonRow* row, size_t i, const Datum& d) {
  if (d.type() == DatumType::kNull) {
    row->null_mask |= static_cast<uint8_t>(1u << i);
    return Status::OK();
  }
  if (d.type() != DatumType::kInt64)
    return Status::InvalidArgument("non-int64 fact value " + d.ToString());
  row->facts[i] = d.AsInt64();
  return Status::OK();
}

void SortByKey(std::vector<CanonRow>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const CanonRow& a, const CanonRow& b) { return a.KeyLess(b); });
}

std::string RowText(const CanonRow& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.arity; ++i) {
    if (i > 0) s += ", ";
    s += ((r.null_mask >> i) & 1) ? "NULL" : std::to_string(r.facts[i]);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), ") [%lld, %lld) p=%.12g",
                static_cast<long long>(r.ts), static_cast<long long>(r.te),
                r.prob);
  return s + buf;
}

}  // namespace

StatusOr<std::vector<CanonRow>> CanonicalFromWire(
    const std::vector<Row>& rows) {
  std::vector<CanonRow> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    if (row.size() < 3 || row.size() - 3 > CanonRow::kMaxFacts)
      return Status::InvalidArgument("unexpected wire row arity");
    CanonRow c;
    c.arity = static_cast<uint8_t>(row.size() - 3);
    for (size_t i = 0; i < c.arity; ++i)
      TPDB_RETURN_IF_ERROR(SetFact(&c, i, row[i]));
    const Datum& ts = row[c.arity];
    const Datum& te = row[c.arity + 1];
    const Datum& p = row[c.arity + 2];
    if (ts.type() != DatumType::kInt64 || te.type() != DatumType::kInt64 ||
        p.type() != DatumType::kDouble)
      return Status::InvalidArgument("malformed _ts/_te/_prob columns");
    c.ts = ts.AsInt64();
    c.te = te.AsInt64();
    c.prob = p.AsDouble();
    out.push_back(c);
  }
  SortByKey(&out);
  return out;
}

StatusOr<std::vector<CanonRow>> CanonicalFromRelation(const TPRelation& rel) {
  ProbabilityEngine engine(rel.manager());
  std::vector<CanonRow> out;
  out.reserve(rel.size());
  for (const TPTuple& t : rel.tuples()) {
    if (t.fact.size() > CanonRow::kMaxFacts)
      return Status::InvalidArgument("unexpected fact arity");
    CanonRow c;
    c.arity = static_cast<uint8_t>(t.fact.size());
    for (size_t i = 0; i < c.arity; ++i)
      TPDB_RETURN_IF_ERROR(SetFact(&c, i, t.fact[i]));
    c.ts = t.interval.start;
    c.te = t.interval.end;
    c.prob = engine.Probability(t.lineage);
    out.push_back(c);
  }
  SortByKey(&out);
  return out;
}

std::string CompareExact(const std::vector<CanonRow>& got,
                         const std::vector<CanonRow>& want) {
  if (got.size() != want.size())
    return "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!got[i].KeyEquals(want[i]))
      return "row " + RowText(got[i]) + ", expected " + RowText(want[i]);
    if (std::fabs(got[i].prob - want[i].prob) > 1e-9)
      return "probability of " + RowText(got[i]) + ", expected " +
             RowText(want[i]);
  }
  return "";
}

std::string CompareApprox(const std::vector<CanonRow>& got,
                          const std::vector<CanonRow>& exact_all,
                          double threshold, double eps, double recall) {
  size_t j = 0;
  size_t confident_returned = 0;
  for (const CanonRow& g : got) {
    while (j < exact_all.size() && exact_all[j].KeyLess(g)) ++j;
    if (j == exact_all.size() || !exact_all[j].KeyEquals(g))
      return "returned tuple " + RowText(g) + " is not in the exact result";
    const CanonRow& want = exact_all[j];
    if (std::fabs(g.prob - want.prob) > 1e-9)
      return "probability of " + RowText(g) + ", expected " + RowText(want);
    if (want.prob < threshold - eps)
      return "returned tuple " + RowText(g) + " lies below threshold - eps";
    if (want.prob >= threshold + eps) ++confident_returned;
    ++j;
  }
  size_t confident = 0;
  for (const CanonRow& w : exact_all)
    if (w.prob >= threshold + eps) ++confident;
  if (static_cast<double>(confident_returned) <
      recall * static_cast<double>(confident))
    return "returned " + std::to_string(confident_returned) + " of " +
           std::to_string(confident) + " tuples with p >= threshold + eps";
  return "";
}

// -- registry snapshots ------------------------------------------------------------

RegistrySnapshot RegistrySnapshot::Capture() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  RegistrySnapshot snap;
  for (const obs::MetricsRegistry::MetricInfo& info : reg.List()) {
    const std::string kind = info.kind;
    if (kind == "counter") {
      snap.counters[info.name] =
          reg.counter(info.name, info.subsystem, info.help)->Value();
    } else if (kind == "histogram") {
      snap.histograms[info.name] =
          reg.histogram(info.name, info.subsystem, info.help)->Snapshot();
    }
  }
  return snap;
}

RegistrySnapshot RegistrySnapshot::Delta(const RegistrySnapshot& before,
                                         const RegistrySnapshot& after) {
  RegistrySnapshot d;
  for (const auto& [name, value] : after.counters)
    d.counters[name] = value - before.Counter(name);
  for (const auto& [name, data] : after.histograms) {
    const obs::HistogramData& base = before.Histogram(name);
    obs::HistogramData diff = data;
    for (size_t i = 0; i < diff.buckets.size(); ++i)
      diff.buckets[i] -= base.buckets[i];
    diff.count -= base.count;
    diff.sum -= base.sum;
    d.histograms[name] = diff;
  }
  return d;
}

uint64_t RegistrySnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const obs::HistogramData& RegistrySnapshot::Histogram(
    const std::string& name) const {
  static const obs::HistogramData kEmpty;
  auto it = histograms.find(name);
  return it == histograms.end() ? kEmpty : it->second;
}

// -- spans --------------------------------------------------------------------

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* rec, uint64_t trace_id,
                           std::string name)
    : rec_(rec), index_(rec->Begin(trace_id, std::move(name))) {}

SpanRecorder::Scope::~Scope() { rec_->End(index_); }

int SpanRecorder::Begin(uint64_t trace_id, std::string name) {
  Span span;
  span.trace_id = trace_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = std::move(name);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNs();
  TPDB_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo, hi] : kids) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = static_cast<double>(dur - covered) / 1e6;
  }
  return self;
}

int SpanRecorder::RootOf(int i) const {
  while (spans_[i].parent >= 0) i = spans_[i].parent;
  return i;
}

Status SpanRecorder::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"trace_id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.trace_id));
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IOError("cannot write " + path);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace tpdb::perfbench
