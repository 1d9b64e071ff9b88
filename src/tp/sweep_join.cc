#include "tp/sweep_join.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tp/window.h"

namespace tpdb {

namespace {

struct SweepMetrics {
  obs::Counter* endpoints = obs::MetricsRegistry::Default().counter(
      "tpdb_join_sweep_endpoints_total", "join",
      "Start events processed by sweep-line joins.");
  obs::Counter* windows = obs::MetricsRegistry::Default().counter(
      "tpdb_join_sweep_windows_total", "join",
      "Overlapping windows emitted by sweep-line joins.");
  obs::Histogram* active_max = obs::MetricsRegistry::Default().histogram(
      "tpdb_join_sweep_active_max", "join",
      "Active-set high-water mark per sweep (lazy expiry).");

  static const SweepMetrics& Get() {
    static const SweepMetrics m;
    return m;
  }
};

/// One live interval of an active set: when it ends, and which row it is.
struct ActiveEntry {
  TimePoint te;
  uint32_t idx;
};

/// The two active sets of one equi-key (index 0: r tuples, 1: s tuples).
/// Keyed by EquiKeyHash; collisions are harmless: every probe hit
/// re-verifies the actual θ (key equality + predicate). With no equi-keys
/// every tuple lands under one hash — a single pair of active sets, which
/// is exactly the sane predicate-only plan (the scan is bounded by
/// temporal overlap, unlike the degenerate single partition a hash build
/// would produce).
using ActiveSets =
    std::unordered_map<uint64_t, std::array<std::vector<ActiveEntry>, 2>>;

/// Processing order of one side: (_ts, row id) sorted. `sorted` skips the
/// sort (table order then is (_ts, id) order).
std::vector<std::pair<TimePoint, uint32_t>> SideOrder(const Table& table,
                                                      bool sorted,
                                                      int ts_col) {
  std::vector<std::pair<TimePoint, uint32_t>> order(table.rows.size());
  for (uint32_t i = 0; i < order.size(); ++i)
    order[i] = {table.rows[i][ts_col].AsInt64(), i};
  if (!sorted) std::sort(order.begin(), order.end());
  return order;
}

/// One overlapping window found by the sweep: the pair and its interval.
struct FoundWindow {
  uint32_t ridx;
  uint32_t sidx;
  TimePoint start;
  TimePoint end;
};

/// The kSweep plan: sweeps on Open() and regroups the found windows by rid
/// (a stable counting sort, so each rid keeps window-start order), then
/// streams them in rid order, with a full-interval unmatched window for
/// every rid that matched nothing. Rows are built on demand into one
/// reused buffer.
class SweepWindowJoin final : public Operator {
 public:
  SweepWindowJoin(const Table* r_table, const Table* s_table,
                  WindowLayout layout, Schema schema, ThetaMatcher theta,
                  OverlapJoinHints hints)
      : r_table_(r_table),
        s_table_(s_table),
        layout_(layout),
        schema_(std::move(schema)),
        theta_(std::move(theta)),
        hints_(hints) {}

  const Schema& schema() const override { return schema_; }

  void Open() override {
    Sweep();
    rid_ = 0;
    pos_ = 0;
  }
  bool Next(Row* out) override {
    const Row* row = NextRef();
    if (row == nullptr) return false;
    *out = *row;
    return true;
  }
  const Row* NextRef() override;
  void Close() override {}

 private:
  /// Runs the sweep, filling windows_ grouped by rid and rid_begin_.
  void Sweep();

  const Table* r_table_;
  const Table* s_table_;
  WindowLayout layout_;
  Schema schema_;
  ThetaMatcher theta_;
  OverlapJoinHints hints_;
  /// Found windows grouped by rid: rid i owns [rid_begin_[i],
  /// rid_begin_[i + 1]). pos_ walks them in step with rid_.
  std::vector<FoundWindow> windows_;
  std::vector<size_t> rid_begin_;
  size_t rid_ = 0;
  size_t pos_ = 0;
  Row buffer_;
};

void SweepWindowJoin::Sweep() {
  const Table& rt = *r_table_;
  const Table& st = *s_table_;
  const int n_rf = layout_.num_r_facts();
  const int n_sf = layout_.num_s_facts();
  // Flattened input rows: facts ++ _ts ++ _te ++ _lin.
  const int r_ts = n_rf, r_te = n_rf + 1;
  const int s_ts = n_sf, s_te = n_sf + 1;

  const std::vector<std::pair<TimePoint, uint32_t>> orders[2] = {
      SideOrder(rt, hints_.r_sorted_by_ts, r_ts),
      SideOrder(st, hints_.s_sorted_by_ts, s_ts)};

  const auto& keys = theta_.keys();
  const auto& pred = theta_.predicate();
  std::vector<int> key_columns[2];
  for (const auto& [ri, si] : keys) {
    key_columns[0].push_back(ri);
    key_columns[1].push_back(si);
  }

  const auto matches = [&](const Row& r_row, const Row& s_row) {
    for (const auto& [ri, si] : keys) {
      if (r_row[ri].is_null() || s_row[si].is_null() ||
          r_row[ri] != s_row[si])
        return false;
    }
    if (!pred) return true;
    const Row rf(r_row.begin(), r_row.begin() + n_rf);
    const Row sf(s_row.begin(), s_row.begin() + n_sf);
    return pred(rf, sf);
  };

  // Windows in event order; regrouped per rid below.
  std::vector<FoundWindow> found;
  const auto emit = [&](uint32_t ridx, uint32_t sidx, TimePoint t) {
    found.push_back({ridx, sidx, t,
                     std::min(rt.rows[ridx][r_te].AsInt64(),
                              st.rows[sidx][s_te].AsInt64())});
  };

  ActiveSets actives;
  size_t live = 0;
  uint64_t active_max = 0;

  // One start event per tuple, merged across the sides in (_ts) order. A
  // tuple with a null key can neither probe nor be probed — it still
  // yields its unmatched window. Otherwise it probes the OTHER side's
  // active set of its key at its start t: expired entries (te <= t) are
  // dropped in place (stable — surviving entries keep insertion order,
  // which is what makes per-rid emission ordered by s start), live ones
  // are matched; then it joins its own side's set.
  size_t cursor[2] = {0, 0};
  while (cursor[0] < orders[0].size() || cursor[1] < orders[1].size()) {
    // Ties go to s: an r tuple starting at t must see s tuples starting at
    // t already active (their pair's window starts at t = the r event).
    const int side =
        cursor[1] >= orders[1].size() ||
                (cursor[0] < orders[0].size() &&
                 orders[0][cursor[0]].first < orders[1][cursor[1]].first)
            ? 0
            : 1;
    const auto [t, idx] = orders[side][cursor[side]++];
    const Row& row = side == 0 ? rt.rows[idx] : st.rows[idx];
    const std::optional<uint64_t> h = EquiKeyHash(row, key_columns[side]);
    if (!h) continue;
    std::array<std::vector<ActiveEntry>, 2>& sets = actives[*h];
    std::vector<ActiveEntry>& other = sets[1 - side];
    size_t w = 0;
    for (size_t i = 0; i < other.size(); ++i) {
      if (other[i].te <= t) continue;
      other[w++] = other[i];
      if (side == 0 && matches(row, st.rows[other[i].idx]))
        emit(idx, other[i].idx, t);
      if (side == 1 && matches(rt.rows[other[i].idx], row))
        emit(other[i].idx, idx, t);
    }
    live -= other.size() - w;
    other.resize(w);
    sets[side].push_back({row[side == 0 ? r_te : s_te].AsInt64(), idx});
    ++live;
    active_max = std::max<uint64_t>(active_max, live);
  }

  // Stable counting sort by rid.
  rid_begin_.assign(rt.rows.size() + 1, 0);
  for (const FoundWindow& w : found) ++rid_begin_[w.ridx + 1];
  for (size_t i = 1; i < rid_begin_.size(); ++i)
    rid_begin_[i] += rid_begin_[i - 1];
  std::vector<size_t> next(rid_begin_.begin(), rid_begin_.end() - 1);
  windows_.resize(found.size());
  for (const FoundWindow& w : found) windows_[next[w.ridx]++] = w;

  const SweepMetrics& m = SweepMetrics::Get();
  m.endpoints->Add(orders[0].size() + orders[1].size());
  m.windows->Add(found.size());
  m.active_max->Record(active_max);
}

const Row* SweepWindowJoin::NextRef() {
  const size_t num_r = rid_begin_.size() - 1;
  if (rid_ >= num_r) return nullptr;
  const int n_rf = layout_.num_r_facts();
  const int n_sf = layout_.num_s_facts();
  const Row& r_row = r_table_->rows[rid_];
  Row& row = buffer_;
  row.clear();
  row.reserve(static_cast<size_t>(layout_.num_columns()));
  row.push_back(Datum(static_cast<int64_t>(rid_)));
  // r side: facts ++ _ts ++ _te ++ _lin, verbatim.
  row.insert(row.end(), r_row.begin(), r_row.begin() + n_rf + 3);
  const size_t end = rid_begin_[rid_ + 1];
  if (rid_begin_[rid_] == end) {
    // No match at all: the full-interval unmatched window, s side null.
    row.resize(row.size() + static_cast<size_t>(n_sf) + 3);
    row.push_back(r_row[n_rf]);
    row.push_back(r_row[n_rf + 1]);
    row.push_back(Datum(static_cast<int64_t>(WindowClass::kUnmatched)));
    ++rid_;
    return &row;
  }
  const FoundWindow& w = windows_[pos_++];
  const Row& s_row = s_table_->rows[w.sidx];
  row.insert(row.end(), s_row.begin(), s_row.begin() + n_sf + 3);
  row.push_back(Datum(w.start));
  row.push_back(Datum(w.end));
  row.push_back(Datum(static_cast<int64_t>(WindowClass::kOverlapping)));
  if (pos_ == end) ++rid_;
  return &row;
}

}  // namespace

StatusOr<OperatorPtr> MakeSweepWindowJoin(
    const Table* r_table, const Schema& r_facts, const Table* s_table,
    const Schema& s_facts, const JoinCondition& theta,
    const OverlapJoinHints& hints) {
  TPDB_CHECK(r_table != nullptr && s_table != nullptr);
  StatusOr<ThetaMatcher> matcher =
      ThetaMatcher::Make(theta, r_facts, s_facts);
  if (!matcher.ok()) return matcher.status();
  const WindowLayout layout(static_cast<int>(r_facts.num_columns()),
                            static_cast<int>(s_facts.num_columns()));
  return OperatorPtr(std::make_unique<SweepWindowJoin>(
      r_table, s_table, layout, layout.MakeSchema(r_facts, s_facts),
      std::move(*matcher), hints));
}

}  // namespace tpdb
