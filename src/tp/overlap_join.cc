#include "tp/overlap_join.h"

#include <optional>
#include <utility>
#include <vector>

#include "engine/nested_loop_join.h"
#include "engine/scan.h"
#include "engine/sort.h"
#include "engine/temporal_outer_join.h"
#include "tp/sweep_join.h"

namespace tpdb {

namespace {

/// Leaf scan that prepends the row index as an int64 `rid` column. The rid
/// identifies the originating r tuple through the whole window pipeline.
class RowIdScan final : public Operator {
 public:
  explicit RowIdScan(const Table* table) : table_(table) {
    TPDB_CHECK(table != nullptr);
    schema_.AddColumn({"rid", DatumType::kInt64});
    for (const Column& c : table_->schema.columns()) schema_.AddColumn(c);
  }

  const Schema& schema() const override { return schema_; }
  void Open() override { pos_ = 0; }
  bool Next(Row* out) override {
    const Row* row = NextRef();
    if (row == nullptr) return false;
    *out = *row;
    return true;
  }
  /// Real zero-allocation pull: the rid prefix and the fact columns are
  /// assigned into one reused buffer indexed straight into table storage —
  /// no fresh Row per tuple, unlike the default NextRef adapter.
  const Row* NextRef() override {
    if (pos_ >= table_->rows.size()) return nullptr;
    const Row& src = table_->rows[pos_];
    buffer_.resize(src.size() + 1);
    buffer_[0] = Datum(static_cast<int64_t>(pos_));
    std::copy(src.begin(), src.end(), buffer_.begin() + 1);
    ++pos_;
    return &buffer_;
  }
  void Close() override {}

 private:
  const Table* table_;
  Schema schema_;
  size_t pos_ = 0;
  Row buffer_;
};

/// Normalizes join output to the canonical window layout: computes the
/// window interval (intersection for matches, the full r interval for
/// unmatched rows) and appends the window class.
class WindowFinisher final : public Operator {
 public:
  WindowFinisher(OperatorPtr child, WindowLayout layout, Schema schema)
      : child_(std::move(child)),
        layout_(layout),
        schema_(std::move(schema)) {}

  const Schema& schema() const override { return schema_; }
  void Open() override { child_->Open(); }
  bool Next(Row* out) override {
    Row row;
    if (!child_->Next(&row)) return false;
    // Input is either nL+nR wide (nested loop) or has two trailing
    // intersection columns (partitioned join); normalize to canonical width
    // with freshly computed window bounds.
    const size_t base = static_cast<size_t>(layout_.w_ts());
    row.reserve(base + 3);  // window bounds + class appended below
    row.resize(base);
    const Interval rt = layout_.RIntervalOf(row);
    const bool matched = !row[layout_.s_lin()].is_null();
    Interval w = rt;
    WindowClass cls = WindowClass::kUnmatched;
    if (matched) {
      const Interval st(row[layout_.s_ts()].AsInt64(),
                        row[layout_.s_te()].AsInt64());
      w = rt.Intersect(st);
      TPDB_DCHECK(!w.empty());
      cls = WindowClass::kOverlapping;
    }
    row.push_back(Datum(w.start));
    row.push_back(Datum(w.end));
    row.push_back(Datum(static_cast<int64_t>(cls)));
    *out = std::move(row);
    return true;
  }
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  WindowLayout layout_;
  Schema schema_;
};

/// Candidate pairs per input row above which kAuto runs the sweep. Where
/// keys are spread the sweep's sort and per-rid regrouping cost about as
/// much as the probe or more (bench_sweep_join: Webkit ~2, uniform ~4 and
/// Meteo ~10 candidates per row, sweep 0.95-1.35x the probe's time); from
/// a Zipf 0.8 key histogram (~30) up the probe's partition rescans
/// dominate and the sweep wins. Meteo's anti join, a benchmark statement,
/// sits below the bound and keeps the paper's plan.
constexpr double kSweepCandidatesPerRow = 16.0;

}  // namespace

const char* OverlapAlgorithmName(OverlapAlgorithm algorithm) {
  switch (algorithm) {
    case OverlapAlgorithm::kPartitioned:
      return "partitioned";
    case OverlapAlgorithm::kNestedLoop:
      return "nested-loop";
    case OverlapAlgorithm::kSweep:
      return "sweep";
    case OverlapAlgorithm::kAuto:
      return "auto";
  }
  return "?";
}

StatusOr<std::vector<std::pair<int, int>>> ResolveCondition(
    const JoinCondition& theta, const Schema& r_facts,
    const Schema& s_facts) {
  std::vector<std::pair<int, int>> keys;
  keys.reserve(theta.equal_columns.size());
  for (const auto& [rc, sc] : theta.equal_columns) {
    const int ri = r_facts.IndexOf(rc);
    if (ri < 0)
      return Status::InvalidArgument("θ column '" + rc +
                                     "' not in left fact schema (" +
                                     r_facts.ToString() + ")");
    const int si = s_facts.IndexOf(sc);
    if (si < 0)
      return Status::InvalidArgument("θ column '" + sc +
                                     "' not in right fact schema (" +
                                     s_facts.ToString() + ")");
    keys.emplace_back(ri, si);
  }
  return keys;
}

JoinCondition SwapJoinCondition(const JoinCondition& theta) {
  JoinCondition out;
  for (const auto& [rc, sc] : theta.equal_columns)
    out.equal_columns.emplace_back(sc, rc);
  if (theta.predicate) {
    auto pred = theta.predicate;
    out.predicate = [pred](const Row& s_fact, const Row& r_fact) {
      return pred(r_fact, s_fact);
    };
  }
  return out;
}

StatusOr<ThetaMatcher> ThetaMatcher::Make(const JoinCondition& theta,
                                          const Schema& r_facts,
                                          const Schema& s_facts) {
  StatusOr<std::vector<std::pair<int, int>>> keys =
      ResolveCondition(theta, r_facts, s_facts);
  if (!keys.ok()) return keys.status();
  return ThetaMatcher(std::move(*keys), theta.predicate);
}

std::optional<uint64_t> EquiKeyHash(const Row& fact,
                                    const std::vector<int>& columns) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const int c : columns) {
    const Datum& d = fact[c];
    if (d.is_null()) return std::nullopt;
    // Integer keys (the common case) take one multiply instead of
    // Datum::Hash's byte loop.
    const uint64_t v = d.type() == DatumType::kInt64
                           ? static_cast<uint64_t>(d.AsInt64()) *
                                 0xff51afd7ed558ccdull
                           : d.Hash();
    h = (h ^ v ^ (v >> 29)) * 1099511628211ull;
  }
  return h;
}

double OverlapCandidatesPerRow(const TPRelation& r, const TPRelation& s,
                               const JoinCondition& theta) {
  const double rows = static_cast<double>(r.size() + s.size());
  if (rows == 0.0) return 0.0;
  StatusOr<std::vector<std::pair<int, int>>> keys =
      ResolveCondition(theta, r.fact_schema(), s.fact_schema());
  if (!keys.ok()) return 0.0;  // the join itself reports the bad θ
  if (keys->empty())
    return static_cast<double>(r.size()) * static_cast<double>(s.size()) /
           rows;
  std::vector<int> r_columns, s_columns;
  for (const auto& [ri, si] : *keys) {
    r_columns.push_back(ri);
    s_columns.push_back(si);
  }
  // |r_k| and |s_k| per key group, in an open-addressing table keyed by
  // the key hash with its low bit set (so 0 marks an empty slot; two keys
  // whose hashes differ only there share a group). s rows only count
  // toward keys r has. A flat table keeps this pass cheap next to the join.
  size_t capacity = 16;
  while (capacity < 2 * r.size()) capacity <<= 1;
  std::vector<uint64_t> slots(capacity, 0);
  std::vector<std::pair<uint32_t, uint32_t>> sizes(capacity, {0, 0});
  const auto slot_of = [&](uint64_t h) {
    size_t i = (h ^ (h >> 31)) & (capacity - 1);
    while (slots[i] != 0 && slots[i] != h) i = (i + 1) & (capacity - 1);
    return i;
  };
  for (const TPTuple& t : r.tuples()) {
    if (const std::optional<uint64_t> h = EquiKeyHash(t.fact, r_columns)) {
      const size_t i = slot_of(*h | 1);
      slots[i] = *h | 1;
      ++sizes[i].first;
    }
  }
  for (const TPTuple& t : s.tuples()) {
    if (const std::optional<uint64_t> h = EquiKeyHash(t.fact, s_columns)) {
      const size_t i = slot_of(*h | 1);
      if (slots[i] != 0) ++sizes[i].second;
    }
  }
  double pairs = 0.0;
  for (const auto& [r_k, s_k] : sizes)
    pairs += static_cast<double>(r_k) * static_cast<double>(s_k);
  return pairs / rows;
}

OverlapAlgorithm ChooseOverlapAlgorithm(OverlapAlgorithm requested,
                                        const TPRelation& r,
                                        const TPRelation& s,
                                        const JoinCondition& theta) {
  if (requested != OverlapAlgorithm::kAuto) return requested;
  return OverlapCandidatesPerRow(r, s, theta) > kSweepCandidatesPerRow
             ? OverlapAlgorithm::kSweep
             : OverlapAlgorithm::kPartitioned;
}

StatusOr<OverlapProbeSide> MakeOverlapProbeSide(
    std::shared_ptr<const Table> s_table, const Schema& r_facts,
    const Schema& s_facts, const JoinCondition& theta,
    OverlapAlgorithm algorithm) {
  TPDB_CHECK(s_table != nullptr);
  OverlapProbeSide probe;
  probe.s_table = std::move(s_table);
  // Only the partitioned algorithm has a shareable build; the nested loop
  // and the sweep share just the flattened table.
  if (algorithm == OverlapAlgorithm::kNestedLoop ||
      algorithm == OverlapAlgorithm::kSweep)
    return probe;

  StatusOr<std::vector<std::pair<int, int>>> keys =
      ResolveCondition(theta, r_facts, s_facts);
  if (!keys.ok()) return keys.status();
  const int n_sf = static_cast<int>(s_facts.num_columns());
  TemporalJoinSpec spec;  // only the right-hand fields matter for the build
  for (const auto& [ri, si] : *keys) spec.equi_keys.emplace_back(1 + ri, si);
  spec.right_ts = n_sf;
  spec.right_te = n_sf + 1;
  TableScan scan(probe.s_table.get());
  probe.build = std::make_shared<const TemporalBuildSide>(
      MakeTemporalBuildSide(&scan, spec));
  return probe;
}

StatusOr<OperatorPtr> MakeOverlapWindowJoin(
    const Table* r_table, const Schema& r_facts, const Table* s_table,
    const Schema& s_facts, const JoinCondition& theta,
    OverlapAlgorithm algorithm, const OverlapProbeSide* probe,
    const OverlapJoinHints& hints) {
  TPDB_CHECK(r_table != nullptr);
  TPDB_CHECK(s_table != nullptr);
  const int n_rf = static_cast<int>(r_facts.num_columns());
  const int n_sf = static_cast<int>(s_facts.num_columns());
  const WindowLayout layout(n_rf, n_sf);

  StatusOr<std::vector<std::pair<int, int>>> keys =
      ResolveCondition(theta, r_facts, s_facts);
  if (!keys.ok()) return keys.status();

  // A pre-built probe side pins the partitioned algorithm (the build is
  // the partitioned plan's data structure).
  if (probe != nullptr && probe->build != nullptr) {
    TPDB_CHECK(probe->s_table.get() == s_table)
        << "probe side built over a different s table";
    algorithm = OverlapAlgorithm::kPartitioned;
  }
  if (algorithm == OverlapAlgorithm::kAuto)
    return Status::InvalidArgument(
        "overlap join needs a resolved algorithm; see ChooseOverlapAlgorithm");
  if (algorithm == OverlapAlgorithm::kSweep)
    return MakeSweepWindowJoin(r_table, r_facts, s_table, s_facts, theta,
                               hints);

  OperatorPtr left = std::make_unique<RowIdScan>(r_table);
  OperatorPtr right = std::make_unique<TableScan>(s_table);
  const int nl = 4 + n_rf;  // left width: rid + facts + ts/te/lin

  // Residual predicate (general θ) over the concatenated row.
  ExprPtr residual;
  if (theta.predicate) {
    auto pred = theta.predicate;
    residual = Fn(
        [pred, n_rf, n_sf, nl](const Row& row) -> Datum {
          Row rf(row.begin() + 1, row.begin() + 1 + n_rf);
          Row sf(row.begin() + nl, row.begin() + nl + n_sf);
          return Datum(static_cast<int64_t>(pred(rf, sf) ? 1 : 0));
        },
        "θ");
  }

  OperatorPtr joined;
  if (algorithm == OverlapAlgorithm::kPartitioned) {
    TemporalJoinSpec spec;
    for (const auto& [ri, si] : *keys) spec.equi_keys.emplace_back(1 + ri, si);
    spec.left_ts = layout.r_ts();
    spec.left_te = layout.r_te();
    spec.right_ts = n_sf;
    spec.right_te = n_sf + 1;
    spec.residual = residual;
    spec.join_type = JoinType::kLeftOuter;
    if (probe != nullptr && probe->build != nullptr) {
      joined = std::make_unique<TemporalOuterJoin>(
          std::move(left), probe->build, right->schema(), spec);
    } else {
      joined = std::make_unique<TemporalOuterJoin>(std::move(left),
                                                   std::move(right), spec);
    }
  } else {
    ExprPtr pred = OverlapsExpr(layout.r_ts(), layout.r_te(), nl + n_sf,
                                nl + n_sf + 1);
    std::vector<std::pair<int, int>> joined_keys;
    for (const auto& [ri, si] : *keys)
      joined_keys.emplace_back(1 + ri, nl + si);
    if (!joined_keys.empty())
      pred = AndExpr(std::move(pred), ColumnsEqual(joined_keys));
    if (residual != nullptr) pred = AndExpr(std::move(pred), residual);
    joined = std::make_unique<NestedLoopJoin>(std::move(left),
                                              std::move(right), std::move(pred),
                                              JoinType::kLeftOuter);
  }

  Schema schema = layout.MakeSchema(r_facts, s_facts);
  OperatorPtr finished = std::make_unique<WindowFinisher>(
      std::move(joined), layout, std::move(schema));
  if (algorithm == OverlapAlgorithm::kNestedLoop) {
    // A nested loop probes s in table order; the LAWAU/LAWAN sweeps need
    // each rid group ordered by window start, so this plan pays for an
    // extra sort (the partitioned plan produces the order for free).
    finished = std::make_unique<Sort>(
        std::move(finished),
        std::vector<SortKey>{{layout.rid(), true}, {layout.w_ts(), true}});
  }
  return finished;
}

}  // namespace tpdb
