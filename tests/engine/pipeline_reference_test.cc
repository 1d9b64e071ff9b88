// Pipeline reference suite: every query's result must equal, element-wise
// and in order, a result built straight from the relation's tuples in
// this file — C++ predicates with SQL three-valued logic and int64↔double
// promotion, projection, ORDER BY, LIMIT/OFFSET and GROUP BY (over
// relations and over join results) — with exact probabilities from
// ProbabilityEngine. It runs over in-memory and cold-snapshot inputs,
// serially and on 4 workers, across seeds and selection-vector edge cases
// (empty batch, full batch, one-row tail).
// Malformed queries must return the same NotFound on every route.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/planner.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "engine/vector/batch_ops.h"
#include "exec/session.h"
#include "lineage/probability.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

// -- SQL three-valued logic over Datums -------------------------------------

/// A SQL truth value; nullopt is NULL.
using Kleene = std::optional<bool>;

Kleene And(Kleene a, Kleene b) {
  if (a == false || b == false) return false;
  if (!a || !b) return std::nullopt;
  return true;
}

Kleene Or(Kleene a, Kleene b) {
  if (a == true || b == true) return true;
  if (!a || !b) return std::nullopt;
  return false;
}

Kleene Not(Kleene a) {
  if (!a) return std::nullopt;
  return !*a;
}

bool IsNumber(const Datum& d) {
  return d.type() == DatumType::kInt64 || d.type() == DatumType::kDouble;
}

double AsNumber(const Datum& d) {
  return d.type() == DatumType::kInt64 ? static_cast<double>(d.AsInt64())
                                       : d.AsDouble();
}

/// Three-way order of two non-null values of one kind: numbers compare by
/// value (an int64 and a double as doubles), strings lexicographically.
int Order(const Datum& a, const Datum& b) {
  if (IsNumber(a) && IsNumber(b)) {
    const double x = AsNumber(a), y = AsNumber(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  EXPECT_TRUE(a.type() == DatumType::kString &&
              b.type() == DatumType::kString)
      << "no order between " << a.ToString() << " and " << b.ToString();
  const int c = a.AsString().compare(b.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// `a op b` in SQL: NULL if either side is NULL. A number never equals a
/// string.
Kleene Cmp(const Datum& a, CompareOp op, const Datum& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  if (IsNumber(a) != IsNumber(b)) {
    EXPECT_TRUE(op == CompareOp::kEq || op == CompareOp::kNe);
    return op == CompareOp::kNe;
  }
  const int c = Order(a, b);
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return std::nullopt;
}

/// A truth value as a comparison operand: int64 1/0, or NULL.
Datum AsOperand(Kleene k) {
  return k ? Datum(static_cast<int64_t>(*k)) : Datum::Null();
}

/// Ascending ORDER BY / GROUP BY order: NULL first, then by value.
int NullsFirst(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null())
    return a.is_null() == b.is_null() ? 0 : (a.is_null() ? -1 : 1);
  return Order(a, b);
}

int NullsFirst(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i)
    if (const int c = NullsFirst(a[i], b[i]); c != 0) return c;
  return 0;
}

// -- The reference ----------------------------------------------------------

/// One source tuple.
struct RefTuple {
  Row fact;
  Interval interval;
  LineageRef lineage;
};

/// One expected result tuple.
struct Expected {
  Row fact;
  Interval interval;
  double prob = 0.0;
};

using Pred = std::function<Kleene(const RefTuple&)>;

struct RefAgg {
  AggFn fn = AggFn::kCount;
  int col = -1;  ///< -1 = COUNT(*)
};

/// A query and its meaning over the source tuples, applied in SQL order:
/// WHERE → projection or GROUP BY → WITH PROB → ORDER BY → OFFSET/LIMIT.
struct RefQuery {
  std::string sql;
  Pred where;                      ///< null = keep every tuple
  std::vector<int> columns;        ///< projected fact columns; empty = all
  std::vector<int> group_by;       ///< grouped when `aggs` is non-empty
  std::vector<RefAgg> aggs;
  std::optional<double> min_prob;  ///< WITH PROB >= (or > when strict)
  bool strict = false;
  int order_col = -1;  ///< output fact column; -1 = no ORDER BY
  bool ascending = true;
  size_t limit = std::numeric_limits<size_t>::max();
  size_t offset = 0;
};

std::vector<RefTuple> TuplesOf(const TPRelation& rel) {
  std::vector<RefTuple> out;
  for (const TPTuple& t : rel.tuples())
    out.push_back(RefTuple{t.fact, t.interval, t.lineage});
  return out;
}

Datum Aggregate(const RefAgg& agg, const std::vector<const RefTuple*>& group) {
  if (agg.fn == AggFn::kCount) {
    int64_t n = 0;
    for (const RefTuple* t : group)
      n += agg.col < 0 || !t->fact[static_cast<size_t>(agg.col)].is_null();
    return Datum(n);
  }
  Datum acc = Datum::Null();
  for (const RefTuple* t : group) {
    const Datum& v = t->fact[static_cast<size_t>(agg.col)];
    if (v.is_null()) continue;
    if (acc.is_null()) {
      acc = v;
    } else if (agg.fn == AggFn::kSum) {
      acc = v.type() == DatumType::kDouble
                ? Datum(acc.AsDouble() + v.AsDouble())
                : Datum(acc.AsInt64() + v.AsInt64());
    } else if ((agg.fn == AggFn::kMin) == (NullsFirst(v, acc) < 0)) {
      acc = v;
    }
  }
  return acc;
}

std::vector<Expected> Reference(const std::vector<RefTuple>& tuples,
                                const RefQuery& q, LineageManager* manager) {
  ProbabilityEngine engine(manager);
  std::vector<const RefTuple*> kept;
  for (const RefTuple& t : tuples)
    if (q.where == nullptr || q.where(t) == true) kept.push_back(&t);

  std::vector<Expected> out;
  if (!q.aggs.empty()) {
    // One tuple per group, in ascending key order: the group span, and the
    // probability that the group is non-empty.
    const auto key_of = [&q](const RefTuple* t) {
      Row key;
      for (const int c : q.group_by) key.push_back(t->fact[static_cast<size_t>(c)]);
      return key;
    };
    std::vector<Row> keys;
    for (const RefTuple* t : kept) {
      Row key = key_of(t);
      if (std::none_of(keys.begin(), keys.end(), [&key](const Row& k) {
            return NullsFirst(k, key) == 0;
          }))
        keys.push_back(std::move(key));
    }
    std::stable_sort(keys.begin(), keys.end(), [](const Row& a, const Row& b) {
      return NullsFirst(a, b) < 0;
    });
    for (const Row& key : keys) {
      std::vector<const RefTuple*> group;
      std::vector<LineageRef> lineages;
      for (const RefTuple* t : kept) {
        if (NullsFirst(key_of(t), key) != 0) continue;
        group.push_back(t);
        lineages.push_back(t->lineage);
      }
      Expected e;
      e.fact = key;
      for (const RefAgg& agg : q.aggs) e.fact.push_back(Aggregate(agg, group));
      e.interval = group[0]->interval;
      for (const RefTuple* t : group) {
        e.interval.start = std::min(e.interval.start, t->interval.start);
        e.interval.end = std::max(e.interval.end, t->interval.end);
      }
      e.prob = engine.Probability(manager->OrAll(lineages));
      out.push_back(std::move(e));
    }
  } else {
    for (const RefTuple* t : kept) {
      Expected e;
      if (q.columns.empty()) {
        e.fact = t->fact;
      } else {
        for (const int c : q.columns)
          e.fact.push_back(t->fact[static_cast<size_t>(c)]);
      }
      e.interval = t->interval;
      e.prob = engine.Probability(t->lineage);
      out.push_back(std::move(e));
    }
  }

  if (q.min_prob) {
    std::erase_if(out, [&q](const Expected& e) {
      return q.strict ? !(e.prob > *q.min_prob) : !(e.prob >= *q.min_prob);
    });
  }
  if (q.order_col >= 0) {
    const size_t c = static_cast<size_t>(q.order_col);
    std::stable_sort(out.begin(), out.end(),
                     [&](const Expected& a, const Expected& b) {
                       const int order = NullsFirst(a.fact[c], b.fact[c]);
                       return q.ascending ? order < 0 : order > 0;
                     });
  }
  const size_t begin = std::min(q.offset, out.size());
  const size_t end = begin + std::min(q.limit, out.size() - begin);
  return std::vector<Expected>(out.begin() + static_cast<ptrdiff_t>(begin),
                               out.begin() + static_cast<ptrdiff_t>(end));
}

/// Element-wise: facts (value and type), intervals, exact probabilities.
void ExpectMatches(const std::vector<Expected>& want, const TPRelation& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].fact.size(), got.tuple(i).fact.size());
    for (size_t c = 0; c < want[i].fact.size(); ++c) {
      const Datum& w = want[i].fact[c];
      const Datum& g = got.tuple(i).fact[c];
      EXPECT_TRUE(w.type() == g.type() && w.Compare(g) == 0)
          << "tuple " << i << " column " << c << ": want " << w.ToString()
          << ", got " << g.ToString();
    }
    EXPECT_EQ(want[i].interval, got.tuple(i).interval) << "tuple " << i;
    EXPECT_EQ(want[i].prob, got.Probability(i)) << "tuple " << i;
  }
}

SessionOptions Serial() {
  SessionOptions options;
  options.parallelism = 1;
  return options;
}

SessionOptions Parallel() {
  SessionOptions options;
  options.parallelism = 4;
  options.min_parallel_rows = 64;
  options.morsel_size = 256;
  return options;
}

/// Runs every query on `db` under `options` against the reference built
/// from `source` (the same tuples, possibly in another database).
void ExpectReference(TPDatabase* db, const SessionOptions& options,
                     const TPRelation& source,
                     const std::vector<RefQuery>& queries) {
  const std::vector<RefTuple> tuples = TuplesOf(source);
  for (const RefQuery& q : queries) {
    SCOPED_TRACE(q.sql);
    StatusOr<TPRelation> got = Session(db, options).Query(q.sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectMatches(Reference(tuples, q, source.manager()), *got);
  }
}

// -- The mixed-type relation --------------------------------------------------

constexpr int kKey = 0, kScore = 1, kCity = 2, kTag = 3;

Schema MixedSchema() {
  return Schema({{"key", DatumType::kInt64},
                 {"score", DatumType::kDouble},
                 {"city", DatumType::kString},
                 {"tag", DatumType::kString}});
}

/// A relation exercising every column representation: int64 key, double
/// score (with NULLs), dictionary-friendly string city (with NULLs), and
/// a mixed-type tag column (int64 or string) that forces the generic
/// fallback.
Status FillMixed(TPRelation* rel, int64_t tuples, Random* rng) {
  const std::vector<std::string> cities = {"ZAK", "GVA", "BRN", "LSN"};
  for (int64_t i = 0; i < tuples; ++i) {
    Row fact;
    fact.push_back(Datum(i % 97));
    fact.push_back(i % 7 == 0 ? Datum::Null()
                              : Datum(static_cast<double>(i % 50) / 2.0));
    fact.push_back(i % 11 == 0 ? Datum::Null()
                               : Datum(cities[static_cast<size_t>(i) %
                                              cities.size()]));
    fact.push_back(i % 3 == 0 ? Datum(i) : Datum("tag" + std::to_string(i % 5)));
    const TimePoint start = i * 3;
    TPDB_RETURN_IF_ERROR(rel->AppendBase(
        std::move(fact), Interval(start, start + 2 + (i % 5)),
        0.2 + 0.6 * rng->NextDouble()));
  }
  return Status::OK();
}

Datum I(int64_t v) { return Datum(v); }
Datum D(double v) { return Datum(v); }
Datum S(const char* v) { return Datum(v); }

Pred Where(int col, CompareOp op, Datum value) {
  return [col, op, value](const RefTuple& t) {
    return Cmp(t.fact[static_cast<size_t>(col)], op, value);
  };
}

Pred AndP(Pred a, Pred b) {
  return [a, b](const RefTuple& t) { return And(a(t), b(t)); };
}

Pred OrP(Pred a, Pred b) {
  return [a, b](const RefTuple& t) { return Or(a(t), b(t)); };
}

Pred IsNullP(int col) {
  return [col](const RefTuple& t) -> Kleene {
    return t.fact[static_cast<size_t>(col)].is_null();
  };
}

/// Queries covering every stage and their combinations over `rel` (a
/// relation of MixedSchema).
std::vector<RefQuery> MixedQueries(const std::string& rel) {
  using enum CompareOp;
  const std::string from = "SELECT * FROM " + rel;
  std::vector<RefQuery> q;
  q.push_back({.sql = from});
  q.push_back({.sql = from + " WHERE key >= 40", .where = Where(kKey, kGe, I(40))});
  q.push_back({.sql = from + " WHERE key >= 20 AND key < 70",
               .where = AndP(Where(kKey, kGe, I(20)), Where(kKey, kLt, I(70)))});
  q.push_back({.sql = from + " WHERE score > 10.0",
               .where = Where(kScore, kGt, D(10.0))});
  q.push_back({.sql = from + " WHERE key < 30 OR score >= 20.0",
               .where = OrP(Where(kKey, kLt, I(30)), Where(kScore, kGe, D(20.0)))});
  q.push_back({.sql = from + " WHERE city = 'ZAK'",
               .where = Where(kCity, kEq, S("ZAK"))});
  q.push_back({.sql = from + " WHERE city <> 'GVA' AND key > 10",
               .where = AndP(Where(kCity, kNe, S("GVA")), Where(kKey, kGt, I(10)))});
  q.push_back({.sql = from + " WHERE score IS NULL", .where = IsNullP(kScore)});
  q.push_back({.sql = from + " WHERE NOT city IS NULL AND key <= 50",
               .where = AndP(
                   [](const RefTuple& t) { return Not(IsNullP(kCity)(t)); },
                   Where(kKey, kLe, I(50)))});
  q.push_back({.sql = from + " WHERE 1 = 1"});
  q.push_back({.sql = from + " WHERE 1 = 2",
               .where = [](const RefTuple&) -> Kleene { return false; }});
  // int64↔double promotion in both directions, and the generic column.
  q.push_back({.sql = from + " WHERE key = 12.0", .where = Where(kKey, kEq, D(12.0))});
  q.push_back({.sql = from + " WHERE score <= 7", .where = Where(kScore, kLe, I(7))});
  q.push_back({.sql = from + " WHERE tag = 'tag3'", .where = Where(kTag, kEq, S("tag3"))});
  q.push_back({.sql = "SELECT key, city FROM " + rel + " WHERE key >= 10",
               .where = Where(kKey, kGe, I(10)),
               .columns = {kKey, kCity}});
  q.push_back({.sql = "SELECT key AS k, score AS s FROM " + rel +
                      " WHERE score >= 5.0",
               .where = Where(kScore, kGe, D(5.0)),
               .columns = {kKey, kScore}});
  q.push_back({.sql = from + " WHERE _ts >= 900 AND _te < 2400",
               .where = [](const RefTuple& t) -> Kleene {
                 return t.interval.start >= 900 && t.interval.end < 2400;
               }});
  q.push_back({.sql = from + " LIMIT 100", .limit = 100});
  q.push_back({.sql = from + " WHERE key > 5 LIMIT 37 OFFSET 11",
               .where = Where(kKey, kGt, I(5)), .limit = 37, .offset = 11});
  q.push_back({.sql = from + " WITH PROB >= 0.5", .min_prob = 0.5});
  q.push_back({.sql = from + " WHERE key >= 10 LIMIT 50 WITH PROB > 0.4",
               .where = Where(kKey, kGe, I(10)),
               .min_prob = 0.4,
               .strict = true,
               .limit = 50});
  q.push_back({.sql = from + " WHERE key >= 10 ORDER BY score LIMIT 25",
               .where = Where(kKey, kGe, I(10)),
               .order_col = kScore,
               .limit = 25});
  q.push_back({.sql = "SELECT key FROM " + rel +
                      " WHERE key < 60 ORDER BY key DESC LIMIT 30 OFFSET 5",
               .where = Where(kKey, kLt, I(60)),
               .columns = {kKey},
               .order_col = 0,
               .ascending = false,
               .limit = 30,
               .offset = 5});
  q.push_back({.sql = "SELECT city, COUNT(*) AS n FROM " + rel +
                      " WHERE key < 80 GROUP BY city",
               .where = Where(kKey, kLt, I(80)),
               .group_by = {kCity},
               .aggs = {{AggFn::kCount, -1}}});
  q.push_back({.sql = "SELECT key, COUNT(*), SUM(score), MIN(score), MAX(city) "
                      "FROM " + rel + " WHERE key >= 8 GROUP BY key",
               .where = Where(kKey, kGe, I(8)),
               .group_by = {kKey},
               .aggs = {{AggFn::kCount, -1},
                        {AggFn::kSum, kScore},
                        {AggFn::kMin, kScore},
                        {AggFn::kMax, kCity}}});
  q.push_back({.sql = "SELECT key, COUNT(*) AS n FROM " + rel +
                      " GROUP BY key ORDER BY n DESC LIMIT 10",
               .group_by = {kKey},
               .aggs = {{AggFn::kCount, -1}},
               .order_col = 1,
               .ascending = false,
               .limit = 10});
  return q;
}

TPRelation* MakeMixed(TPDatabase* db, int64_t tuples, uint64_t seed) {
  Random rng(seed);
  StatusOr<TPRelation*> rel = db->CreateRelation("mixed", MixedSchema());
  EXPECT_TRUE(rel.ok());
  EXPECT_TRUE(FillMixed(*rel, tuples, &rng).ok());
  return *rel;
}

TEST(PipelineReferenceTest, WarmQueriesMatchReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TPDatabase db;
    const TPRelation* rel = MakeMixed(&db, 1500, seed);
    ExpectReference(&db, Serial(), *rel, MixedQueries("mixed"));
  }
}

TEST(PipelineReferenceTest, ColdSnapshotMatchesReference) {
  const std::string path = TempPath("pipeline_reference_cold.tpdb");
  TPDatabase source;
  // > 2 segments of 512 rows, with a 1-row tail in the last one.
  const TPRelation* rel = MakeMixed(&source, 1537, 7);
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 512;
  ASSERT_TRUE(source.SaveSnapshot(path, snapshot_options).ok());

  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("mixed"))->cold_storage(), nullptr);
  ExpectReference(&cold, Serial(), *rel, MixedQueries("mixed"));
  std::remove(path.c_str());
}

TEST(PipelineReferenceTest, ParallelMatchesReference) {
  // Warm and cold inputs on 4 workers: the morsel drivers must merge back
  // into the serial scan order.
  TPDatabase db;
  const TPRelation* rel = MakeMixed(&db, 1537, 13);
  ExpectReference(&db, Parallel(), *rel, MixedQueries("mixed"));

  const std::string path = TempPath("pipeline_reference_parallel.tpdb");
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 512;
  ASSERT_TRUE(db.SaveSnapshot(path, snapshot_options).ok());
  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ExpectReference(&cold, Parallel(), *rel, MixedQueries("mixed"));
  std::remove(path.c_str());
}

TEST(PipelineReferenceTest, RandomWorkloadsAcrossSeeds) {
  using enum CompareOp;
  for (const uint64_t seed : {11u, 23u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TPDatabase db;
    Random rng(seed);
    UniformWorkloadOptions options;
    options.num_tuples = 2500;
    options.num_facts = 120;
    options.history_length = 5000;
    StatusOr<TPRelation> r =
        MakeUniformWorkload(db.manager(), "r", options, &rng);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(db.Register(std::move(*r)).ok());
    const std::vector<RefQuery> queries = {
        {.sql = "SELECT * FROM r WHERE key >= 60",
         .where = Where(0, kGe, I(60))},
        {.sql = "SELECT * FROM r WHERE key >= 20 AND _ts < 2500",
         .where = AndP(Where(0, kGe, I(20)),
                       [](const RefTuple& t) -> Kleene {
                         return t.interval.start < 2500;
                       })},
        {.sql = "SELECT key FROM r WHERE key < 40 WITH PROB >= 0.6",
         .where = Where(0, kLt, I(40)),
         .columns = {0},
         .min_prob = 0.6},
        {.sql = "SELECT key, COUNT(*) AS n, MIN(key) FROM r WHERE key >= 30 "
                "GROUP BY key",
         .where = Where(0, kGe, I(30)),
         .group_by = {0},
         .aggs = {{AggFn::kCount, -1}, {AggFn::kMin, 0}}},
        {.sql = "SELECT * FROM r WHERE key = 7 LIMIT 9",
         .where = Where(0, kEq, I(7)),
         .limit = 9},
    };
    for (const SessionOptions& session : {Serial(), Parallel()})
      ExpectReference(&db, session, **db.Get("r"), queries);
  }
}

TEST(PipelineReferenceTest, SelectionVectorEdgeCases) {
  using enum CompareOp;
  TPDatabase db;
  Random rng(5);
  StatusOr<TPRelation*> rel =
      db.CreateRelation("edge", Schema({{"key", DatumType::kInt64}}));
  ASSERT_TRUE(rel.ok());
  // 2049 tuples: two exactly-full 1024-row batches plus a 1-row tail.
  for (int64_t i = 0; i < 2049; ++i)
    ASSERT_TRUE((*rel)->AppendBase({Datum(i)}, Interval(i, i + 1),
                                   0.25 + 0.5 * rng.NextDouble())
                    .ok());

  const std::vector<RefQuery> queries = {
      // every batch empties / stays full
      {.sql = "SELECT * FROM edge WHERE key < 0", .where = Where(0, kLt, I(0))},
      {.sql = "SELECT * FROM edge WHERE key >= 0", .where = Where(0, kGe, I(0))},
      // only the 1-row tail; the last row of batch 1; the first of batch 2
      {.sql = "SELECT * FROM edge WHERE key = 2048",
       .where = Where(0, kEq, I(2048))},
      {.sql = "SELECT * FROM edge WHERE key = 1023",
       .where = Where(0, kEq, I(1023))},
      {.sql = "SELECT * FROM edge WHERE key = 1024",
       .where = Where(0, kEq, I(1024))},
      // limits on and across batch boundaries, offsets into the tail
      {.sql = "SELECT * FROM edge LIMIT 1024", .limit = 1024},
      {.sql = "SELECT * FROM edge LIMIT 1025", .limit = 1025},
      {.sql = "SELECT * FROM edge LIMIT 10 OFFSET 1020", .limit = 10, .offset = 1020},
      {.sql = "SELECT * FROM edge LIMIT 5 OFFSET 2048", .limit = 5, .offset = 2048},
      {.sql = "SELECT * FROM edge WHERE key >= 1000 LIMIT 30 OFFSET 30",
       .where = Where(0, kGe, I(1000)),
       .limit = 30,
       .offset = 30},
      {.sql = "SELECT key, COUNT(*) FROM edge WHERE key < 0 GROUP BY key",
       .where = Where(0, kLt, I(0)),
       .group_by = {0},
       .aggs = {{AggFn::kCount, -1}}},
  };
  for (const SessionOptions& session : {Serial(), Parallel()})
    ExpectReference(&db, session, **rel, queries);

  // An empty relation flows through every stage.
  StatusOr<TPRelation*> empty =
      db.CreateRelation("empty", Schema({{"key", DatumType::kInt64}}));
  ASSERT_TRUE(empty.ok());
  const std::vector<RefQuery> on_empty = {
      {.sql = "SELECT * FROM empty WHERE key > 3 LIMIT 5",
       .where = Where(0, kGt, I(3)),
       .limit = 5},
      {.sql = "SELECT key, COUNT(*) FROM empty GROUP BY key",
       .group_by = {0},
       .aggs = {{AggFn::kCount, -1}}},
      {.sql = "SELECT * FROM empty ORDER BY key LIMIT 3",
       .order_col = 0,
       .limit = 3},
  };
  ExpectReference(&db, Serial(), **empty, on_empty);
}

TEST(PipelineReferenceTest, NestedComparisonsCompareTruthValues) {
  // Hand-built ASTs whose comparison operand is itself a predicate: the
  // operand is the predicate's Kleene value as int64 1/0 or NULL.
  using enum CompareOp;
  TPDatabase db;
  const TPRelation* rel = MakeMixed(&db, 300, 17);
  const std::vector<RefTuple> tuples = TuplesOf(*rel);
  struct Case {
    std::string name;
    AstExprPtr ast;
    Pred ref;
  };
  const auto key_is = [] {
    return AstCompare(kEq, AstColumn("key"), AstLiteral(I(1)));
  };
  const auto score_above = [] {
    return AstCompare(kGt, AstColumn("score"), AstLiteral(D(10.0)));
  };
  const std::vector<Case> cases = {
      {"(key = 1) = 1", AstCompare(kEq, key_is(), AstLiteral(I(1))),
       [](const RefTuple& t) {
         return Cmp(AsOperand(Cmp(t.fact[kKey], kEq, I(1))), kEq, I(1));
       }},
      {"(key = 1) = 1.0", AstCompare(kEq, key_is(), AstLiteral(D(1.0))),
       [](const RefTuple& t) {
         return Cmp(AsOperand(Cmp(t.fact[kKey], kEq, I(1))), kEq, D(1.0));
       }},
      {"0 = (score > 10.0)", AstCompare(kEq, AstLiteral(I(0)), score_above()),
       [](const RefTuple& t) {
         return Cmp(I(0), kEq, AsOperand(Cmp(t.fact[kScore], kGt, D(10.0))));
       }},
      {"(score > 10.0) < key",
       AstCompare(kLt, score_above(), AstColumn("key")),
       [](const RefTuple& t) {
         return Cmp(AsOperand(Cmp(t.fact[kScore], kGt, D(10.0))), kLt,
                    t.fact[kKey]);
       }},
      {"(key = 1) = (score IS NULL)",
       AstCompare(kEq, key_is(), AstIsNull(AstColumn("score"))),
       [](const RefTuple& t) {
         return Cmp(AsOperand(Cmp(t.fact[kKey], kEq, I(1))), kEq,
                    AsOperand(t.fact[kScore].is_null()));
       }},
      {"(1 = 1) = key", AstCompare(kEq, AstCompare(kEq, AstLiteral(I(1)),
                                                   AstLiteral(I(1))),
                                   AstColumn("key")),
       [](const RefTuple& t) { return Cmp(I(1), kEq, t.fact[kKey]); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LogicalPlan plan;
    plan.root = LogicalNode::Filter(LogicalNode::Scan("mixed"), c.ast);
    RefQuery q;
    q.where = c.ref;
    const std::vector<Expected> want = Reference(tuples, q, rel->manager());
    EXPECT_FALSE(want.empty());
    for (const SessionOptions& options : {Serial(), Parallel()}) {
      StatusOr<TPRelation> got = Session(&db, options).Execute(plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectMatches(want, *got);
    }
  }
}

TEST(PipelineReferenceTest, ExplainReportsVectorizedSection) {
  TPDatabase db;
  StatusOr<TPRelation*> rel =
      db.CreateRelation("t", Schema({{"key", DatumType::kInt64}}));
  ASSERT_TRUE(rel.ok());
  for (int64_t i = 0; i < 1500; ++i)
    ASSERT_TRUE(
        (*rel)->AppendBase({Datum(i)}, Interval(i, i + 1), 0.9).ok());

  StatusOr<std::string> text =
      Session(&db, Serial()).Explain("SELECT * FROM t WHERE key < 600");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("vectorized:"), std::string::npos) << *text;
  EXPECT_NE(text->find("batches:"), std::string::npos) << *text;
  EXPECT_NE(text->find("pruned by selection:"), std::string::npos) << *text;
  EXPECT_NE(text->find("(vec)"), std::string::npos) << *text;
}

TEST(PipelineReferenceTest, TableBatchRoundTripIsIdentity) {
  TPDatabase db;
  const TPRelation* rel = MakeMixed(&db, 1300, 9);
  const Table table = rel->ToTable();
  // Table → batches (TableBatchScan) → table (MaterializeBatches) must be
  // the identity for every column representation, including NULLs.
  vec::TableBatchScan scan(&table);
  const Table out = vec::MaterializeBatches(&scan);
  ASSERT_TRUE(out.schema == table.schema);
  ASSERT_EQ(out.rows.size(), table.rows.size());
  for (size_t i = 0; i < table.rows.size(); ++i)
    EXPECT_EQ(CompareRows(table.rows[i], out.rows[i]), 0) << "row " << i;
}

// -- GROUP BY over join results ----------------------------------------------

/// r(key, a, v) and s(key, b), equi-joined on `key`: NULL on every 13th
/// tuple of both sides, so outer joins keep unmatched tuples and the NULL
/// key forms a group of its own.
void FillJoinInputs(TPDatabase* db, int64_t n, uint64_t seed) {
  StatusOr<TPRelation*> r = db->CreateRelation(
      "r", Schema({{"key", DatumType::kInt64},
                   {"a", DatumType::kInt64},
                   {"v", DatumType::kDouble}}));
  StatusOr<TPRelation*> s = db->CreateRelation(
      "s", Schema({{"key", DatumType::kInt64}, {"b", DatumType::kInt64}}));
  ASSERT_TRUE(r.ok() && s.ok());
  Random rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    const Datum key = i % 13 == 0 ? Datum::Null() : Datum((i / 3) % 60);
    ASSERT_TRUE((*r)
                    ->AppendBase({key, Datum(i), Datum((i % 9) / 2.0)},
                                 Interval(i * 2, i * 2 + 1 + i % 7),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
    ASSERT_TRUE((*s)
                    ->AppendBase({key, Datum(i % 50)},
                                 Interval(i * 2 + 1, i * 2 + 3 + i % 5),
                                 0.2 + 0.6 * rng.NextDouble())
                    .ok());
  }
}

/// GROUP BY over each join kind's result, with and without a WHERE above
/// the join, against the groups of the join's own tuples (run serially on
/// the same database): the group's interval span, the probability of the
/// OR of its lineages, ascending key order.
void ExpectJoinAggregatesMatchReference(TPDatabase* db,
                                        const SessionOptions& options) {
  using enum CompareOp;
  for (const std::string kind : {"INNER", "LEFT", "RIGHT", "FULL", "ANTI"}) {
    const std::string from = " FROM r " + kind + " JOIN s ON key";
    StatusOr<TPRelation> join = Session(db, Serial()).Query("SELECT *" + from);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ASSERT_GT(join->size(), 0u) << kind;
    const Schema& schema = join->fact_schema();
    const auto col = [&schema](const char* name) {
      const int at = schema.IndexOf(name);
      EXPECT_GE(at, 0) << name;
      return at;
    };
    // The column an outer join pads with NULLs (r's for RIGHT, s's for
    // LEFT / FULL); an anti join keeps only r's columns.
    const std::string padded =
        kind == "RIGHT" || kind == "ANTI" ? "a" : "b";
    const std::string other = kind == "ANTI" ? "a" : "b";
    const std::string select = "SELECT key, COUNT(*), COUNT(" + padded +
                               "), SUM(v), MIN(a), MAX(" + other + ")";
    const std::vector<RefAgg> aggs = {{AggFn::kCount, -1},
                                      {AggFn::kCount, col(padded.c_str())},
                                      {AggFn::kSum, col("v")},
                                      {AggFn::kMin, col("a")},
                                      {AggFn::kMax, col(other.c_str())}};
    const std::vector<RefQuery> queries = {
        {.sql = select + from + " GROUP BY key",
         .group_by = {col("key")},
         .aggs = aggs},
        {.sql = select + from + " WHERE key >= 5 AND a < 400 GROUP BY key",
         .where = AndP(Where(col("key"), kGe, I(5)),
                       Where(col("a"), kLt, I(400))),
         .group_by = {col("key")},
         .aggs = aggs},
    };
    ExpectReference(db, options, *join, queries);
  }
}

TEST(PipelineReferenceTest, GroupByOverJoinResultsMatchesReference) {
  TPDatabase warm;
  FillJoinInputs(&warm, 300, 19);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const std::string path = TempPath("pipeline_reference_join.tpdb");
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 128;
  ASSERT_TRUE(warm.SaveSnapshot(path, snapshot_options).ok());
  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("r"))->cold_storage(), nullptr);
  for (TPDatabase* db : {&warm, &cold}) {
    SCOPED_TRACE(db == &warm ? "warm" : "cold");
    for (const SessionOptions& options : {Serial(), Parallel()})
      ExpectJoinAggregatesMatchReference(db, options);
  }
  std::remove(path.c_str());
}

// -- Error paths --------------------------------------------------------------

TEST(PipelineErrorTest, UnknownColumnsFailAlikeOnEveryRoute) {
  const std::string path = TempPath("pipeline_errors.tpdb");
  TPDatabase warm;
  MakeMixed(&warm, 1537, 21);
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 512;
  ASSERT_TRUE(warm.SaveSnapshot(path, snapshot_options).ok());
  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());

  const std::string have =
      "(have: key:int64, score:double, city:string, tag:string, "
      "_ts:int64, _te:int64, _lin:lineage)";
  // (query, expected message): each site alone, under a sort and under an
  // aggregate.
  const std::vector<std::pair<std::string, std::string>> cases = {
      // WHERE
      {"SELECT * FROM mixed WHERE nope = 1", "unknown column 'nope' " + have},
      {"SELECT * FROM mixed WHERE key > 3 AND (city = 'ZAK' OR nope > 2.5)",
       "unknown column 'nope' " + have},
      {"SELECT * FROM mixed WHERE nope IS NULL ORDER BY key",
       "unknown column 'nope' " + have},
      {"SELECT key, COUNT(*) FROM mixed WHERE nope = 1 GROUP BY key",
       "unknown column 'nope' " + have},
      {"SELECT * FROM mixed WHERE nope > 1 ORDER BY _prob DESC LIMIT 3",
       "unknown column 'nope' " + have},  // the pruned top-k path
      // SELECT
      {"SELECT key, nope FROM mixed", "unknown column 'nope' " + have},
      {"SELECT nope FROM mixed WHERE key > 3 ORDER BY key",
       "unknown column 'nope' " + have},
      // ORDER BY
      {"SELECT * FROM mixed ORDER BY nope", "unknown ORDER BY column 'nope'"},
      {"SELECT * FROM mixed WHERE key > 3 ORDER BY nope LIMIT 4",
       "unknown ORDER BY column 'nope'"},
      {"SELECT key, COUNT(*) AS n FROM mixed GROUP BY key ORDER BY nope",
       "unknown ORDER BY column 'nope'"},
      // GROUP BY
      {"SELECT COUNT(*) FROM mixed GROUP BY nope",
       "unknown GROUP BY column 'nope'"},
      {"SELECT COUNT(*) AS n FROM mixed WHERE key > 3 GROUP BY nope "
       "ORDER BY n",
       "unknown GROUP BY column 'nope'"},
      // aggregate arguments
      {"SELECT key, SUM(nope) FROM mixed GROUP BY key",
       "unknown aggregate column 'nope'"},
      {"SELECT key, MAX(nope) AS m FROM mixed WHERE key > 3 GROUP BY key "
       "ORDER BY m",
       "unknown aggregate column 'nope'"},
  };
  for (const auto& [query, message] : cases) {
    SCOPED_TRACE(query);
    for (TPDatabase* db : {&warm, &cold}) {
      for (const SessionOptions& options : {Serial(), Parallel()}) {
        StatusOr<TPRelation> got = Session(db, options).Query(query);
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << got.status().ToString();
        EXPECT_EQ(got.status().message(), message);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PipelineErrorTest, MalformedHandBuiltPredicatesReturnAStatus) {
  TPDatabase db;
  MakeMixed(&db, 64, 3);
  LogicalPlan plan;
  plan.root = LogicalNode::Filter(
      LogicalNode::Scan("mixed"),
      AstCompare(CompareOp::kEq, AstColumn("key"), nullptr));
  for (const SessionOptions& options : {Serial(), Parallel()}) {
    StatusOr<TPRelation> got = Session(&db, options).Execute(plan);
    EXPECT_FALSE(got.ok());
  }
}

}  // namespace
}  // namespace tpdb
