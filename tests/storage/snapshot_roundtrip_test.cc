// Snapshot round-trip properties: a database saved with SaveSnapshot and
// reloaded into a fresh TPDatabase must hold element-wise identical
// relations (facts, intervals, lineage renderings, exact probabilities)
// and answer every query of the reference suite — joins, LAWAU/LAWAN set
// operations, aggregates, filtered/ordered/probability-thresholded
// pipelines — with identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/random.h"
#include "storage/snapshot.h"
#include "tests/reference/fixtures.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

/// The sorted variable names mentioned by a lineage formula — comparable
/// across managers (node ids are not: commutative children re-order by
/// arena id after re-interning, without affecting semantics).
std::vector<std::string> VariableNames(const TPRelation& rel,
                                       LineageRef lineage) {
  std::vector<std::string> names;
  for (const VarId v : rel.manager()->Variables(lineage))
    names.push_back(rel.manager()->VariableName(v));
  std::sort(names.begin(), names.end());
  return names;
}

/// Element-wise equality of two relations: schema, facts, intervals,
/// lineage variable sets (names survive snapshots) and exact probability.
void ExpectRelationsEqual(const TPRelation& a, const TPRelation& b) {
  ASSERT_EQ(a.size(), b.size()) << a.name();
  EXPECT_TRUE(a.fact_schema() == b.fact_schema()) << a.name();
  for (size_t i = 0; i < a.size(); ++i) {
    const TPTuple& ta = a.tuple(i);
    const TPTuple& tb = b.tuple(i);
    EXPECT_EQ(ta.fact, tb.fact) << a.name() << " tuple " << i;
    EXPECT_EQ(ta.interval, tb.interval) << a.name() << " tuple " << i;
    EXPECT_EQ(VariableNames(a, ta.lineage), VariableNames(b, tb.lineage))
        << a.name() << " tuple " << i;
    EXPECT_EQ(a.Probability(i), b.Probability(i))
        << a.name() << " tuple " << i;
  }
}

/// Runs `query` on both databases and compares the results element-wise
/// (including exact probabilities).
void ExpectSameResults(TPDatabase& warm, TPDatabase& cold,
                       const std::string& query) {
  StatusOr<TPRelation> a = warm.Query(query);
  StatusOr<TPRelation> b = cold.Query(query);
  ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
  SCOPED_TRACE(query);
  ExpectRelationsEqual(*a, *b);
}

/// The Fig. 1 booking example plus random relations and derived results
/// (compound lineages with negation), registered into `db`.
void PopulateDatabase(TPDatabase* db, uint64_t seed) {
  Schema ab_schema;
  ab_schema.AddColumn({"Name", DatumType::kString});
  ab_schema.AddColumn({"Loc", DatumType::kString});
  TPRelation* a = *db->CreateRelation("wants", ab_schema);
  ASSERT_TRUE(
      a->AppendBase({Datum("Ann"), Datum("ZAK")}, {7, 10}, 0.8, "a1").ok());
  ASSERT_TRUE(
      a->AppendBase({Datum("Tom"), Datum("ZAK")}, {3, 9}, 0.4, "a2").ok());

  Schema b_schema;
  b_schema.AddColumn({"Hotel", DatumType::kString});
  b_schema.AddColumn({"Loc", DatumType::kString});
  TPRelation* b = *db->CreateRelation("hotels", b_schema);
  ASSERT_TRUE(
      b->AppendBase({Datum("H1"), Datum("ZAK")}, {2, 8}, 0.7, "b1").ok());
  ASSERT_TRUE(
      b->AppendBase({Datum("H2"), Datum("ZAK")}, {6, 12}, 0.5, "b2").ok());
  ASSERT_TRUE(
      b->AppendBase({Datum("H3"), Datum("KOS")}, {1, 14}, 0.9, "b3").ok());

  Random rng(seed);
  testing::RandomRelationOptions options;
  options.num_tuples = 24;
  auto r = testing::MakeRandomRelation(db->manager(), "r", options, &rng);
  auto s = testing::MakeRandomRelation(db->manager(), "s", options, &rng);
  ASSERT_TRUE(db->Register(std::move(*r)).ok());
  ASSERT_TRUE(db->Register(std::move(*s)).ok());

  // Derived relations carry compound lineages (∧, ∨, ¬) into the node
  // table: an outer join (NULL padding exercises the null bitmaps) and a
  // difference (AndNot lineages).
  StatusOr<TPRelation> joined = db->Query("wants LEFT JOIN hotels ON Loc");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_TRUE(db->Register(std::move(*joined)).ok());
  StatusOr<TPRelation> diff = db->Query("r EXCEPT s");
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  ASSERT_TRUE(db->Register(std::move(*diff)).ok());
}

class SnapshotRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundtripTest, CatalogAndQueriesSurviveReload) {
  const std::string path =
      TempPath("roundtrip_" + std::to_string(GetParam()) + ".tpdb");
  TPDatabase db;
  PopulateDatabase(&db, GetParam());
  ASSERT_TRUE(db.SaveSnapshot(path).ok());

  TPDatabase reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(path).ok());

  // Every relation must reload element-wise identical, with the columnar
  // backing attached.
  ASSERT_EQ(db.RelationNames(), reloaded.RelationNames());
  for (const std::string& name : db.RelationNames()) {
    ExpectRelationsEqual(**db.Get(name), **reloaded.Get(name));
    EXPECT_NE((*reloaded.Get(name))->cold_storage(), nullptr) << name;
  }

  // Reference query suite: TP joins (NJ and the TA baseline), LAWAU /
  // LAWAN set operations, aggregates and fused pipelines.
  const std::vector<std::string> queries = {
      "wants INNER JOIN hotels ON Loc",
      "wants LEFT JOIN hotels ON Loc",
      "wants FULL JOIN hotels ON Loc",
      "wants ANTI JOIN hotels ON Loc",
      "r SEMI JOIN s ON key USING TA",
      "r INNER JOIN s ON key USING TA",
      "r UNION s",
      "r INTERSECT s",
      "r EXCEPT s",
      "SELECT key, COUNT(*) AS n, MAX(tag) FROM r GROUP BY key",
      "SELECT Name, Hotel FROM wants INNER JOIN hotels ON Loc "
      "WHERE Loc = 'ZAK' ORDER BY Name LIMIT 3",
      "SELECT * FROM r WHERE key = 1 AND _ts >= 4",
      "SELECT * FROM wants WITH PROB >= 0.5",
      "SELECT * FROM r WHERE tag >= 1 ORDER BY _ts LIMIT 10 "
      "WITH PROB > 0.2",
  };
  for (const std::string& query : queries) ExpectSameResults(db, reloaded, query);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundtripTest,
                         ::testing::Values(7u, 1234u, 99991u));

TEST(SnapshotTest, EmptyDatabaseAndEmptyRelationRoundtrip) {
  const std::string path = TempPath("roundtrip_empty.tpdb");
  TPDatabase db;
  Schema schema;
  schema.AddColumn({"x", DatumType::kInt64});
  ASSERT_TRUE(db.CreateRelation("empty", schema).ok());
  ASSERT_TRUE(db.SaveSnapshot(path).ok());

  TPDatabase reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(path).ok());
  StatusOr<const TPRelation*> rel =
      const_cast<const TPDatabase&>(reloaded).Get("empty");
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE((*rel)->empty());
  EXPECT_TRUE((*rel)->fact_schema() == schema);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SnapshotStatementsRunThroughTheQueryApi) {
  const std::string path = TempPath("roundtrip_stmt.tpdb");
  TPDatabase db;
  PopulateDatabase(&db, 42);
  ASSERT_TRUE(db.Query("SAVE SNAPSHOT '" + path + "'").ok());

  TPDatabase reloaded;
  ASSERT_TRUE(reloaded.Query("LOAD SNAPSHOT '" + path + "'").ok());
  ExpectSameResults(db, reloaded, "wants LEFT JOIN hotels ON Loc");

  // Loading again clashes on variable names — reported, not aborted.
  const Status again =
      reloaded.Query("LOAD SNAPSHOT '" + path + "'").status();
  EXPECT_FALSE(again.ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MultiSegmentRelationRoundtripsAcrossSegmentSizes) {
  const std::string path = TempPath("roundtrip_segments.tpdb");
  TPDatabase db;
  Random rng(4711);
  testing::RandomRelationOptions options;
  options.num_tuples = 150;
  options.num_keys = 5;
  options.horizon = 400;
  auto r = testing::MakeRandomRelation(db.manager(), "big", options, &rng);
  ASSERT_TRUE(db.Register(std::move(*r)).ok());

  for (const size_t segment_rows : {1u, 7u, 64u, 4096u}) {
    storage::SnapshotOptions snap;
    snap.segment_rows = segment_rows;
    ASSERT_TRUE(db.SaveSnapshot(path, snap).ok());
    TPDatabase reloaded;
    ASSERT_TRUE(reloaded.LoadSnapshot(path).ok());
    SCOPED_TRACE("segment_rows=" + std::to_string(segment_rows));
    ExpectRelationsEqual(**db.Get("big"), **reloaded.Get("big"));
    ExpectSameResults(db, reloaded, "SELECT * FROM big WHERE _ts >= 100");
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, FailedLoadLeavesNoState) {
  // Regression: a load rejected for a relation-name clash must not leave
  // the snapshot's variables behind in the lineage manager — a retry
  // after resolving the clash has to succeed.
  const std::string path = TempPath("roundtrip_failed_load.tpdb");
  {
    TPDatabase source;
    Schema schema;
    schema.AddColumn({"x", DatumType::kInt64});
    TPRelation* rel = *source.CreateRelation("clash", schema);
    ASSERT_TRUE(
        rel->AppendBase({Datum(int64_t{1})}, {0, 5}, 0.5, "snapvar").ok());
    ASSERT_TRUE(source.SaveSnapshot(path).ok());
  }

  TPDatabase db;
  ASSERT_TRUE(db.CreateRelation("clash", Schema{}).ok());
  const Status failed = db.LoadSnapshot(path);
  EXPECT_EQ(failed.code(), StatusCode::kAlreadyExists) << failed.ToString();
  EXPECT_FALSE(db.manager()->FindVariable("snapvar").ok())
      << "failed load polluted the lineage manager";

  ASSERT_TRUE(db.Drop("clash").ok());
  EXPECT_TRUE(db.LoadSnapshot(path).ok());
  EXPECT_EQ((*db.Get("clash"))->size(), 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MutationDetachesColdStorage) {
  const std::string path = TempPath("roundtrip_detach.tpdb");
  TPDatabase db;
  Schema schema;
  schema.AddColumn({"x", DatumType::kInt64});
  TPRelation* rel = *db.CreateRelation("t", schema);
  ASSERT_TRUE(rel->AppendBase({Datum(int64_t{1})}, {0, 5}, 0.5).ok());
  ASSERT_TRUE(db.SaveSnapshot(path).ok());

  TPDatabase reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(path).ok());
  TPRelation* loaded = *reloaded.Get("t");
  ASSERT_NE(loaded->cold_storage(), nullptr);
  ASSERT_TRUE(loaded->AppendBase({Datum(int64_t{2})}, {5, 9}, 0.5).ok());
  // The appended tuple is not in the mapped segments; the backing must go.
  EXPECT_EQ(loaded->cold_storage(), nullptr);
  StatusOr<TPRelation> all =
      reloaded.Query("SELECT * FROM t WHERE x >= 0");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpdb
