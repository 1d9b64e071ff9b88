// Vectorized-vs-row parity: every query must produce element-wise
// identical results (facts, intervals, exact probabilities — in the same
// order) under vectorize=on and vectorize=off, over in-memory and
// cold-snapshot inputs, across random seeds and every batch-lowered
// operator combination, including selection-vector edge cases (empty
// batch, full batch, one-row tail).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/planner.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "engine/materialize.h"
#include "engine/scan.h"
#include "engine/vector/adapters.h"
#include "engine/vector/batch_ops.h"
#include "exec/session.h"
#include "lineage/probability.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

SessionOptions RowOptions() {
  SessionOptions options;
  options.vectorize = false;
  options.parallelism = 1;
  return options;
}

SessionOptions BatchOptions() {
  SessionOptions options;
  options.vectorize = true;
  options.parallelism = 1;
  return options;
}

/// Element-wise equality: facts, intervals, and exact probabilities, in
/// emit order (the batch path must preserve the row path's order).
void ExpectSameRelation(const TPRelation& row, const TPRelation& batch) {
  ASSERT_EQ(row.size(), batch.size());
  ASSERT_TRUE(row.fact_schema() == batch.fact_schema())
      << row.fact_schema().ToString() << " vs "
      << batch.fact_schema().ToString();
  EXPECT_EQ(row.name(), batch.name());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(CompareRows(row.tuple(i).fact, batch.tuple(i).fact), 0)
        << "fact mismatch at tuple " << i;
    EXPECT_EQ(row.tuple(i).interval, batch.tuple(i).interval)
        << "interval mismatch at tuple " << i;
    EXPECT_EQ(row.Probability(i), batch.Probability(i))
        << "probability mismatch at tuple " << i;
  }
}

/// Runs `query` under both paths on `db` and compares.
void ExpectParity(TPDatabase* db, const std::string& query) {
  SCOPED_TRACE(query);
  StatusOr<TPRelation> row = Session(db, RowOptions()).Query(query);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  StatusOr<TPRelation> batch = Session(db, BatchOptions()).Query(query);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectSameRelation(*row, *batch);
}

/// A relation exercising every column representation: int64 key, double
/// score (with NULLs), dictionary-friendly string city (with NULLs), and
/// a mixed-type column that forces the generic fallback.
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

/// Queries covering every batch-lowered stage and combination.
std::vector<std::string> MixedQueries(const std::string& rel) {
  return {
      "SELECT * FROM " + rel,
      "SELECT * FROM " + rel + " WHERE key >= 40",
      "SELECT * FROM " + rel + " WHERE key >= 20 AND key < 70",
      "SELECT * FROM " + rel + " WHERE score > 10.0",
      "SELECT * FROM " + rel + " WHERE key < 30 OR score >= 20.0",
      "SELECT * FROM " + rel + " WHERE city = 'ZAK'",
      "SELECT * FROM " + rel + " WHERE city <> 'GVA' AND key > 10",
      "SELECT * FROM " + rel + " WHERE score IS NULL",
      "SELECT * FROM " + rel + " WHERE NOT city IS NULL AND key <= 50",
      "SELECT * FROM " + rel + " WHERE 1 = 1",  // constant-folded keep-all
      "SELECT * FROM " + rel + " WHERE 1 = 2",  // constant-folded drop-all
      "SELECT key, city FROM " + rel + " WHERE key >= 10",
      "SELECT key AS k, score AS s FROM " + rel + " WHERE score >= 5.0",
      "SELECT * FROM " + rel + " WHERE _ts >= 900 AND _te < 2400",
      "SELECT * FROM " + rel + " LIMIT 100",
      "SELECT * FROM " + rel + " WHERE key > 5 LIMIT 37 OFFSET 11",
      "SELECT * FROM " + rel + " WITH PROB >= 0.5",
      "SELECT * FROM " + rel + " WHERE key >= 10 LIMIT 50 WITH PROB > 0.4",
      "SELECT * FROM " + rel + " WHERE key >= 10 ORDER BY score LIMIT 25",
      "SELECT city, COUNT(*) AS n FROM " + rel +
          " WHERE key < 80 GROUP BY city",
      "SELECT key, COUNT(*), SUM(score), MIN(score), MAX(city) FROM " + rel +
          " WHERE key >= 8 GROUP BY key",
      "SELECT key, COUNT(*) AS n FROM " + rel +
          " GROUP BY key ORDER BY n DESC LIMIT 10",
  };
}

TEST(VectorParityTest, WarmQueriesMatchRowPath) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TPDatabase db;
    Random rng(seed);
    StatusOr<TPRelation*> rel = db.CreateRelation(
        "mixed", Schema({{"key", DatumType::kInt64},
                         {"score", DatumType::kDouble},
                         {"city", DatumType::kString},
                         {"tag", DatumType::kString}}));
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE(FillMixed(*rel, 1500, &rng).ok());
    for (const std::string& query : MixedQueries("mixed"))
      ExpectParity(&db, query);
  }
}

TEST(VectorParityTest, ColdSnapshotMatchesRowPath) {
  const std::string path = TempPath("vector_parity_cold.tpdb");
  TPDatabase source;
  Random rng(7);
  StatusOr<TPRelation*> rel = source.CreateRelation(
      "mixed", Schema({{"key", DatumType::kInt64},
                       {"score", DatumType::kDouble},
                       {"city", DatumType::kString},
                       {"tag", DatumType::kString}}));
  ASSERT_TRUE(rel.ok());
  // > 2 segments of 512 rows, with a 1-row tail in the last one.
  ASSERT_TRUE(FillMixed(*rel, 1537, &rng).ok());
  storage::SnapshotOptions snapshot_options;
  snapshot_options.segment_rows = 512;
  ASSERT_TRUE(source.SaveSnapshot(path, snapshot_options).ok());

  TPDatabase cold;
  ASSERT_TRUE(cold.LoadSnapshot(path).ok());
  ASSERT_NE((*cold.Get("mixed"))->cold_storage(), nullptr);
  for (const std::string& query : MixedQueries("mixed")) {
    ExpectParity(&cold, query);  // cold batch vs cold row
    // And the cold batch path vs the warm row path of the source db.
    SCOPED_TRACE(query);
    StatusOr<TPRelation> warm_row = Session(&source, RowOptions()).Query(query);
    ASSERT_TRUE(warm_row.ok()) << warm_row.status().ToString();
    StatusOr<TPRelation> cold_batch =
        Session(&cold, BatchOptions()).Query(query);
    ASSERT_TRUE(cold_batch.ok()) << cold_batch.status().ToString();
    ASSERT_EQ(warm_row->size(), cold_batch->size());
    for (size_t i = 0; i < warm_row->size(); ++i) {
      EXPECT_EQ(CompareRows(warm_row->tuple(i).fact,
                            cold_batch->tuple(i).fact), 0);
      EXPECT_EQ(warm_row->tuple(i).interval, cold_batch->tuple(i).interval);
      EXPECT_EQ(warm_row->Probability(i), cold_batch->Probability(i));
    }
  }
  std::remove(path.c_str());
}

TEST(VectorParityTest, RandomWorkloadsAcrossSeeds) {
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
    for (const std::string& query : std::vector<std::string>{
             "SELECT * FROM r WHERE key >= 60",
             "SELECT * FROM r WHERE key >= 20 AND _ts < 2500",
             "SELECT key FROM r WHERE key < 40 WITH PROB >= 0.6",
             "SELECT key, COUNT(*) AS n, MIN(key) FROM r WHERE key >= 30 "
             "GROUP BY key",
             "SELECT * FROM r WHERE key = 7 LIMIT 9",
         })
      ExpectParity(&db, query);
  }
}

TEST(VectorParityTest, SelectionVectorEdgeCases) {
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

  const std::vector<std::string> queries = {
      "SELECT * FROM edge WHERE key < 0",        // every batch empties
      "SELECT * FROM edge WHERE key >= 0",       // every batch full
      "SELECT * FROM edge WHERE key = 2048",     // only the 1-row tail
      "SELECT * FROM edge WHERE key = 1023",     // last row of batch 1
      "SELECT * FROM edge WHERE key = 1024",     // first row of batch 2
      "SELECT * FROM edge LIMIT 1024",           // limit on batch boundary
      "SELECT * FROM edge LIMIT 1025",
      "SELECT * FROM edge LIMIT 10 OFFSET 1020",  // offset spans batches
      "SELECT * FROM edge LIMIT 5 OFFSET 2048",   // offset into the tail
      "SELECT * FROM edge WHERE key >= 1000 LIMIT 30 OFFSET 30",
      "SELECT key, COUNT(*) FROM edge WHERE key < 0 GROUP BY key",  // empty
  };
  for (const std::string& query : queries) ExpectParity(&db, query);

  // An empty relation flows through every stage.
  ASSERT_TRUE(db.CreateRelation("empty", Schema({{"key", DatumType::kInt64}}))
                  .ok());
  ExpectParity(&db, "SELECT * FROM empty WHERE key > 3 LIMIT 5");
  ExpectParity(&db, "SELECT key, COUNT(*) FROM empty GROUP BY key");
}

TEST(VectorParityTest, ParallelBatchMatchesSerialRow) {
  TPDatabase db;
  Random rng(13);
  UniformWorkloadOptions options;
  options.num_tuples = 4000;
  options.num_facts = 200;
  options.history_length = 8000;
  StatusOr<TPRelation> r =
      MakeUniformWorkload(db.manager(), "r", options, &rng);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(db.Register(std::move(*r)).ok());

  SessionOptions parallel_batch = BatchOptions();
  parallel_batch.parallelism = 4;
  parallel_batch.min_parallel_rows = 64;
  parallel_batch.morsel_size = 256;
  for (const std::string& query : std::vector<std::string>{
           "SELECT * FROM r WHERE key >= 50",
           "SELECT key FROM r WHERE key < 120 WITH PROB >= 0.55",
           "SELECT key, COUNT(*) AS n, MAX(key) FROM r WHERE key >= 10 "
           "GROUP BY key",
       }) {
    SCOPED_TRACE(query);
    StatusOr<TPRelation> row = Session(&db, RowOptions()).Query(query);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    StatusOr<TPRelation> batch = Session(&db, parallel_batch).Query(query);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectSameRelation(*row, *batch);
  }
}

TEST(VectorParityTest, ExplainReportsVectorizedSection) {
  TPDatabase db;
  Random rng(3);
  StatusOr<TPRelation*> rel =
      db.CreateRelation("t", Schema({{"key", DatumType::kInt64}}));
  ASSERT_TRUE(rel.ok());
  for (int64_t i = 0; i < 1500; ++i)
    ASSERT_TRUE(
        (*rel)->AppendBase({Datum(i)}, Interval(i, i + 1), 0.9).ok());

  StatusOr<std::string> batch =
      Session(&db, BatchOptions()).Explain("SELECT * FROM t WHERE key < 600");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_NE(batch->find("vectorized:"), std::string::npos) << *batch;
  EXPECT_NE(batch->find("batches:"), std::string::npos) << *batch;
  EXPECT_NE(batch->find("pruned by selection:"), std::string::npos) << *batch;
  EXPECT_NE(batch->find("(vec)"), std::string::npos) << *batch;

  StatusOr<std::string> row =
      Session(&db, RowOptions()).Explain("SELECT * FROM t WHERE key < 600");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->find("vectorized:"), std::string::npos) << *row;
}

TEST(VectorParityTest, RowBatchRowRoundTripIsIdentity) {
  TPDatabase db;
  Random rng(9);
  StatusOr<TPRelation*> rel = db.CreateRelation(
      "mixed", Schema({{"key", DatumType::kInt64},
                       {"score", DatumType::kDouble},
                       {"city", DatumType::kString},
                       {"tag", DatumType::kString}}));
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(FillMixed(*rel, 1300, &rng).ok());
  const Table table = (*rel)->ToTable();

  // Row → batch (RowToBatchAdapter) → row (BatchToRowAdapter) must be the
  // identity for every column representation, including NULLs.
  vec::BatchToRowAdapter round_trip(std::make_unique<vec::RowToBatchAdapter>(
      std::make_unique<TableScan>(&table)));
  const Table out = Materialize(&round_trip);
  ASSERT_EQ(out.rows.size(), table.rows.size());
  for (size_t i = 0; i < table.rows.size(); ++i)
    EXPECT_EQ(CompareRows(table.rows[i], out.rows[i]), 0) << "row " << i;
}

}  // namespace
}  // namespace tpdb
