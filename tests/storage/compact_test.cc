// Compaction tests: folding delta segments into compressed base segments
// must be invisible to readers — element-wise results and exact
// probabilities identical before, during and after a compaction running
// concurrently with queries — while the storage accounting shows the
// deltas gone and the data re-packed.
//
// The appended data carries strictly increasing timestamps so compaction's
// interval re-sort is the identity permutation and tuple order (hence
// result order) is comparable across the swap.
#include "storage/compact/compactor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "lineage/probability.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TestTempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Schema EventSchema() {
  Schema schema;
  schema.AddColumn({"key", DatumType::kInt64});
  schema.AddColumn({"loc", DatumType::kString});
  return schema;
}

TPDatabase::AppendRow EventRow(int64_t i) {
  static const char* kCities[] = {"GVA", "ZAK", "BRN", "LSN"};
  TPDatabase::AppendRow row;
  row.fact = {Datum(i % 50), Datum(i % 11 == 0
                                       ? Datum::Null()
                                       : Datum(kCities[i % 4]))};
  row.interval = Interval(i * 3, i * 3 + 2);  // strictly increasing _ts
  row.prob = 0.3 + 0.1 * static_cast<double>(i % 5);
  return row;
}

/// One query result reduced to comparable form.
struct CanonicalTuple {
  Row fact;
  Interval interval;
  double probability;
};

std::vector<CanonicalTuple> RunQuery(TPDatabase* db,
                                     const std::string& query) {
  StatusOr<TPRelation> result = db->Query(query);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  std::vector<CanonicalTuple> out;
  if (!result.ok()) return out;
  ProbabilityEngine engine(result->manager());
  out.reserve(result->size());
  for (const TPTuple& t : result->tuples())
    out.push_back({t.fact, t.interval, engine.Probability(t.lineage)});
  return out;
}

bool SameTuples(const std::vector<CanonicalTuple>& a,
                const std::vector<CanonicalTuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (CompareRows(a[i].fact, b[i].fact) != 0 ||
        !(a[i].interval == b[i].interval) ||
        a[i].probability != b[i].probability)
      return false;
  return true;
}

/// Cold-backed database: 600 rows snapshot-loaded (base segments) plus
/// `extra_batches` appended batches (one delta segment each).
void BuildColdDatabase(TPDatabase* db, const std::string& snap_path,
                       size_t extra_batches, size_t batch_rows) {
  {
    TPDatabase builder;
    ASSERT_TRUE(builder.CreateRelation("events", EventSchema()).ok());
    std::vector<TPDatabase::AppendRow> rows;
    for (int64_t i = 0; i < 600; ++i) rows.push_back(EventRow(i));
    ASSERT_TRUE(builder.Append("events", std::move(rows)).ok());
    ASSERT_TRUE(builder.SaveSnapshot(snap_path).ok());
  }
  db->set_compaction_threshold(0);  // manual compaction only
  ASSERT_TRUE(db->LoadSnapshot(snap_path).ok());
  int64_t next = 600;
  for (size_t b = 0; b < extra_batches; ++b) {
    std::vector<TPDatabase::AppendRow> rows;
    for (size_t i = 0; i < batch_rows; ++i) rows.push_back(EventRow(next++));
    ASSERT_TRUE(db->Append("events", std::move(rows)).ok());
  }
}

TEST(CompactTest, CompactionFoldsDeltasAndPreservesEveryResult) {
  const std::string snap_path = TempPath("compact_fold.tpdb");
  TPDatabase db;
  BuildColdDatabase(&db, snap_path, /*extra_batches=*/5, /*batch_rows=*/40);
  db.set_compaction_segment_rows(256);  // force several base segments

  TPDatabase::DatabaseStats before = db.Stats();
  ASSERT_EQ(before.relations.size(), 1u);
  EXPECT_TRUE(before.relations[0].cold);
  EXPECT_EQ(before.relations[0].delta_segments, 5u);
  EXPECT_EQ(before.relations[0].rows, 800u);

  const std::vector<std::string> queries = {
      "SELECT * FROM events",
      "SELECT * FROM events WHERE key < 20",
      "SELECT * FROM events WHERE loc = 'ZAK' WITH PROB >= 0.5",
  };
  std::vector<std::vector<CanonicalTuple>> baseline;
  for (const std::string& q : queries) baseline.push_back(RunQuery(&db, q));

  ASSERT_TRUE(db.Compact("events").ok());

  TPDatabase::DatabaseStats after = db.Stats();
  EXPECT_EQ(after.relations[0].rows, 800u);
  EXPECT_TRUE(after.relations[0].cold);
  EXPECT_EQ(after.relations[0].delta_segments, 0u);
  EXPECT_GE(after.relations[0].base_segments, 3u);  // 800 rows / 256
  EXPECT_EQ(after.compactions, 1u);

  for (size_t q = 0; q < queries.size(); ++q)
    EXPECT_TRUE(SameTuples(baseline[q], RunQuery(&db, queries[q])))
        << queries[q];

  // A second compaction with no deltas is a clean no-op.
  ASSERT_TRUE(db.Compact("events").ok());
  EXPECT_TRUE(SameTuples(baseline[0], RunQuery(&db, queries[0])));
  std::remove(snap_path.c_str());
}

TEST(CompactTest, QueriesRunningDuringCompactionSeeIdenticalResults) {
  const std::string snap_path = TempPath("compact_concurrent.tpdb");
  TPDatabase db;
  BuildColdDatabase(&db, snap_path, /*extra_batches=*/8, /*batch_rows=*/50);
  db.set_compaction_segment_rows(256);

  const std::vector<std::string> queries = {
      "SELECT * FROM events",
      "SELECT * FROM events WHERE key < 25",
      "SELECT * FROM events WITH PROB >= 0.6",
  };
  std::vector<std::vector<CanonicalTuple>> baseline;
  for (const std::string& q : queries) baseline.push_back(RunQuery(&db, q));

  // Readers hammer the relation while compactions run; every result must
  // equal the baseline element-wise (probabilities bit-exact).
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> rounds{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        const size_t q = static_cast<size_t>(rounds.fetch_add(1)) %
                         queries.size();
        const std::vector<CanonicalTuple> got = RunQuery(&db, queries[q]);
        if (!SameTuples(baseline[q], got)) ++mismatches;
      }
    });
  }
  // Readers must be running before the folds start; on one core the
  // compactions could otherwise finish before any reader is scheduled.
  while (rounds.load() < 4) std::this_thread::yield();
  // Alternate compactions with fresh appends so each compaction has
  // deltas to fold. Appends extend the baseline, so re-query it after.
  int64_t next = 600 + 8 * 50;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(db.Compact("events").ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(rounds.load(), 0);

  // Appends after the folds keep working and show up.
  std::vector<TPDatabase::AppendRow> rows;
  for (size_t i = 0; i < 10; ++i) rows.push_back(EventRow(next++));
  ASSERT_TRUE(db.Append("events", std::move(rows)).ok());
  EXPECT_EQ(RunQuery(&db, "SELECT * FROM events").size(), 1010u);
  std::remove(snap_path.c_str());
}

TEST(CompactTest, BackgroundCompactionTriggersAtTheDeltaThreshold) {
  const std::string snap_path = TempPath("compact_auto.tpdb");
  TPDatabase db;
  BuildColdDatabase(&db, snap_path, /*extra_batches=*/0, /*batch_rows=*/0);
  db.set_compaction_threshold(3);

  int64_t next = 600;
  for (int b = 0; b < 3; ++b) {
    std::vector<TPDatabase::AppendRow> rows;
    for (size_t i = 0; i < 20; ++i) rows.push_back(EventRow(next++));
    ASSERT_TRUE(db.Append("events", std::move(rows)).ok());
  }
  // The third delta crosses the threshold; the background task runs on
  // the shared pool. Poll briefly for it to land.
  for (int spin = 0; spin < 500 && db.Stats().compactions == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  TPDatabase::DatabaseStats stats = db.Stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.relations[0].delta_segments, 0u);
  EXPECT_EQ(stats.relations[0].rows, 660u);
  EXPECT_EQ(RunQuery(&db, "SELECT * FROM events").size(), 660u);
  std::remove(snap_path.c_str());
}

TEST(CompactTest, CompactionRepacksIntoFewerBytesWithExactBounds) {
  const std::string snap_path = TempPath("compact_bytes.tpdb");
  TPDatabase db;
  BuildColdDatabase(&db, snap_path, /*extra_batches=*/6, /*batch_rows=*/64);
  TPDatabase::DatabaseStats before = db.Stats();
  ASSERT_TRUE(db.Compact("events").ok());
  TPDatabase::DatabaseStats after = db.Stats();
  // Folding six 64-row deltas into full base segments cannot grow the
  // encoded footprint, and the packed share keeps the ratio above 1.
  EXPECT_LE(after.relations[0].encoded_bytes,
            before.relations[0].encoded_bytes);
  EXPECT_GT(after.CompressionRatio(), 1.0);
  std::remove(snap_path.c_str());
}

TEST(CompactTest, CompactingAMissingOrHotRelationIsHarmless) {
  TPDatabase db;
  EXPECT_FALSE(db.Compact("nope").ok());
  // A relation without cold storage (never snapshot-loaded) is a no-op.
  ASSERT_TRUE(db.CreateRelation("hot", EventSchema()).ok());
  ASSERT_TRUE(db.Append("hot", {EventRow(0)}).ok());
  EXPECT_TRUE(db.Compact("hot").ok());
  EXPECT_EQ(RunQuery(&db, "SELECT * FROM hot").size(), 1u);
}

}  // namespace
}  // namespace tpdb
