// Zone-map pruning: a time-range (or probability / numeric) filtered scan
// over a multi-segment table must skip every segment whose zone map rules
// it out — asserted both on SegmentScan's counters directly and on the
// Explain storage section — while returning exactly the rows the unpruned
// in-memory pipeline returns.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "api/database.h"
#include "engine/materialize.h"
#include "storage/scan.h"
#include "storage/snapshot.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

constexpr int64_t kTuples = 320;
constexpr size_t kSegmentRows = 64;  // 5 segments of 64 rows

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

/// 320 tuples: tuple i has key i%4, val i (double), interval [2i, 2i+1)
/// and probability 0.2 for i < 160, 0.9 beyond — so time, value and
/// probability all correlate with the segment order.
void Populate(TPDatabase* db) {
  Schema schema;
  schema.AddColumn({"key", DatumType::kInt64});
  schema.AddColumn({"val", DatumType::kDouble});
  TPRelation* rel = *db->CreateRelation("events", schema);
  for (int64_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(rel->AppendBase({Datum(i % 4), Datum(static_cast<double>(i))},
                                {2 * i, 2 * i + 1}, i < 160 ? 0.2 : 0.9)
                    .ok());
  }
}

class ZoneMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("zone_map.tpdb");
    Populate(&warm_);
    storage::SnapshotOptions options;
    options.segment_rows = kSegmentRows;
    ASSERT_TRUE(warm_.SaveSnapshot(path_, options).ok());
    ASSERT_TRUE(cold_.LoadSnapshot(path_).ok());
    ASSERT_NE((*cold_.Get("events"))->cold_storage(), nullptr);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Pruned (cold) and unpruned (warm) results must agree element-wise.
  void ExpectSameResults(const std::string& query) {
    StatusOr<TPRelation> a = warm_.Query(query);
    StatusOr<TPRelation> b = cold_.Query(query);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->size(), b->size()) << query;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->tuple(i).fact, b->tuple(i).fact) << query << " row " << i;
      EXPECT_EQ(a->tuple(i).interval, b->tuple(i).interval);
      EXPECT_EQ(a->Probability(i), b->Probability(i));
    }
  }

  std::string path_;
  TPDatabase warm_;
  TPDatabase cold_;
};

TEST_F(ZoneMapTest, SegmentScanSkipsNonOverlappingTimeRanges) {
  const auto& table = *(*cold_.Get("events"))->cold_storage();
  ASSERT_EQ(table.segments().size(), 5u);

  // _ts >= 512 ⇔ tuple index >= 256: only the last segment qualifies.
  storage::ScanPredicate predicate;
  predicate.AddLowerBound("_ts", 512.0, /*strict=*/false);
  StorageStats stats;
  storage::SegmentScan scan(&table, predicate, &stats);
  const Table out = Materialize(&scan);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_skipped, 4u);
  EXPECT_EQ(stats.rows_decoded, kSegmentRows);
  EXPECT_GT(stats.bytes_mapped, 0u);
  // The scan itself is conservative: it returns the whole surviving
  // segment; the filter above it does the exact per-row work.
  EXPECT_EQ(out.size(), kSegmentRows);
}

TEST_F(ZoneMapTest, ExplainReportsTimeRangePruning) {
  StatusOr<std::string> explain =
      cold_.Explain("SELECT * FROM events WHERE _ts >= 512");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("(cold)"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("segments scanned: 1"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("segments skipped: 4"), std::string::npos)
      << *explain;
  ExpectSameResults("SELECT * FROM events WHERE _ts >= 512");

  // A bounded window: _ts < 100 keeps only the first segment.
  StatusOr<std::string> window =
      cold_.Explain("SELECT * FROM events WHERE _ts >= 20 AND _ts < 100");
  ASSERT_TRUE(window.ok());
  EXPECT_NE(window->find("segments scanned: 1"), std::string::npos)
      << *window;
  EXPECT_NE(window->find("segments skipped: 4"), std::string::npos)
      << *window;
  ExpectSameResults("SELECT * FROM events WHERE _ts >= 20 AND _ts < 100");
}

TEST_F(ZoneMapTest, ProbabilityThresholdSkipsLowProbabilitySegments) {
  // Tuples 0..159 have p = 0.2: segments 0 and 1 are all below 0.5 and
  // are skipped; segment 2 is mixed (rows 128..191) and must be scanned.
  StatusOr<std::string> explain =
      cold_.Explain("SELECT * FROM events WITH PROB >= 0.5");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("segments scanned: 3"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("segments skipped: 2"), std::string::npos)
      << *explain;
  ExpectSameResults("SELECT * FROM events WITH PROB >= 0.5");
}

TEST_F(ZoneMapTest, NumericFactColumnBoundsPrune) {
  StatusOr<std::string> explain =
      cold_.Explain("SELECT * FROM events WHERE val >= 300.0");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("segments scanned: 1"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("segments skipped: 4"), std::string::npos)
      << *explain;
  ExpectSameResults("SELECT * FROM events WHERE val >= 300.0");

  // Equality on the key column cannot prune (every segment holds keys
  // 0..3) — all segments scan, nothing is wrongly skipped.
  StatusOr<std::string> all =
      cold_.Explain("SELECT * FROM events WHERE key = 2");
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all->find("segments scanned: 5"), std::string::npos) << *all;
  EXPECT_NE(all->find("segments skipped: 0"), std::string::npos) << *all;
  ExpectSameResults("SELECT * FROM events WHERE key = 2");
}

TEST_F(ZoneMapTest, ProbabilityPruningStopsAfterSetVariableProbability) {
  // Regression: zone-map max_prob is snapshot-time data. Raising a base
  // probability afterwards must not let a stale bound silently drop rows
  // — the planner's epoch gate disables probability pruning instead.
  const std::string query = "SELECT * FROM events WITH PROB >= 0.5";
  StatusOr<TPRelation> before = cold_.Query(query);
  ASSERT_TRUE(before.ok());

  // Tuple 0 lives in a segment whose max_prob (0.2) is below the
  // threshold; raise its variable to 0.95.
  const TPRelation& rel = **cold_.Get("events");
  cold_.manager()->SetVariableProbability(
      cold_.manager()->Variables(rel.tuple(0).lineage).front(), 0.95);

  StatusOr<TPRelation> after = cold_.Query(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1);  // the raised tuple joins

  // And Explain must show pruning disabled (every segment scanned).
  StatusOr<std::string> explain = cold_.Explain(query);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("segments scanned: 5"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("segments skipped: 0"), std::string::npos)
      << *explain;

  // Time/numeric pruning is unaffected by the epoch bump.
  StatusOr<std::string> temporal =
      cold_.Explain("SELECT * FROM events WHERE _ts >= 512");
  ASSERT_TRUE(temporal.ok());
  EXPECT_NE(temporal->find("segments skipped: 4"), std::string::npos)
      << *temporal;
}

TEST_F(ZoneMapTest, WarmDatabaseHasNoStorageSection) {
  StatusOr<std::string> explain =
      warm_.Explain("SELECT * FROM events WHERE _ts >= 512");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->find("segments"), std::string::npos) << *explain;
}

}  // namespace
}  // namespace tpdb
