// WAL durability tests: an acknowledged append survives losing the
// in-memory database (the kill -9 scenario — the WAL is fsynced before
// Append returns), replay reproduces rows, probabilities and variable
// names exactly, snapshots truncate the log atomically, and any torn or
// corrupted tail stops replay at the last valid record — never a crash.
#include "storage/wal/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = testing::TestTempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Schema BookingSchema() {
  Schema schema;
  schema.AddColumn({"key", DatumType::kInt64});
  schema.AddColumn({"loc", DatumType::kString});
  return schema;
}

/// Arms a WAL, creates a relation and appends `n` rows through the
/// durable path (every row acknowledged == on disk).
void PopulateThroughWal(TPDatabase* db, const std::string& wal_path,
                        size_t n) {
  ASSERT_TRUE(db->EnableWal(wal_path).ok());
  ASSERT_TRUE(db->CreateRelation("bookings", BookingSchema()).ok());
  std::vector<TPDatabase::AppendRow> rows;
  for (size_t i = 0; i < n; ++i) {
    TPDatabase::AppendRow row;
    row.fact = {Datum(static_cast<int64_t>(i)),
                Datum(i % 3 == 0 ? "GVA" : "ZAK")};
    row.interval = Interval(static_cast<int64_t>(i * 2),
                            static_cast<int64_t>(i * 2 + 3));
    row.prob = 0.25 + 0.5 * static_cast<double>(i % 3) / 2.0;
    if (i % 2 == 0) row.var_name = "b" + std::to_string(i);  // else auto
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db->Append("bookings", std::move(rows)).ok());
}

/// Element-wise parity of two databases' "bookings" relation: facts,
/// intervals, exact probabilities and the registered variable names.
void ExpectBookingsParity(TPDatabase* expected, TPDatabase* actual) {
  StatusOr<TPRelation*> e = expected->Get("bookings");
  StatusOr<TPRelation*> a = actual->Get("bookings");
  ASSERT_TRUE(e.ok() && a.ok());
  ASSERT_EQ((*e)->size(), (*a)->size());
  for (size_t i = 0; i < (*e)->size(); ++i) {
    const TPTuple& et = (*e)->tuple(i);
    const TPTuple& at = (*a)->tuple(i);
    EXPECT_EQ(CompareRows(et.fact, at.fact), 0) << "row " << i;
    EXPECT_EQ(et.interval, at.interval) << "row " << i;
    EXPECT_EQ((*e)->Probability(i), (*a)->Probability(i)) << "row " << i;
    EXPECT_EQ(expected->manager()->VariableName(
                  expected->manager()->VarOf(et.lineage)),
              actual->manager()->VariableName(
                  actual->manager()->VarOf(at.lineage)))
        << "row " << i;
  }
}

TEST(WalTest, AcknowledgedAppendsSurviveLosingTheDatabase) {
  const std::string wal_path = TempPath("survive.wal");
  auto original = std::make_unique<TPDatabase>();
  PopulateThroughWal(original.get(), wal_path, 20);

  // Simulate kill -9: no snapshot, no orderly shutdown — a fresh process
  // has only the WAL file.
  TPDatabase recovered;
  ASSERT_TRUE(recovered.EnableWal(wal_path).ok());
  ExpectBookingsParity(original.get(), &recovered);
}

TEST(WalTest, ReplayReproducesAutoAssignedVariableNames) {
  const std::string wal_path = TempPath("autonames.wal");
  TPDatabase original;
  PopulateThroughWal(&original, wal_path, 9);  // odd rows are auto-named

  TPDatabase recovered;
  ASSERT_TRUE(recovered.EnableWal(wal_path).ok());
  // Auto names must match exactly, so a second recovery (or appends that
  // follow) keeps registering the same ids in the same order.
  ExpectBookingsParity(&original, &recovered);
  StatusOr<uint64_t> found = [&]() -> StatusOr<uint64_t> {
    StatusOr<VarId> var = recovered.manager()->FindVariable("b0");
    if (!var.ok()) return var.status();
    return uint64_t{1};
  }();
  EXPECT_TRUE(found.ok());
}

TEST(WalTest, SnapshotTruncatesTheLogAndReplayDoesNotDuplicate) {
  const std::string wal_path = TempPath("truncate.wal");
  const std::string snap_path = TempPath("truncate.tpdb");
  TPDatabase original;
  PopulateThroughWal(&original, wal_path, 10);
  const size_t bytes_before = original.wal()->bytes();
  EXPECT_GT(bytes_before, 0u);
  ASSERT_TRUE(original.SaveSnapshot(snap_path).ok());
  // The snapshot subsumes every logged record; the log is reset.
  EXPECT_EQ(original.wal()->bytes(), 0u);

  // More appends after the snapshot land in the (now shorter) log.
  ASSERT_TRUE(original
                  .Append("bookings", {{{Datum(int64_t{100}), Datum("BRN")},
                                        Interval(50, 60),
                                        0.5,
                                        "late"}})
                  .ok());
  EXPECT_GT(original.wal()->bytes(), 0u);
  EXPECT_LT(original.wal()->bytes(), bytes_before);

  // Recovery = snapshot + WAL tail; nothing replays twice.
  TPDatabase recovered;
  ASSERT_TRUE(recovered.LoadSnapshot(snap_path).ok());
  ASSERT_TRUE(recovered.EnableWal(wal_path).ok());
  ExpectBookingsParity(&original, &recovered);
  std::remove(snap_path.c_str());
}

TEST(WalTest, EveryPrefixTruncationReplaysTheValidRecordsOnly) {
  const std::string wal_path = TempPath("prefix.wal");
  {
    TPDatabase db;
    ASSERT_TRUE(db.EnableWal(wal_path).ok());
    ASSERT_TRUE(db.CreateRelation("bookings", BookingSchema()).ok());
    for (int64_t i = 0; i < 6; ++i)
      ASSERT_TRUE(db.Append("bookings",
                            {{{Datum(i), Datum("GVA")},
                              Interval(i * 10, i * 10 + 5),
                              0.5,
                              ""}})
                      .ok());
  }
  const std::string bytes = ReadFile(wal_path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string cut_path = TempPath("prefix_cut.wal");

  size_t last_count = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFile(cut_path, bytes.substr(0, cut));
    StatusOr<storage::WalReadResult> read = storage::ReadWal(cut_path);
    ASSERT_TRUE(read.ok()) << "cut at " << cut << ": "
                           << read.status().ToString();
    // Monotone: a longer prefix never yields fewer records, and every
    // record survives intact (a partial record is torn tail, dropped).
    EXPECT_GE(read->records.size(), last_count) << "cut at " << cut;
    EXPECT_LE(read->valid_bytes, cut);
    last_count = read->records.size();

    // Replaying the truncated log must always work — it is a valid log.
    TPDatabase db;
    ASSERT_TRUE(db.EnableWal(cut_path).ok()) << "cut at " << cut;
    if (!read->records.empty()) {
      StatusOr<TPRelation*> rel = db.Get("bookings");
      ASSERT_TRUE(rel.ok());
      EXPECT_EQ((*rel)->size(), read->records.size() - 1);
    }
  }
  EXPECT_EQ(last_count, 7u);  // create + 6 appends
}

TEST(WalTest, EveryBitFlipStopsReplayAtTheLastValidRecordNeverCrashes) {
  const std::string wal_path = TempPath("bitflip.wal");
  {
    TPDatabase db;
    ASSERT_TRUE(db.EnableWal(wal_path).ok());
    ASSERT_TRUE(db.CreateRelation("bookings", BookingSchema()).ok());
    for (int64_t i = 0; i < 4; ++i)
      ASSERT_TRUE(db.Append("bookings",
                            {{{Datum(i), Datum("ZAK")},
                              Interval(i, i + 1),
                              0.75,
                              ""}})
                      .ok());
  }
  const std::string bytes = ReadFile(wal_path);
  const std::string flip_path = TempPath("bitflip_cut.wal");
  StatusOr<storage::WalReadResult> clean = storage::ReadWal(wal_path);
  ASSERT_TRUE(clean.ok());
  const size_t total = clean->records.size();

  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (const uint8_t flip : {0x01, 0x80}) {
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ flip);
      WriteFile(flip_path, corrupt);
      StatusOr<storage::WalReadResult> read = storage::ReadWal(flip_path);
      ASSERT_TRUE(read.ok()) << "flip at " << pos;
      // The surviving records are a prefix of the original sequence: the
      // CRC catches the flipped record and replay stops there.
      EXPECT_LE(read->records.size(), total);
      for (size_t i = 0; i < read->records.size(); ++i)
        EXPECT_EQ(read->records[i].sequence, clean->records[i].sequence)
            << "flip at " << pos;

      TPDatabase db;
      EXPECT_TRUE(db.EnableWal(flip_path).ok()) << "flip at " << pos;
    }
  }
}

TEST(WalTest, OpenTruncatesTheTornTailAndKeepsAppending) {
  const std::string wal_path = TempPath("torn.wal");
  {
    TPDatabase db;
    ASSERT_TRUE(db.EnableWal(wal_path).ok());
    ASSERT_TRUE(db.CreateRelation("bookings", BookingSchema()).ok());
    ASSERT_TRUE(db.Append("bookings", {{{Datum(int64_t{1}), Datum("GVA")},
                                        Interval(0, 5),
                                        1.0,
                                        ""}})
                    .ok());
  }
  // Tear the last record in half, as an interrupted write would.
  std::string bytes = ReadFile(wal_path);
  WriteFile(wal_path, bytes.substr(0, bytes.size() - 7));

  // Recovery truncates the tail and the log accepts new records cleanly.
  TPDatabase db;
  ASSERT_TRUE(db.EnableWal(wal_path).ok());
  ASSERT_TRUE(db.Append("bookings", {{{Datum(int64_t{2}), Datum("BRN")},
                                      Interval(10, 15),
                                      0.5,
                                      ""}})
                  .ok());
  StatusOr<storage::WalReadResult> read = storage::ReadWal(wal_path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 2u);  // create + the new append
  // Sequences stay strictly monotone across the truncation.
  EXPECT_LT(read->records[0].sequence, read->records[1].sequence);
}

TEST(WalTest, WalPathThatIsADirectoryIsAStatusNotACrash) {
  TPDatabase db;
  const Status status = db.EnableWal(testing::TestTempDir());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("not a regular file"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(db.wal_enabled());
  EXPECT_FALSE(storage::ReadWal(testing::TestTempDir()).ok());
}

TEST(WalTest, DoubleEnableAndWalWriterAccountingAreSane) {
  const std::string wal_path = TempPath("double.wal");
  TPDatabase db;
  ASSERT_TRUE(db.EnableWal(wal_path).ok());
  EXPECT_FALSE(db.EnableWal(wal_path).ok());  // already armed
  EXPECT_TRUE(db.wal_enabled());
  ASSERT_TRUE(db.CreateRelation("bookings", BookingSchema()).ok());
  EXPECT_EQ(db.wal()->records(), 1u);
  const uint64_t seq = db.wal()->last_sequence();
  ASSERT_TRUE(db.Append("bookings", {{{Datum(int64_t{1}), Datum("GVA")},
                                      Interval(0, 1),
                                      1.0,
                                      ""}})
                  .ok());
  EXPECT_EQ(db.wal()->records(), 2u);
  EXPECT_GT(db.wal()->last_sequence(), seq);
}

}  // namespace
}  // namespace tpdb
