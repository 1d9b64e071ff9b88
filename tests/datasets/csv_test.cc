#include "datasets/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
}

Schema BookingSchema() {
  Schema s;
  s.AddColumn({"name", DatumType::kString});
  s.AddColumn({"loc", DatumType::kString});
  return s;
}

TEST(Csv, WriteReadRoundTrip) {
  LineageManager mgr;
  TPRelation rel("a", BookingSchema(), &mgr);
  ASSERT_TRUE(rel.AppendBase({Datum("Ann"), Datum("ZAK")}, Interval(2, 8),
                             0.7)
                  .ok());
  ASSERT_TRUE(rel.AppendBase({Datum("Jim"), Datum("WEN")}, Interval(7, 10),
                             0.8)
                  .ok());
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteTPRelationCsv(rel, path).ok());

  LineageManager mgr2;
  StatusOr<TPRelation> back =
      ReadTPRelationCsv(path, "a2", BookingSchema(), &mgr2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->tuple(0).fact[0].AsString(), "Ann");
  EXPECT_EQ(back->tuple(0).interval, Interval(2, 8));
  EXPECT_NEAR(back->Probability(0), 0.7, 1e-12);
  EXPECT_EQ(back->tuple(1).interval, Interval(7, 10));
  EXPECT_NEAR(back->Probability(1), 0.8, 1e-12);
  std::remove(path.c_str());
}

TEST(Csv, ReadHandWrittenWithIntColumns) {
  const std::string path = TempPath("hand.csv");
  {
    std::ofstream out(path);
    out << "station,metric,ts,te,p\n";
    out << "3,14,100,200,0.25\n";
    out << " 4 , 15 , 300 , 350 , 0.5 \n";  // whitespace tolerated
  }
  Schema schema;
  schema.AddColumn({"station", DatumType::kInt64});
  schema.AddColumn({"metric", DatumType::kInt64});
  LineageManager mgr;
  StatusOr<TPRelation> rel = ReadTPRelationCsv(path, "m", schema, &mgr);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->tuple(0).fact[0].AsInt64(), 3);
  EXPECT_EQ(rel->tuple(1).fact[1].AsInt64(), 15);
  EXPECT_EQ(rel->tuple(1).interval, Interval(300, 350));
  std::remove(path.c_str());
}

TEST(Csv, MissingFileFails) {
  Schema schema;
  LineageManager mgr;
  EXPECT_FALSE(
      ReadTPRelationCsv("/nonexistent/nope.csv", "x", schema, &mgr).ok());
}

TEST(Csv, WrongArityFails) {
  const std::string path = TempPath("bad_arity.csv");
  {
    std::ofstream out(path);
    out << "a,ts,te,p\n";
    out << "1,2\n";
  }
  Schema schema;
  schema.AddColumn({"a", DatumType::kInt64});
  LineageManager mgr;
  const StatusOr<TPRelation> rel = ReadTPRelationCsv(path, "x", schema, &mgr);
  EXPECT_FALSE(rel.ok());
  std::remove(path.c_str());
}

TEST(Csv, InvalidIntervalFails) {
  const std::string path = TempPath("bad_interval.csv");
  {
    std::ofstream out(path);
    out << "a,ts,te,p\n";
    out << "1,9,2,0.5\n";  // te < ts
  }
  Schema schema;
  schema.AddColumn({"a", DatumType::kInt64});
  LineageManager mgr;
  EXPECT_FALSE(ReadTPRelationCsv(path, "x", schema, &mgr).ok());
  std::remove(path.c_str());
}

TEST(Csv, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  {
    std::ofstream out(path);
    out << "a,ts,te,p\n\n";
    out << "1,2,5,0.5\n\n";
  }
  Schema schema;
  schema.AddColumn({"a", DatumType::kInt64});
  LineageManager mgr;
  StatusOr<TPRelation> rel = ReadTPRelationCsv(path, "x", schema, &mgr);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpdb
