// Malformed-snapshot error paths: every corrupted, truncated or alien
// input must surface as a Status (IOError & friends) — never a crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/database.h"
#include "storage/snapshot.h"
#include "tests/reference/temp_dir.h"

namespace tpdb {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TestTempDir() + "/" + name;
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

/// A small valid snapshot to corrupt.
std::string MakeValidSnapshot(const std::string& name) {
  const std::string path = TempPath(name);
  TPDatabase db;
  Schema schema;
  schema.AddColumn({"city", DatumType::kString});
  schema.AddColumn({"pop", DatumType::kInt64});
  TPRelation* rel = *db.CreateRelation("cities", schema);
  EXPECT_TRUE(
      rel->AppendBase({Datum("zrh"), Datum(int64_t{400})}, {0, 9}, 0.9).ok());
  EXPECT_TRUE(
      rel->AppendBase({Datum("gva"), Datum(int64_t{200})}, {3, 7}, 0.4).ok());
  EXPECT_TRUE(db.SaveSnapshot(path).ok());
  return path;
}

Status TryLoad(const std::string& path) {
  TPDatabase db;
  return db.LoadSnapshot(path);
}

TEST(SnapshotCorruptionTest, MissingFile) {
  const Status status = TryLoad(TempPath("does_not_exist.tpdb"));
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(SnapshotCorruptionTest, NotASnapshot) {
  const std::string path = TempPath("corrupt_alien.tpdb");
  WriteFile(path, std::string(64, 'x'));
  const Status status = TryLoad(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("bad magic"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, TooSmall) {
  const std::string path = TempPath("corrupt_small.tpdb");
  WriteFile(path, "TPDB");
  const Status status = TryLoad(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, TruncatedFile) {
  const std::string path = MakeValidSnapshot("corrupt_trunc.tpdb");
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 40u);
  // Drop the trailer and some payload: the header's size no longer adds up.
  WriteFile(path, bytes.substr(0, bytes.size() - 17));
  const Status status = TryLoad(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, BitFlipFailsChecksum) {
  const std::string path = MakeValidSnapshot("corrupt_flip.tpdb");
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x20;  // somewhere inside the payload
  WriteFile(path, bytes);
  const Status status = TryLoad(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, UnsupportedVersion) {
  const std::string path = MakeValidSnapshot("corrupt_version.tpdb");
  std::string bytes = ReadFile(path);
  bytes[8] = 99;  // version field follows the 8-byte magic
  WriteFile(path, bytes);
  const Status status = TryLoad(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(SnapshotCorruptionTest, EveryPrefixFailsCleanly) {
  // Load every strict prefix of a valid snapshot: none may crash, all must
  // report an error (a prefix can never pass the size check).
  const std::string path = MakeValidSnapshot("corrupt_prefix.tpdb");
  const std::string bytes = ReadFile(path);
  const std::string prefix_path = TempPath("corrupt_prefix_cut.tpdb");
  for (size_t n = 0; n < bytes.size(); n += 7) {
    WriteFile(prefix_path, bytes.substr(0, n));
    EXPECT_FALSE(TryLoad(prefix_path).ok()) << "prefix of " << n << " bytes";
  }
  std::remove(path.c_str());
  std::remove(prefix_path.c_str());
}

}  // namespace
}  // namespace tpdb
