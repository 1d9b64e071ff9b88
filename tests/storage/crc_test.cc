#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "storage/bytes.h"

namespace tpdb::storage {
namespace {

/// Bytewise CRC-32 straight from the definition (reflected 0xEDB88320).
uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(std::mt19937* rng, size_t n) {
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(byte(*rng));
  return out;
}

TEST(Crc32Test, KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, MatchesBytewiseReference) {
  std::mt19937 rng(20261020);
  std::uniform_int_distribution<size_t> len(0, 4096);
  for (int i = 0; i < 300; ++i) {
    // Every length up to 64 (all tail and alignment cases), then random.
    const size_t n = i < 65 ? static_cast<size_t>(i) : len(rng);
    const std::vector<uint8_t> buf = RandomBytes(&rng, n);
    ASSERT_EQ(Crc32(buf), ReferenceCrc32(buf)) << "length " << n;
    // Unaligned starts exercise the 8-byte loads off alignment.
    if (n > 3) {
      const std::span<const uint8_t> shifted(buf.data() + 3, n - 3);
      ASSERT_EQ(Crc32(shifted), ReferenceCrc32(shifted)) << "length " << n;
    }
  }
}

TEST(Crc32Test, UpdateConcatenatesAtEverySplit) {
  std::mt19937 rng(7);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{17}, size_t{300}}) {
    const std::vector<uint8_t> buf = RandomBytes(&rng, n);
    const std::span<const uint8_t> all(buf);
    const uint32_t whole = Crc32(all);
    EXPECT_EQ(Crc32Update(0, all), whole);
    for (size_t split = 0; split <= n; ++split) {
      ASSERT_EQ(Crc32Update(Crc32(all.first(split)), all.subspan(split)),
                whole)
          << "length " << n << " split " << split;
    }
  }
}

}  // namespace
}  // namespace tpdb::storage
