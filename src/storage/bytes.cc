#include "storage/bytes.h"

#include <array>
#include <cstring>

namespace tpdb::storage {

namespace {

/// Slicing-by-8 tables of the reflected polynomial 0xEDB88320: table[0] is
/// the classic bytewise table, and table[k][i] is the CRC of byte i
/// followed by k zero bytes, so eight input bytes fold in with eight
/// independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data) {
  static const CrcTables t = MakeCrcTables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  crc = ~crc;
  // Little-endian loads (the snapshot format requires a little-endian
  // host): the low word's first byte is the oldest input byte.
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

uint32_t Crc32(std::span<const uint8_t> data) { return Crc32Update(0, data); }

Status ByteReader::GetString(std::string* out) {
  uint32_t len = 0;
  TPDB_RETURN_IF_ERROR(GetU32(&len));
  if (len > remaining())
    return Status::IOError("snapshot truncated: string needs " +
                           std::to_string(len) + " bytes, have " +
                           std::to_string(remaining()));
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return Status::OK();
}

}  // namespace tpdb::storage
