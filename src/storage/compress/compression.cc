#include "storage/compress/compression.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace tpdb::storage {

namespace {

// -- kRaw ------------------------------------------------------------------

size_t RawEstimate(std::span<const int64_t> values) {
  return values.size() * sizeof(int64_t);
}

void RawCompress(std::span<const int64_t> values, ByteWriter* w) {
  w->PutRaw(values.data(), values.size() * sizeof(int64_t));
}

Status RawDecompress(std::span<const uint8_t> payload, size_t count,
                     int64_t* out) {
  if (payload.size() != count * sizeof(int64_t))
    return Status::IOError("raw block corrupt: payload holds " +
                           std::to_string(payload.size()) + " bytes, need " +
                           std::to_string(count * sizeof(int64_t)));
  // An empty block may hand over null pointers, which memcpy must not see.
  if (count > 0) std::memcpy(out, payload.data(), payload.size());
  return Status::OK();
}

// -- kRle ------------------------------------------------------------------

constexpr size_t kRunBytes = sizeof(uint32_t) + sizeof(int64_t);

size_t RleRuns(std::span<const int64_t> values) {
  size_t runs = 0;
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i] &&
           j - i < UINT32_MAX)
      ++j;
    ++runs;
    i = j;
  }
  return runs;
}

size_t RleEstimate(std::span<const int64_t> values) {
  return RleRuns(values) * kRunBytes;
}

void RleCompress(std::span<const int64_t> values, ByteWriter* w) {
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i] &&
           j - i < UINT32_MAX)
      ++j;
    w->PutU32(static_cast<uint32_t>(j - i));
    w->PutI64(values[i]);
    i = j;
  }
}

Status RleDecompress(std::span<const uint8_t> payload, size_t count,
                     int64_t* out) {
  ByteReader r(payload);
  size_t filled = 0;
  while (filled < count) {
    uint32_t run = 0;
    int64_t value = 0;
    TPDB_RETURN_IF_ERROR(r.GetU32(&run));
    TPDB_RETURN_IF_ERROR(r.GetI64(&value));
    if (run == 0 || run > count - filled)
      return Status::IOError("rle block corrupt: run of " +
                             std::to_string(run) + " with " +
                             std::to_string(count - filled) +
                             " values left to fill");
    std::fill(out + filled, out + filled + run, value);
    filled += run;
  }
  if (r.remaining() != 0)
    return Status::IOError("rle block corrupt: trailing bytes after runs");
  return Status::OK();
}

// -- kFor ------------------------------------------------------------------
//
// Payload: i64 base | u8 bit_width | ceil(count * width / 8) bytes of
// LSB-first packed (value - base) offsets. Offsets are computed in
// unsigned arithmetic, so any int64 range (including ones spanning the
// sign boundary) round-trips exactly.

uint8_t ForWidth(std::span<const int64_t> values) {
  if (values.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const uint64_t range =
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  return range == 0 ? 0 : static_cast<uint8_t>(64 - std::countl_zero(range));
}

size_t ForPackedBytes(size_t count, uint8_t width) {
  return (count * width + 7) / 8;
}

size_t ForEstimate(std::span<const int64_t> values) {
  return sizeof(int64_t) + 1 + ForPackedBytes(values.size(),
                                              ForWidth(values));
}

void ForCompress(std::span<const int64_t> values, ByteWriter* w) {
  const int64_t base =
      values.empty() ? 0 : *std::min_element(values.begin(), values.end());
  const uint8_t width = ForWidth(values);
  w->PutI64(base);
  w->PutU8(width);
  std::vector<uint8_t> packed(ForPackedBytes(values.size(), width), 0);
  size_t bit = 0;
  size_t i = 0;
  // With width <= 57 an offset fits entirely in the 8 bytes starting at
  // bit/8, so one load-OR-store per value replaces the bit loop; the
  // last few values fall through to the scalar path.
  if (width != 0 && width <= 57) {
    for (; i < values.size() && (bit >> 3) + 8 <= packed.size();
         ++i, bit += width) {
      const uint64_t delta =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(base);
      uint64_t word;
      std::memcpy(&word, packed.data() + (bit >> 3), sizeof(word));
      word |= delta << (bit & 7);
      std::memcpy(packed.data() + (bit >> 3), &word, sizeof(word));
    }
  }
  for (; i < values.size(); ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(base);
    for (uint8_t b = 0; b < width; ++b, ++bit)
      packed[bit / 8] |= static_cast<uint8_t>((delta >> b) & 1u) << (bit % 8);
  }
  w->PutRaw(packed.data(), packed.size());
}

Status ForDecompress(std::span<const uint8_t> payload, size_t count,
                     int64_t* out) {
  ByteReader r(payload);
  int64_t base = 0;
  uint8_t width = 0;
  TPDB_RETURN_IF_ERROR(r.GetI64(&base));
  TPDB_RETURN_IF_ERROR(r.GetU8(&width));
  if (width > 64)
    return Status::IOError("for block corrupt: bit width " +
                           std::to_string(width));
  std::span<const uint8_t> packed;
  TPDB_RETURN_IF_ERROR(r.GetBlob(ForPackedBytes(count, width), &packed));
  if (r.remaining() != 0)
    return Status::IOError("for block corrupt: trailing bytes");
  if (width == 0) {
    std::fill(out, out + count, base);
    return Status::OK();
  }
  // Mirror of the compress fast path: one unaligned 64-bit load + shift +
  // mask per value while the window stays inside the payload, scalar
  // bit assembly for the tail and for widths that can straddle 9 bytes.
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  size_t i = 0;
  size_t bit = 0;
  if (width <= 57) {
    for (; i < count && (bit >> 3) + 8 <= packed.size(); ++i, bit += width) {
      uint64_t word;
      std::memcpy(&word, packed.data() + (bit >> 3), sizeof(word));
      out[i] = static_cast<int64_t>(static_cast<uint64_t>(base) +
                                    ((word >> (bit & 7)) & mask));
    }
  }
  for (; i < count; ++i) {
    uint64_t delta = 0;
    for (uint8_t b = 0; b < width; ++b, ++bit)
      delta |= static_cast<uint64_t>((packed[bit / 8] >> (bit % 8)) & 1u)
               << b;
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(base) + delta);
  }
  return Status::OK();
}

constexpr CompressionRoutines kRoutines[] = {
    {"raw", RawEstimate, RawCompress, RawDecompress},
    {"rle", RleEstimate, RleCompress, RleDecompress},
    {"for", ForEstimate, ForCompress, ForDecompress},
};

}  // namespace

const CompressionRoutines* GetCompressionRoutines(CompressionMethod method) {
  const size_t i = static_cast<size_t>(method);
  TPDB_CHECK_LT(i, std::size(kRoutines));
  return &kRoutines[i];
}

StatusOr<CompressionMethod> LookupCompressionMethod(uint8_t id) {
  if (id >= std::size(kRoutines))
    return Status::IOError("unknown compression method " +
                           std::to_string(id));
  return static_cast<CompressionMethod>(id);
}

CompressionMethod ChooseCompression(std::span<const int64_t> values) {
  CompressionMethod best = CompressionMethod::kRaw;
  size_t best_size = RawEstimate(values);
  for (size_t i = 1; i < std::size(kRoutines); ++i) {
    const size_t size = kRoutines[i].estimate(values);
    if (size < best_size) {
      best = static_cast<CompressionMethod>(i);
      best_size = size;
    }
  }
  return best;
}

void CompressInt64Block(std::span<const int64_t> values, ByteWriter* w) {
  const CompressionMethod method = ChooseCompression(values);
  const CompressionRoutines* routines = GetCompressionRoutines(method);
  int64_t min = 0, max = 0;
  if (!values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    min = *lo;
    max = *hi;
  }
  w->PutU8(static_cast<uint8_t>(method));
  w->PutI64(min);
  w->PutI64(max);
  const size_t payload_len = routines->estimate(values);
  w->PutU32(static_cast<uint32_t>(payload_len));
  const size_t before = w->size();
  routines->compress(values, w);
  TPDB_CHECK(w->size() - before == payload_len)
      << routines->name << " wrote " << (w->size() - before)
      << " bytes, estimated " << payload_len;
}

Status ParseInt64Block(ByteReader* r, CompressedBlock* out) {
  uint8_t method = 0;
  TPDB_RETURN_IF_ERROR(r->GetU8(&method));
  StatusOr<CompressionMethod> parsed = LookupCompressionMethod(method);
  if (!parsed.ok()) return parsed.status();
  out->method = *parsed;
  TPDB_RETURN_IF_ERROR(r->GetI64(&out->min));
  TPDB_RETURN_IF_ERROR(r->GetI64(&out->max));
  uint32_t payload_len = 0;
  TPDB_RETURN_IF_ERROR(r->GetU32(&payload_len));
  return r->GetBlob(payload_len, &out->payload);
}

Status DecompressInt64Block(const CompressedBlock& block, size_t count,
                            std::vector<int64_t>* out) {
  out->resize(count);
  return GetCompressionRoutines(block.method)
      ->decompress(block.payload, count, out->data());
}

}  // namespace tpdb::storage
