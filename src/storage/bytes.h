// Little-endian byte-level encoding primitives of the snapshot format:
// a growable writer, a bounds-checked reader over a mapped (or in-memory)
// byte range, and the CRC-32 used to checksum snapshot payloads.
//
// The format stores fixed-width integers and IEEE-754 doubles verbatim in
// host byte order and requires a little-endian host (save and load guard
// on std::endian::native and refuse big-endian hosts); raw column arrays
// are 8-byte aligned relative to the start of their enclosing blob so the
// cold read path can hand out typed spans straight into the mapped file.
#ifndef TPDB_STORAGE_BYTES_H_
#define TPDB_STORAGE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/status.h"

namespace tpdb::storage {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

/// Extends the CRC-32 `crc` of some bytes `a` by `data`:
/// Crc32Update(Crc32(a), b) == Crc32(a ++ b), and Crc32Update(0, b) ==
/// Crc32(b).
uint32_t Crc32Update(uint32_t crc, std::span<const uint8_t> data);

/// Appends fixed-width scalars, length-prefixed strings and raw arrays to
/// a growable buffer. Alignment padding is relative to the buffer start,
/// so a blob written with one ByteWriter must be placed at an 8-aligned
/// file offset for its internal alignment to survive.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// u32 length prefix + bytes.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Pads with zero bytes until size() is a multiple of `alignment`.
  void AlignTo(size_t alignment) {
    while (buf_.size() % alignment != 0) buf_.push_back('\0');
  }

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string&& TakeBuffer() && { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked sequential reader over a byte range. Every accessor
/// returns a Status instead of crashing, so truncated or corrupted
/// snapshot files surface as errors.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  Status GetU8(uint8_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetI64(int64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetF64(double* out) { return GetRaw(out, sizeof(*out)); }

  Status GetString(std::string* out);

  Status GetRaw(void* out, size_t n) {
    if (n > remaining())
      return Status::IOError("snapshot truncated: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(remaining()));
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Skips padding up to the next multiple of `alignment` (relative to the
  /// start of this reader's range).
  Status AlignTo(size_t alignment) {
    const size_t target = (pos_ + alignment - 1) / alignment * alignment;
    if (target > data_.size())
      return Status::IOError("snapshot truncated in alignment padding");
    pos_ = target;
    return Status::OK();
  }

  /// Hands out a typed view of the next `count` elements without copying
  /// (the cold read path). The current position must be aligned for T.
  template <typename T>
  Status GetSpan(size_t count, std::span<const T>* out) {
    const size_t bytes = count * sizeof(T);
    if (bytes > remaining())
      return Status::IOError("snapshot truncated: column array needs " +
                             std::to_string(bytes) + " bytes, have " +
                             std::to_string(remaining()));
    const uint8_t* p = data_.data() + pos_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0)
      return Status::IOError("snapshot corrupt: misaligned column array");
    *out = std::span<const T>(reinterpret_cast<const T*>(p), count);
    pos_ += bytes;
    return Status::OK();
  }

  /// Discards the next `n` bytes.
  Status Skip(size_t n) {
    if (n > remaining())
      return Status::IOError("snapshot truncated: cannot skip " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(remaining()));
    pos_ += n;
    return Status::OK();
  }

  /// Skips a u32-length-prefixed string without materializing it.
  Status SkipString() {
    uint32_t len = 0;
    TPDB_RETURN_IF_ERROR(GetU32(&len));
    return Skip(len);
  }

  /// A view of the next `n` bytes, which are consumed.
  Status GetBlob(size_t n, std::span<const uint8_t>* out) {
    if (n > remaining())
      return Status::IOError("snapshot truncated: blob needs " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(remaining()));
    *out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace tpdb::storage

#endif  // TPDB_STORAGE_BYTES_H_
