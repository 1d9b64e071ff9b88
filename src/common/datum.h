// Datum: the tagged scalar value flowing through the relational engine.
//
// Following the way the paper extends PostgreSQL with a lineage column type,
// the executor treats lineage references as just another datum type; interval
// endpoints are ordinary int64 columns.
#ifndef TPDB_COMMON_DATUM_H_
#define TPDB_COMMON_DATUM_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/logging.h"

namespace tpdb {

/// Opaque reference to a lineage formula node owned by a LineageManager.
/// Hash-consing in the manager guarantees that equal ids denote structurally
/// identical formulas, so comparing ids is a sound (syntactic) equality.
struct LineageRef {
  uint32_t id = kNullId;

  /// Sentinel meaning "no lineage" (the SQL NULL of the lineage column).
  static constexpr uint32_t kNullId = 0xffffffffu;

  bool is_null() const { return id == kNullId; }
  static LineageRef Null() { return LineageRef{}; }

  friend bool operator==(LineageRef a, LineageRef b) { return a.id == b.id; }
  friend bool operator!=(LineageRef a, LineageRef b) { return a.id != b.id; }
  friend bool operator<(LineageRef a, LineageRef b) { return a.id < b.id; }
};

/// Physical type tags of engine values.
enum class DatumType { kNull, kInt64, kDouble, kString, kLineage };

/// A single engine value. `std::monostate` encodes SQL NULL.
class Datum {
 public:
  Datum() : value_(std::monostate{}) {}
  Datum(int64_t v) : value_(v) {}                 // NOLINT
  Datum(double v) : value_(v) {}                  // NOLINT
  Datum(std::string v) : value_(std::move(v)) {}  // NOLINT
  Datum(const char* v) : value_(std::string(v)) {}  // NOLINT
  Datum(LineageRef v) : value_(v) {}              // NOLINT

  static Datum Null() { return Datum(); }

  DatumType type() const {
    switch (value_.index()) {
      case 0: return DatumType::kNull;
      case 1: return DatumType::kInt64;
      case 2: return DatumType::kDouble;
      case 3: return DatumType::kString;
      case 4: return DatumType::kLineage;
    }
    return DatumType::kNull;
  }

  bool is_null() const { return value_.index() == 0; }

  int64_t AsInt64() const {
    TPDB_CHECK(type() == DatumType::kInt64) << "datum is not int64";
    return std::get<int64_t>(value_);
  }
  double AsDouble() const {
    TPDB_CHECK(type() == DatumType::kDouble) << "datum is not double";
    return std::get<double>(value_);
  }
  const std::string& AsString() const {
    TPDB_CHECK(type() == DatumType::kString) << "datum is not string";
    return std::get<std::string>(value_);
  }
  LineageRef AsLineage() const {
    TPDB_CHECK(type() == DatumType::kLineage) << "datum is not lineage";
    return std::get<LineageRef>(value_);
  }

  /// Total order across types (NULL < int64 < double < string < lineage),
  /// used by sorting.
  int Compare(const Datum& other) const;

  bool operator==(const Datum& other) const { return Compare(other) == 0; }
  bool operator!=(const Datum& other) const { return Compare(other) != 0; }
  bool operator<(const Datum& other) const { return Compare(other) < 0; }

  /// 64-bit hash for hash-partitioned joins.
  uint64_t Hash() const;

  /// Debug / CSV rendering.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, LineageRef>
      value_;
};

}  // namespace tpdb

#endif  // TPDB_COMMON_DATUM_H_
