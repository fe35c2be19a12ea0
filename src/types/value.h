#ifndef MAYBMS_TYPES_VALUE_H_
#define MAYBMS_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "base/result.h"
#include "base/status.h"

namespace maybms {

/// SQL column types supported by the engine.
enum class DataType {
  kNull,     // type of the NULL literal before coercion
  kInteger,  // 64-bit signed
  kReal,     // double precision
  kText,     // UTF-8 string (treated as bytes)
  kBoolean,
};

const char* DataTypeToString(DataType type);

/// Parses a type name from SQL DDL (INTEGER/INT, REAL/FLOAT/DOUBLE,
/// TEXT/VARCHAR/STRING, BOOLEAN/BOOL).
Result<DataType> DataTypeFromString(const std::string& name);

/// Three-valued logic truth value used by predicate evaluation.
enum class Trivalent { kFalse = 0, kTrue = 1, kUnknown = 2 };

Trivalent TrivalentAnd(Trivalent a, Trivalent b);
Trivalent TrivalentOr(Trivalent a, Trivalent b);
Trivalent TrivalentNot(Trivalent a);

/// A single SQL value: NULL, integer, real, text, or boolean.
///
/// Values are ordered and hashable so they can live in tuples, keys, and
/// sorted containers. Comparison across numeric types (int vs real)
/// coerces to real; comparisons across incomparable types order by type
/// tag (needed only for deterministic sorting, never exposed as a SQL
/// comparison result).
class Value {
 public:
  Value() : storage_(NullTag{}) {}

  static Value Null() { return Value(); }
  static Value Integer(int64_t v) { return Value(Storage(v)); }
  static Value Real(double v) { return Value(Storage(v)); }
  static Value Text(std::string v) { return Value(Storage(std::move(v))); }
  static Value Boolean(bool v) { return Value(Storage(v)); }

  /// The variant's alternatives are in DataType's order.
  DataType type() const { return static_cast<DataType>(storage_.index()); }

  bool is_null() const { return type() == DataType::kNull; }

  int64_t AsInteger() const { return std::get<int64_t>(storage_); }
  double AsReal() const { return std::get<double>(storage_); }
  const std::string& AsText() const { return std::get<std::string>(storage_); }
  bool AsBoolean() const { return std::get<bool>(storage_); }

  /// Numeric view: integer widened to double. Requires numeric type.
  double NumericValue() const;
  bool IsNumeric() const {
    DataType t = type();
    return t == DataType::kInteger || t == DataType::kReal;
  }

  /// SQL equality: NULL makes the result Unknown; numerics compare by
  /// exact value across int/real; mismatched non-numeric types are an
  /// error.
  Result<Trivalent> SqlEquals(const Value& other) const;

  /// SQL ordering comparison (<). NULL operands yield Unknown.
  Result<Trivalent> SqlLess(const Value& other) const;

  /// Total order over all values for deterministic sorting and set
  /// semantics: NULL first, then by type tag (INTEGER and REAL together,
  /// by exact value), then by value. (Distinct from SQL comparison
  /// semantics.)
  int TotalOrderCompare(const Value& other) const;

  bool operator==(const Value& other) const {
    return TotalOrderCompare(other) == 0;
  }
  bool operator<(const Value& other) const {
    return TotalOrderCompare(other) < 0;
  }

  size_t Hash() const;

  /// Rendering used by the formatter and tests: integers as-is, reals via
  /// FormatDouble, text unquoted, booleans as true/false, NULL as "NULL".
  std::string ToString() const;

  /// Casts to `target`; numeric widening/narrowing and text parsing where
  /// sensible. NULL casts to NULL of any type.
  Result<Value> CastTo(DataType target) const;

 private:
  struct NullTag {};
  using Storage = std::variant<NullTag, int64_t, double, std::string, bool>;
  explicit Value(Storage s) : storage_(std::move(s)) {}

  Storage storage_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace maybms

#endif  // MAYBMS_TYPES_VALUE_H_
