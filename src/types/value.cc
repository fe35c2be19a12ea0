#include "types/value.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>

#include "base/string_util.h"

namespace maybms {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInteger:
      return "INTEGER";
    case DataType::kReal:
      return "REAL";
    case DataType::kText:
      return "TEXT";
    case DataType::kBoolean:
      return "BOOLEAN";
  }
  return "UNKNOWN";
}

Result<DataType> DataTypeFromString(const std::string& name) {
  std::string lower = AsciiToLower(name);
  if (lower == "integer" || lower == "int" || lower == "bigint") {
    return DataType::kInteger;
  }
  if (lower == "real" || lower == "float" || lower == "double" ||
      lower == "numeric" || lower == "decimal") {
    return DataType::kReal;
  }
  if (lower == "text" || lower == "varchar" || lower == "string" ||
      lower == "char") {
    return DataType::kText;
  }
  if (lower == "boolean" || lower == "bool") {
    return DataType::kBoolean;
  }
  return Status::ParseError("unknown type name: " + name);
}

Trivalent TrivalentAnd(Trivalent a, Trivalent b) {
  if (a == Trivalent::kFalse || b == Trivalent::kFalse) {
    return Trivalent::kFalse;
  }
  if (a == Trivalent::kUnknown || b == Trivalent::kUnknown) {
    return Trivalent::kUnknown;
  }
  return Trivalent::kTrue;
}

Trivalent TrivalentOr(Trivalent a, Trivalent b) {
  if (a == Trivalent::kTrue || b == Trivalent::kTrue) return Trivalent::kTrue;
  if (a == Trivalent::kUnknown || b == Trivalent::kUnknown) {
    return Trivalent::kUnknown;
  }
  return Trivalent::kFalse;
}

Trivalent TrivalentNot(Trivalent a) {
  switch (a) {
    case Trivalent::kTrue:
      return Trivalent::kFalse;
    case Trivalent::kFalse:
      return Trivalent::kTrue;
    case Trivalent::kUnknown:
      return Trivalent::kUnknown;
  }
  return Trivalent::kUnknown;
}

double Value::NumericValue() const {
  if (type() == DataType::kInteger) return static_cast<double>(AsInteger());
  return AsReal();
}

namespace {

// Numbers compare by exact value. Two INTEGERs compare as int64 and two
// REALs as doubles (NaN is neither less than nor equal to anything); an
// INTEGER against a REAL compares as long double, which holds every
// int64 and every double exactly.
static_assert(std::numeric_limits<long double>::digits >= 64,
              "mixed INTEGER/REAL comparisons need a 64-bit significand");

long double ExactNumber(const Value& v) {
  if (v.type() == DataType::kInteger) return v.AsInteger();
  return v.AsReal();
}

bool NumberLess(const Value& a, const Value& b) {
  if (a.type() != b.type()) return ExactNumber(a) < ExactNumber(b);
  if (a.type() == DataType::kInteger) return a.AsInteger() < b.AsInteger();
  return a.AsReal() < b.AsReal();
}

bool NumberEquals(const Value& a, const Value& b) {
  if (a.type() != b.type()) return ExactNumber(a) == ExactNumber(b);
  if (a.type() == DataType::kInteger) return a.AsInteger() == b.AsInteger();
  return a.AsReal() == b.AsReal();
}

}  // namespace

Result<Trivalent> Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return Trivalent::kUnknown;
  if (IsNumeric() && other.IsNumeric()) {
    return NumberEquals(*this, other) ? Trivalent::kTrue : Trivalent::kFalse;
  }
  if (type() != other.type()) {
    return Status::TypeError(std::string("cannot compare ") +
                             DataTypeToString(type()) + " with " +
                             DataTypeToString(other.type()));
  }
  if (type() == DataType::kText) {
    return AsText() == other.AsText() ? Trivalent::kTrue : Trivalent::kFalse;
  }
  return AsBoolean() == other.AsBoolean() ? Trivalent::kTrue
                                          : Trivalent::kFalse;
}

Result<Trivalent> Value::SqlLess(const Value& other) const {
  if (is_null() || other.is_null()) return Trivalent::kUnknown;
  if (IsNumeric() && other.IsNumeric()) {
    return NumberLess(*this, other) ? Trivalent::kTrue : Trivalent::kFalse;
  }
  if (type() != other.type()) {
    return Status::TypeError(std::string("cannot order ") +
                             DataTypeToString(type()) + " against " +
                             DataTypeToString(other.type()));
  }
  if (type() == DataType::kText) {
    return AsText() < other.AsText() ? Trivalent::kTrue : Trivalent::kFalse;
  }
  return (!AsBoolean() && other.AsBoolean()) ? Trivalent::kTrue
                                             : Trivalent::kFalse;
}

int Value::TotalOrderCompare(const Value& other) const {
  // Numerics of different concrete types compare by exact value, so that
  // Integer(1) and Real(1.0) coincide in sets (SQL value semantics).
  if (IsNumeric() && other.IsNumeric()) {
    if (NumberLess(*this, other)) return -1;
    if (NumberLess(other, *this)) return 1;
    return 0;
  }
  if (storage_.index() != other.storage_.index()) {
    return storage_.index() < other.storage_.index() ? -1 : 1;
  }
  switch (type()) {
    case DataType::kNull:
      return 0;
    case DataType::kInteger:
    case DataType::kReal:
      return 0;  // handled above
    case DataType::kText: {
      int c = AsText().compare(other.AsText());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kBoolean:
      return static_cast<int>(AsBoolean()) - static_cast<int>(other.AsBoolean());
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kInteger: {
      // An integer that a double holds exactly hashes as that double, so
      // Integer(1)/Real(1.0) agree, consistent with TotalOrderCompare; no
      // REAL equals any other integer.
      const double d = static_cast<double>(AsInteger());
      if (static_cast<long double>(d) == AsInteger()) {
        return std::hash<double>()(d);
      }
      return std::hash<int64_t>()(AsInteger());
    }
    case DataType::kReal:
      return std::hash<double>()(AsReal());
    case DataType::kText:
      return std::hash<std::string>()(AsText());
    case DataType::kBoolean:
      return AsBoolean() ? 0x5bd1e995 : 0xc2b2ae35;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInteger:
      return std::to_string(AsInteger());
    case DataType::kReal:
      return FormatDouble(AsReal());
    case DataType::kText:
      return AsText();
    case DataType::kBoolean:
      return AsBoolean() ? "true" : "false";
  }
  return "?";
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null() || target == type()) return *this;
  switch (target) {
    case DataType::kInteger:
      if (type() == DataType::kReal) {
        return Value::Integer(static_cast<int64_t>(AsReal()));
      }
      if (type() == DataType::kText) {
        // Leading whitespace and a sign, then digits that fit in 64 bits.
        const std::string& s = AsText();
        std::string_view digits = s;
        digits.remove_prefix(std::min(s.find_first_not_of(" \t\n\v\f\r"),
                                      s.size()));
        const bool negative = digits.starts_with('-');
        if (negative || digits.starts_with('+')) digits.remove_prefix(1);
        const std::optional<uint64_t> magnitude = ParseDecimal(
            digits, (uint64_t{1} << 63) - (negative ? 0 : 1));
        if (!magnitude.has_value()) {
          return Status::TypeError("cannot cast '" + s + "' to INTEGER");
        }
        return Value::Integer(static_cast<int64_t>(
            negative ? uint64_t{0} - *magnitude : *magnitude));
      }
      if (type() == DataType::kBoolean) {
        return Value::Integer(AsBoolean() ? 1 : 0);
      }
      break;
    case DataType::kReal:
      if (type() == DataType::kInteger) {
        return Value::Real(static_cast<double>(AsInteger()));
      }
      if (type() == DataType::kText) {
        char* end = nullptr;
        const std::string& s = AsText();
        double v = std::strtod(s.c_str(), &end);
        if (end != s.c_str() + s.size() || s.empty()) {
          return Status::TypeError("cannot cast '" + s + "' to REAL");
        }
        return Value::Real(v);
      }
      break;
    case DataType::kText:
      return Value::Text(ToString());
    case DataType::kBoolean:
      if (type() == DataType::kInteger) {
        return Value::Boolean(AsInteger() != 0);
      }
      break;
    case DataType::kNull:
      break;
  }
  return Status::TypeError(std::string("cannot cast ") +
                           DataTypeToString(type()) + " to " +
                           DataTypeToString(target));
}

}  // namespace maybms
