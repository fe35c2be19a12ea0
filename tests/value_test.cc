#include "types/value.h"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace maybms {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Integer(7).AsInteger(), 7);
  EXPECT_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Text("hi").AsText(), "hi");
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
}

TEST(ValueTest, NumericValueWidensIntegers) {
  EXPECT_EQ(Value::Integer(3).NumericValue(), 3.0);
  EXPECT_EQ(Value::Real(3.25).NumericValue(), 3.25);
  EXPECT_TRUE(Value::Integer(1).IsNumeric());
  EXPECT_TRUE(Value::Real(1).IsNumeric());
  EXPECT_FALSE(Value::Text("1").IsNumeric());
  EXPECT_FALSE(Value::Null().IsNumeric());
}

TEST(ValueTest, SqlEqualsThreeValued) {
  auto eq = Value::Integer(1).SqlEquals(Value::Integer(1));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, Trivalent::kTrue);

  eq = Value::Integer(1).SqlEquals(Value::Real(1.0));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, Trivalent::kTrue) << "cross-numeric comparison";

  eq = Value::Null().SqlEquals(Value::Integer(1));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, Trivalent::kUnknown) << "NULL yields UNKNOWN";

  eq = Value::Text("a").SqlEquals(Value::Text("b"));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(*eq, Trivalent::kFalse);

  auto err = Value::Text("a").SqlEquals(Value::Integer(1));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, SqlLessOrdering) {
  auto lt = Value::Integer(1).SqlLess(Value::Real(1.5));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(*lt, Trivalent::kTrue);

  lt = Value::Text("abc").SqlLess(Value::Text("abd"));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(*lt, Trivalent::kTrue);

  lt = Value::Null().SqlLess(Value::Integer(1));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(*lt, Trivalent::kUnknown);

  lt = Value::Boolean(false).SqlLess(Value::Boolean(true));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(*lt, Trivalent::kTrue);
}

TEST(ValueTest, TotalOrderIsStrictWeakOrder) {
  std::vector<Value> values = {Value::Null(),        Value::Integer(1),
                               Value::Integer(2),    Value::Real(1.5),
                               Value::Text("a"),     Value::Text("b"),
                               Value::Boolean(false), Value::Boolean(true)};
  for (const Value& a : values) {
    EXPECT_EQ(a.TotalOrderCompare(a), 0);
    for (const Value& b : values) {
      EXPECT_EQ(a.TotalOrderCompare(b), -b.TotalOrderCompare(a));
    }
  }
}

TEST(ValueTest, IntegerAndRealCoincideInTotalOrder) {
  EXPECT_EQ(Value::Integer(1).TotalOrderCompare(Value::Real(1.0)), 0);
  EXPECT_EQ(Value::Integer(1).Hash(), Value::Real(1.0).Hash())
      << "hash must be consistent with equality";
}

// Integers compare exactly: beyond 2^53 neighbours share a double, but
// not a value.
TEST(ValueTest, IntegersBeyondTwoToThe53AreDistinct) {
  const Value a = Value::Integer(int64_t{1} << 53);
  const Value b = Value::Integer((int64_t{1} << 53) + 1);
  EXPECT_LT(a.TotalOrderCompare(b), 0);
  EXPECT_GT(b.TotalOrderCompare(a), 0);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_EQ(*a.SqlEquals(b), Trivalent::kFalse);
  EXPECT_EQ(*a.SqlLess(b), Trivalent::kTrue);
  EXPECT_EQ(*b.SqlLess(a), Trivalent::kFalse);
}

// An INTEGER against a REAL compares by exact value, not as two doubles.
TEST(ValueTest, IntegerAgainstRealComparesExactly) {
  // INT64_MAX rounds to 2^63 as a double, but is one less.
  const Value max = Value::Integer(std::numeric_limits<int64_t>::max());
  const Value two63 = Value::Real(9223372036854775808.0);
  EXPECT_LT(max.TotalOrderCompare(two63), 0);
  EXPECT_GT(two63.TotalOrderCompare(max), 0);
  EXPECT_EQ(*max.SqlEquals(two63), Trivalent::kFalse);
  EXPECT_EQ(*max.SqlLess(two63), Trivalent::kTrue);
  EXPECT_EQ(*two63.SqlLess(max), Trivalent::kFalse);

  // 2^53 is a double: equal across types, with equal hashes. The integer
  // above it is not, and lies above that REAL.
  const Value integer = Value::Integer(int64_t{1} << 53);
  const Value real = Value::Real(9007199254740992.0);
  EXPECT_EQ(integer.TotalOrderCompare(real), 0);
  EXPECT_EQ(integer.Hash(), real.Hash());
  EXPECT_EQ(*integer.SqlEquals(real), Trivalent::kTrue);
  EXPECT_EQ(*real.SqlLess(integer), Trivalent::kFalse);
  const Value above = Value::Integer((int64_t{1} << 53) + 1);
  EXPECT_GT(above.TotalOrderCompare(real), 0);
  EXPECT_EQ(*above.SqlEquals(real), Trivalent::kFalse);
  EXPECT_EQ(*real.SqlLess(above), Trivalent::kTrue);
}

// NaN is neither less than nor equal to any number under SQL, and ties
// with every number in the total order.
TEST(ValueTest, NaNComparesAsItAlwaysHas) {
  const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
  for (const Value& other : {Value::Real(1.0), Value::Integer(1), nan}) {
    SCOPED_TRACE(other.ToString());
    EXPECT_EQ(*nan.SqlEquals(other), Trivalent::kFalse);
    EXPECT_EQ(*other.SqlEquals(nan), Trivalent::kFalse);
    EXPECT_EQ(*nan.SqlLess(other), Trivalent::kFalse);
    EXPECT_EQ(*other.SqlLess(nan), Trivalent::kFalse);
    EXPECT_EQ(nan.TotalOrderCompare(other), 0);
    EXPECT_EQ(other.TotalOrderCompare(nan), 0);
  }
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Integer(-3).ToString(), "-3");
  EXPECT_EQ(Value::Real(0.5).ToString(), "0.5");
  EXPECT_EQ(Value::Text("x y").ToString(), "x y");
  EXPECT_EQ(Value::Boolean(true).ToString(), "true");
}

TEST(ValueTest, CastNumericAndText) {
  auto v = Value::Integer(3).CastTo(DataType::kReal);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsReal(), 3.0);

  v = Value::Real(3.9).CastTo(DataType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), 3);

  v = Value::Text("42").CastTo(DataType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), 42);

  v = Value::Text("2.5").CastTo(DataType::kReal);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsReal(), 2.5);

  v = Value::Integer(42).CastTo(DataType::kText);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsText(), "42");

  EXPECT_FALSE(Value::Text("abc").CastTo(DataType::kInteger).ok());
  // Leading whitespace and a sign stay accepted; the value must fit.
  v = Value::Text(" -12").CastTo(DataType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), -12);
  v = Value::Text("+7").CastTo(DataType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), 7);
  v = Value::Text("-9223372036854775808").CastTo(DataType::kInteger);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInteger(), std::numeric_limits<int64_t>::min());
  for (const char* bad : {"99999999999999999999", "9223372036854775808",
                          "-9223372036854775809", "12 ", "-", ""}) {
    auto cast = Value::Text(bad).CastTo(DataType::kInteger);
    ASSERT_FALSE(cast.ok()) << bad;
    EXPECT_EQ(cast.status().code(), StatusCode::kTypeError);
    EXPECT_NE(cast.status().message().find("cannot cast"), std::string::npos);
  }
  auto null_cast = Value::Null().CastTo(DataType::kInteger);
  ASSERT_TRUE(null_cast.ok());
  EXPECT_TRUE(null_cast->is_null()) << "NULL casts to NULL";
}

TEST(TrivalentTest, KleeneLogicTables) {
  using enum Trivalent;
  EXPECT_EQ(TrivalentAnd(kTrue, kTrue), kTrue);
  EXPECT_EQ(TrivalentAnd(kTrue, kFalse), kFalse);
  EXPECT_EQ(TrivalentAnd(kFalse, kUnknown), kFalse);
  EXPECT_EQ(TrivalentAnd(kTrue, kUnknown), kUnknown);
  EXPECT_EQ(TrivalentAnd(kUnknown, kUnknown), kUnknown);

  EXPECT_EQ(TrivalentOr(kFalse, kFalse), kFalse);
  EXPECT_EQ(TrivalentOr(kTrue, kUnknown), kTrue);
  EXPECT_EQ(TrivalentOr(kFalse, kUnknown), kUnknown);
  EXPECT_EQ(TrivalentOr(kUnknown, kUnknown), kUnknown);

  EXPECT_EQ(TrivalentNot(kTrue), kFalse);
  EXPECT_EQ(TrivalentNot(kFalse), kTrue);
  EXPECT_EQ(TrivalentNot(kUnknown), kUnknown);
}

TEST(DataTypeTest, FromStringAliases) {
  EXPECT_EQ(*DataTypeFromString("integer"), DataType::kInteger);
  EXPECT_EQ(*DataTypeFromString("INT"), DataType::kInteger);
  EXPECT_EQ(*DataTypeFromString("bigint"), DataType::kInteger);
  EXPECT_EQ(*DataTypeFromString("real"), DataType::kReal);
  EXPECT_EQ(*DataTypeFromString("DOUBLE"), DataType::kReal);
  EXPECT_EQ(*DataTypeFromString("text"), DataType::kText);
  EXPECT_EQ(*DataTypeFromString("varchar"), DataType::kText);
  EXPECT_EQ(*DataTypeFromString("boolean"), DataType::kBoolean);
  EXPECT_FALSE(DataTypeFromString("blob").ok());
}

}  // namespace
}  // namespace maybms
