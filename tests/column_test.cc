#include "table/column.h"

#include <gtest/gtest.h>

#include "common/fnv.h"

namespace charles {
namespace {

TEST(ColumnTest, AppendAndGet) {
  Column col(TypeKind::kInt64);
  ASSERT_TRUE(col.Append(Value(1)).ok());
  ASSERT_TRUE(col.Append(Value(2)).ok());
  col.AppendNull();
  EXPECT_EQ(col.length(), 3);
  EXPECT_EQ(col.GetValue(0), Value(1));
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_EQ(col.null_count(), 1);
}

TEST(ColumnTest, TypeCheckingOnAppend) {
  Column col(TypeKind::kInt64);
  EXPECT_TRUE(col.Append(Value("x")).IsTypeError());
  EXPECT_TRUE(col.Append(Value(1.5)).IsTypeError());
  Column str_col(TypeKind::kString);
  EXPECT_TRUE(str_col.Append(Value(1)).IsTypeError());
  Column bool_col(TypeKind::kBool);
  EXPECT_TRUE(bool_col.Append(Value(1)).IsTypeError());
}

TEST(ColumnTest, Int64WidensIntoDoubleColumn) {
  Column col(TypeKind::kDouble);
  ASSERT_TRUE(col.Append(Value(3)).ok());
  EXPECT_EQ(col.GetValue(0), Value(3.0));
}

TEST(ColumnTest, SetOverwritesAndTracksNulls) {
  Column col(TypeKind::kDouble);
  ASSERT_TRUE(col.Append(Value(1.0)).ok());
  ASSERT_TRUE(col.Set(0, Value(2.0)).ok());
  EXPECT_EQ(col.GetValue(0), Value(2.0));
  ASSERT_TRUE(col.Set(0, Value::Null()).ok());
  EXPECT_EQ(col.null_count(), 1);
  ASSERT_TRUE(col.Set(0, Value(5.0)).ok());
  EXPECT_EQ(col.null_count(), 0);
  EXPECT_TRUE(col.Set(3, Value(1.0)).IsOutOfRange());
  EXPECT_TRUE(col.Set(0, Value("s")).IsTypeError());
}

TEST(ColumnTest, ToDoublesNumericOnly) {
  Column col(TypeKind::kInt64);
  ASSERT_TRUE(col.Append(Value(1)).ok());
  ASSERT_TRUE(col.Append(Value(2)).ok());
  auto values = col.ToDoubles();
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, (std::vector<double>{1.0, 2.0}));

  Column str_col(TypeKind::kString);
  ASSERT_TRUE(str_col.Append(Value("x")).ok());
  EXPECT_TRUE(str_col.ToDoubles().status().IsTypeError());
}

TEST(ColumnTest, ToDoublesRejectsNulls) {
  Column col(TypeKind::kDouble);
  ASSERT_TRUE(col.Append(Value(1.0)).ok());
  col.AppendNull();
  EXPECT_TRUE(col.ToDoubles().status().IsInvalidArgument());
}

TEST(ColumnTest, GatherDoublesSubset) {
  Column col(TypeKind::kDouble);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(col.Append(Value(i * 10.0)).ok());
  auto gathered = col.GatherDoubles(RowSet({1, 3}));
  ASSERT_TRUE(gathered.ok());
  EXPECT_EQ(*gathered, (std::vector<double>{10.0, 30.0}));
  EXPECT_TRUE(col.GatherDoubles(RowSet({9})).status().IsOutOfRange());
}

TEST(ColumnTest, TakeReordersAndPreservesNulls) {
  Column col(TypeKind::kString);
  ASSERT_TRUE(col.Append(Value("a")).ok());
  col.AppendNull();
  ASSERT_TRUE(col.Append(Value("c")).ok());
  Column taken = col.Take(RowSet({1, 2}));
  EXPECT_EQ(taken.length(), 2);
  EXPECT_TRUE(taken.IsNull(0));
  EXPECT_EQ(taken.GetValue(1), Value("c"));
}

TEST(ColumnTest, DistinctValues) {
  Column col(TypeKind::kString);
  for (const char* v : {"b", "a", "b", "c", "a"}) {
    ASSERT_TRUE(col.Append(Value(v)).ok());
  }
  col.AppendNull();
  EXPECT_EQ(col.CountDistinct(), 3);
  std::vector<Value> distinct = col.DistinctValues();
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], Value("b"));  // first-appearance order
  EXPECT_EQ(distinct[1], Value("a"));
  EXPECT_EQ(distinct[2], Value("c"));
}

TEST(ColumnTest, EqualsChecksTypeLengthValuesValidity) {
  Column a(TypeKind::kInt64);
  Column b(TypeKind::kInt64);
  ASSERT_TRUE(a.Append(Value(1)).ok());
  ASSERT_TRUE(b.Append(Value(1)).ok());
  EXPECT_TRUE(a.Equals(b));
  ASSERT_TRUE(b.Append(Value(2)).ok());
  EXPECT_FALSE(a.Equals(b));
  Column c(TypeKind::kDouble);
  ASSERT_TRUE(c.Append(Value(1.0)).ok());
  EXPECT_FALSE(a.Equals(c));  // type differs even though values compare equal
}

TEST(ColumnTest, HashIntoCoversTypeValuesAndValidity) {
  auto make = [](TypeKind type, std::vector<Value> values) {
    Column col(type);
    for (const Value& v : values) {
      if (v.is_null()) {
        col.AppendNull();
      } else {
        EXPECT_TRUE(col.Append(v).ok());
      }
    }
    return col.HashInto(kFnvOffsetBasis);
  };
  const uint64_t ints = make(TypeKind::kInt64, {Value(1), Value(2)});
  EXPECT_EQ(ints, make(TypeKind::kInt64, {Value(1), Value(2)}));
  EXPECT_NE(ints, make(TypeKind::kInt64, {Value(1), Value(3)}));
  EXPECT_NE(ints, make(TypeKind::kDouble, {Value(1.0), Value(2.0)}));
  EXPECT_NE(make(TypeKind::kInt64, {Value(1), Value(0)}),
            make(TypeKind::kInt64, {Value(1), Value::Null()}));
  // Each string's length is mixed in, so cells cannot trade characters.
  EXPECT_NE(make(TypeKind::kString, {Value("ab"), Value("c")}),
            make(TypeKind::kString, {Value("a"), Value("bc")}));
}

TEST(ColumnTest, NullColumnHoldsOnlyNulls) {
  Column col(TypeKind::kNull);
  col.AppendNull();
  EXPECT_TRUE(col.Append(Value(1)).IsTypeError());
  EXPECT_TRUE(col.GetValue(0).is_null());
}

}  // namespace
}  // namespace charles
