#include <gtest/gtest.h>

#include "column/table.h"
#include "exec/join.h"

namespace sciborq {
namespace {

Table FactTable() {
  Table t{Schema({Field{"id", DataType::kInt64, false},
                  Field{"fk", DataType::kInt64, true},
                  Field{"x", DataType::kDouble, false}})};
  auto add = [&t](int64_t id, Value fk, double x) {
    ASSERT_TRUE(t.AppendRow({Value(id), std::move(fk), Value(x)}).ok());
  };
  add(0, Value(int64_t{10}), 1.0);
  add(1, Value(int64_t{20}), 2.0);
  add(2, Value(int64_t{10}), 3.0);
  add(3, Value(int64_t{99}), 4.0);  // dangling key
  add(4, Value::Null(), 5.0);       // null key never joins
  return t;
}

Table DimTable() {
  Table t{Schema({Field{"key", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, false},  // clashes with fact x
                  Field{"label", DataType::kString, false}})};
  auto add = [&t](int64_t key, double x, const char* label) {
    ASSERT_TRUE(t.AppendRow({Value(key), Value(x), Value(label)}).ok());
  };
  add(10, 100.0, "ten");
  add(20, 200.0, "twenty");
  add(30, 300.0, "thirty");
  return t;
}

TEST(HashJoinTest, InnerJoinBasics) {
  const Table joined = HashJoin(FactTable(), "fk", DimTable(), "key").value();
  EXPECT_EQ(joined.num_rows(), 3);  // ids 0, 1, 2
  // Output schema: fact columns + dim minus key, with clash prefix.
  EXPECT_TRUE(joined.schema().HasField("right_x"));
  EXPECT_TRUE(joined.schema().HasField("label"));
  EXPECT_FALSE(joined.schema().HasField("key"));
  EXPECT_EQ(joined.GetCell(0, "label").value().str(), "ten");
  EXPECT_DOUBLE_EQ(joined.GetCell(0, "right_x").value().dbl(), 100.0);
  EXPECT_EQ(joined.GetCell(1, "label").value().str(), "twenty");
  EXPECT_TRUE(joined.Validate().ok());
}

TEST(HashJoinTest, OneToManyDuplicates) {
  // Two dim rows with the same key -> fact rows fan out.
  Table dim = DimTable();
  ASSERT_TRUE(
      dim.AppendRow({Value(int64_t{10}), Value(101.0), Value("ten-b")}).ok());
  const Table joined = HashJoin(FactTable(), "fk", dim, "key").value();
  // Fact ids {0, 2} match key 10 twice each; id 1 matches once.
  EXPECT_EQ(joined.num_rows(), 5);
}

TEST(HashJoinTest, EmptyProbe) {
  Table empty_fact{FactTable().schema()};
  const Table joined = HashJoin(empty_fact, "fk", DimTable(), "key").value();
  EXPECT_EQ(joined.num_rows(), 0);
}

TEST(HashJoinTest, KeyTypeValidation) {
  EXPECT_FALSE(HashJoin(FactTable(), "x", DimTable(), "key").ok());
  EXPECT_FALSE(HashJoin(FactTable(), "fk", DimTable(), "label").ok());
  EXPECT_FALSE(HashJoin(FactTable(), "nope", DimTable(), "key").ok());
}

TEST(CountJoinMatchesTest, CountsWithoutMaterializing) {
  const Table fact = FactTable();
  const Table dim = DimTable();
  EXPECT_EQ(CountJoinMatches(fact, "fk", {0, 1, 2, 3, 4}, dim, "key").value(),
            3);
  EXPECT_EQ(CountJoinMatches(fact, "fk", {3, 4}, dim, "key").value(), 0);
  EXPECT_EQ(CountJoinMatches(fact, "fk", {0}, dim, "key").value(), 1);
}

}  // namespace
}  // namespace sciborq
