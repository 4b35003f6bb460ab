#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>
#include <fstream>

#include "column/column.h"
#include "column/csv.h"
#include "column/schema.h"
#include "column/table.h"
#include "column/value.h"

namespace sciborq {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedAccess) {
  EXPECT_EQ(Value(int64_t{42}).int64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).dbl(), 2.5);
  EXPECT_EQ(Value("hi").str(), "hi");
  EXPECT_EQ(Value(std::string("s")).str(), "s");
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(1.25).AsDouble(), 1.25);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(1.0));  // int64 != double variant
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{-5}).ToString(), "-5");
  EXPECT_EQ(Value("abc").ToString(), "abc");
}

// ---------------------------------------------------------------- Column --

TEST(ColumnTest, AppendAndGetInt64) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(-2);
  ASSERT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetInt64(0), 1);
  EXPECT_EQ(c.GetInt64(1), -2);
  EXPECT_FALSE(c.has_nulls());
}

TEST(ColumnTest, NullsTracked) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  c.AppendNull();
  c.AppendDouble(3.0);
  EXPECT_EQ(c.null_count(), 1);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, AppendValueTypeChecks) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value(int64_t{1})).ok());
  EXPECT_FALSE(c.AppendValue(Value(1.5)).ok());
  EXPECT_FALSE(c.AppendValue(Value("x")).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  EXPECT_EQ(c.size(), 2);
}

TEST(ColumnTest, IntWidensIntoDoubleColumn) {
  Column c(DataType::kDouble);
  EXPECT_TRUE(c.AppendValue(Value(int64_t{4})).ok());
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 4.0);
}

TEST(ColumnTest, NumericAtCastsInt) {
  Column c(DataType::kInt64);
  c.AppendInt64(9);
  EXPECT_DOUBLE_EQ(c.NumericAt(0), 9.0);
}

TEST(ColumnTest, TakeGathersRows) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  c.AppendString("c");
  const Column t = c.Take({2, 0});
  ASSERT_EQ(t.size(), 2);
  EXPECT_EQ(t.GetString(0), "c");
  EXPECT_EQ(t.GetString(1), "a");
}

TEST(ColumnTest, TakePreservesNulls) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendNull();
  const Column t = c.Take({1, 0});
  EXPECT_TRUE(t.IsNull(0));
  EXPECT_FALSE(t.IsNull(1));
}

/// Row-at-a-time reference for Column::Take: one AppendFrom per row.
Column AppendEach(const Column& src, const SelectionVector& rows) {
  Column out(src.type());
  for (const int64_t row : rows) out.AppendFrom(src, row);
  return out;
}

void ExpectSameStorage(const Column& a, const Column& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.has_nulls(), b.has_nulls());
  EXPECT_EQ(a.data_int64(), b.data_int64());
  ASSERT_EQ(a.data_double().size(), b.data_double().size());
  for (size_t i = 0; i < a.data_double().size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.data_double()[i], &b.data_double()[i],
                          sizeof(double)),
              0)
        << "row " << i;
  }
  EXPECT_EQ(a.data_string(), b.data_string());
  for (int64_t row = 0; row < a.size(); ++row) {
    EXPECT_EQ(a.IsNull(row), b.IsNull(row)) << "row " << row;
  }
}

TEST(ColumnTest, TakeMatchesRowAtATimeAppend) {
  // Every type, with and without nulls; a null slot whose stale value was
  // left behind by SetFrom must still gather as the zero value.
  Column ints(DataType::kInt64);
  Column doubles(DataType::kDouble);
  Column strings(DataType::kString);
  for (int i = 0; i < 40; ++i) {
    if (i % 7 == 3) {
      ints.AppendNull();
      doubles.AppendNull();
      strings.AppendNull();
    } else {
      ints.AppendInt64(i * 11 - 100);
      doubles.AppendDouble(i == 5 ? -0.0 : i * 0.25);
      strings.AppendString("s" + std::to_string(i));
    }
  }
  Column nulls_src(DataType::kInt64);
  nulls_src.AppendNull();
  ints.SetFrom(nulls_src, 0, 8);  // row 8 becomes null, value 88-100 stays
  const std::vector<SelectionVector> selections = {
      {},
      {0, 1, 2},              // no null taken: validity stays empty
      {3, 8, 10, 3, 39, 0},   // nulls, the stale slot, a repeat
      {39, 38, 37, 17, 24, 31},
  };
  for (const Column* col : {&ints, &doubles, &strings}) {
    for (const SelectionVector& rows : selections) {
      ExpectSameStorage(col->Take(rows), AppendEach(*col, rows));
    }
  }
  // A column that never had a null keeps no validity vector either way.
  Column dense(DataType::kDouble);
  for (int i = 0; i < 10; ++i) dense.AppendDouble(i);
  ExpectSameStorage(dense.Take({9, 1, 4}), AppendEach(dense, {9, 1, 4}));
  EXPECT_FALSE(dense.Take({9, 1, 4}).has_nulls());
}

TEST(ColumnTest, MinMax) {
  Column c(DataType::kDouble);
  c.AppendDouble(3.0);
  c.AppendNull();
  c.AppendDouble(-1.5);
  EXPECT_DOUBLE_EQ(c.Min().value(), -1.5);
  EXPECT_DOUBLE_EQ(c.Max().value(), 3.0);
}

TEST(ColumnTest, MinMaxErrors) {
  Column s(DataType::kString);
  s.AppendString("x");
  EXPECT_FALSE(s.Min().ok());
  Column empty(DataType::kDouble);
  EXPECT_FALSE(empty.Max().ok());
  Column all_null(DataType::kDouble);
  all_null.AppendNull();
  EXPECT_FALSE(all_null.Min().ok());
}

TEST(ColumnTest, SetFromOverwrites) {
  Column src(DataType::kInt64);
  src.AppendInt64(10);
  src.AppendNull();
  Column dst(DataType::kInt64);
  dst.AppendInt64(1);
  dst.AppendInt64(2);
  dst.SetFrom(src, 0, 1);
  EXPECT_EQ(dst.GetInt64(1), 10);
  dst.SetFrom(src, 1, 0);  // null overwrites
  EXPECT_TRUE(dst.IsNull(0));
  dst.SetFrom(src, 0, 0);  // valid overwrites a null
  EXPECT_FALSE(dst.IsNull(0));
  EXPECT_EQ(dst.GetInt64(0), 10);
}

TEST(ColumnTest, AppendFromCopiesValuesAndNulls) {
  Column src(DataType::kDouble);
  src.AppendDouble(1.5);
  src.AppendNull();
  Column dst(DataType::kDouble);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_DOUBLE_EQ(dst.GetDouble(0), 1.5);
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnTest, MemoryUsageGrows) {
  Column c(DataType::kInt64);
  const int64_t before = c.MemoryUsageBytes();
  for (int i = 0; i < 1000; ++i) c.AppendInt64(i);
  EXPECT_GT(c.MemoryUsageBytes(), before);
}

// ---------------------------------------------------------------- Schema --

Schema TestSchema() {
  return Schema({Field{"id", DataType::kInt64, false},
                 Field{"x", DataType::kDouble, true},
                 Field{"name", DataType::kString, true}});
}

TEST(SchemaTest, FieldLookup) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.num_fields(), 3);
  EXPECT_EQ(s.FieldIndex("x").value(), 1);
  EXPECT_TRUE(s.HasField("name"));
  EXPECT_FALSE(s.HasField("missing"));
  EXPECT_FALSE(s.FieldIndex("missing").ok());
}

TEST(SchemaTest, Project) {
  const Schema s = TestSchema();
  const Schema p = s.Project({"name", "id"}).value();
  ASSERT_EQ(p.num_fields(), 2);
  EXPECT_EQ(p.field(0).name, "name");
  EXPECT_EQ(p.field(1).name, "id");
  EXPECT_FALSE(s.Project({"nope"}).ok());
}

TEST(SchemaTest, EqualsComparesNamesAndTypes) {
  EXPECT_TRUE(TestSchema().Equals(TestSchema()));
  const Schema other({Field{"id", DataType::kDouble, false}});
  EXPECT_FALSE(TestSchema().Equals(other));
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TestSchema().ToString(), "id:int64, x:double, name:string");
}

// ----------------------------------------------------------------- Table --

Table MakeTestTable() {
  Table t(TestSchema());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5), Value("a")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value::Null(), Value("b")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value(3.5), Value::Null()}).ok());
  return t;
}

TEST(TableTest, AppendRowAndAccess) {
  const Table t = MakeTestTable();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.GetCell(0, "id").value().int64(), 1);
  EXPECT_TRUE(t.GetCell(1, "x").value().is_null());
  EXPECT_EQ(t.GetCell(1, "name").value().str(), "b");
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t(TestSchema());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
}

TEST(TableTest, NonNullableEnforced) {
  Table t(TestSchema());
  EXPECT_FALSE(
      t.AppendRow({Value::Null(), Value(1.0), Value("x")}).ok());
}

TEST(TableTest, GetCellErrors) {
  const Table t = MakeTestTable();
  EXPECT_FALSE(t.GetCell(99, "id").ok());
  EXPECT_FALSE(t.GetCell(0, "zzz").ok());
}

TEST(TableTest, TakeRows) {
  const Table t = MakeTestTable();
  const Table sub = t.TakeRows({2, 0});
  ASSERT_EQ(sub.num_rows(), 2);
  EXPECT_EQ(sub.GetCell(0, "id").value().int64(), 3);
  EXPECT_EQ(sub.GetCell(1, "id").value().int64(), 1);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(TableTest, Project) {
  const Table t = MakeTestTable();
  const Table p = t.Project({"name"}).value();
  EXPECT_EQ(p.num_columns(), 1);
  EXPECT_EQ(p.num_rows(), 3);
  EXPECT_EQ(p.GetCell(0, "name").value().str(), "a");
}

TEST(TableTest, SetRowFrom) {
  Table t = MakeTestTable();
  const Table src = MakeTestTable();
  t.SetRowFrom(src, 0, 2);
  EXPECT_EQ(t.GetCell(2, "id").value().int64(), 1);
  EXPECT_EQ(t.GetCell(2, "name").value().str(), "a");
}

TEST(TableTest, AppendRowFrom) {
  Table t = MakeTestTable();
  t.AppendRowFrom(t, 0);
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.GetCell(3, "id").value().int64(), 1);
}

TEST(TableTest, FromColumnsValidates) {
  Column a(DataType::kInt64);
  a.AppendInt64(1);
  Column b(DataType::kInt64);  // wrong length
  const Schema s({Field{"a", DataType::kInt64, true},
                  Field{"b", DataType::kInt64, true}});
  EXPECT_FALSE(Table::FromColumns(s, {a, b}).ok());
  b.AppendInt64(2);
  const Table t = Table::FromColumns(s, {a, b}).value();
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(TableTest, FromColumnsTypeMismatch) {
  Column a(DataType::kDouble);
  a.AppendDouble(1.0);
  const Schema s({Field{"a", DataType::kInt64, true}});
  EXPECT_FALSE(Table::FromColumns(s, {a}).ok());
}

TEST(TableTest, ValidateCatchesCorruption) {
  const Table t = MakeTestTable();
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, AppendNumericRow) {
  Table t{Schema({Field{"i", DataType::kInt64, false},
                  Field{"d", DataType::kDouble, false}})};
  t.AppendNumericRow({3.0, 2.5});
  EXPECT_EQ(t.GetCell(0, "i").value().int64(), 3);
  EXPECT_DOUBLE_EQ(t.GetCell(0, "d").value().dbl(), 2.5);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, RoundTrip) {
  const Table t = MakeTestTable();
  const std::string path = testing::TempDir() + "/sciborq_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const Table back = ReadCsv(path).value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_TRUE(back.schema().Equals(t.schema()));
  EXPECT_EQ(back.GetCell(0, "id").value().int64(), 1);
  EXPECT_TRUE(back.GetCell(1, "x").value().is_null());
  EXPECT_EQ(back.GetCell(1, "name").value().str(), "b");
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedCells) {
  Table t{Schema({Field{"s", DataType::kString, true}})};
  ASSERT_TRUE(t.AppendRow({Value("a,b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("say \"hi\"")}).ok());
  const std::string path = testing::TempDir() + "/sciborq_quoted.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const Table back = ReadCsv(path).value();
  EXPECT_EQ(back.GetCell(0, "s").value().str(), "a,b");
  EXPECT_EQ(back.GetCell(1, "s").value().str(), "say \"hi\"");
  std::remove(path.c_str());
}

TEST(CsvTest, DoublePrecisionPreserved) {
  Table t{Schema({Field{"d", DataType::kDouble, true}})};
  ASSERT_TRUE(t.AppendRow({Value(0.1 + 0.2)}).ok());
  const std::string path = testing::TempDir() + "/sciborq_precision.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const Table back = ReadCsv(path).value();
  EXPECT_DOUBLE_EQ(back.GetCell(0, "d").value().dbl(), 0.1 + 0.2);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/sciborq.csv").ok());
}

namespace {

/// Writes `content` to a temp CSV and returns the ReadCsv error message.
std::string CsvErrorFor(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  out.close();
  const Result<Table> r = ReadCsv(path);
  std::remove(path.c_str());
  EXPECT_FALSE(r.ok()) << "expected parse failure for:\n" << content;
  return r.ok() ? "" : r.status().message();
}

}  // namespace

TEST(CsvTest, ParseErrorsNameLineAndColumn) {
  // Bad int64 cell on (1-based) line 3, column 'id'.
  const std::string bad_int =
      CsvErrorFor("sciborq_badint.csv", "id:int64,x:double\n1,2.5\nseven,3\n");
  EXPECT_NE(bad_int.find("line 3"), std::string::npos) << bad_int;
  EXPECT_NE(bad_int.find("column 'id'"), std::string::npos) << bad_int;
  EXPECT_NE(bad_int.find("'seven'"), std::string::npos) << bad_int;

  // Bad double cell: trailing junk is not silently truncated.
  const std::string bad_double = CsvErrorFor(
      "sciborq_baddouble.csv", "id:int64,x:double\n1,2.5abc\n");
  EXPECT_NE(bad_double.find("line 2"), std::string::npos) << bad_double;
  EXPECT_NE(bad_double.find("column 'x'"), std::string::npos) << bad_double;

  // Int cells must be fully numeric too.
  const std::string trailing_int = CsvErrorFor(
      "sciborq_trailint.csv", "id:int64\n12junk\n");
  EXPECT_NE(trailing_int.find("column 'id'"), std::string::npos)
      << trailing_int;

  // Overflowing and non-finite doubles are rejected, not loaded as inf/NaN.
  const std::string overflow = CsvErrorFor(
      "sciborq_overflow.csv", "x:double\n1e999\n");
  EXPECT_NE(overflow.find("column 'x'"), std::string::npos) << overflow;
  const std::string nan_cell = CsvErrorFor(
      "sciborq_nan.csv", "x:double\nnan\n");
  EXPECT_NE(nan_cell.find("line 2"), std::string::npos) << nan_cell;
  CsvErrorFor("sciborq_inf.csv", "x:double\ninf\n");

  // Header errors carry position context as well.
  const std::string bad_header =
      CsvErrorFor("sciborq_badheader.csv", "id:int64,x:float\n1,2\n");
  EXPECT_NE(bad_header.find("line 1"), std::string::npos) << bad_header;
  EXPECT_NE(bad_header.find("'float'"), std::string::npos) << bad_header;
}

}  // namespace
}  // namespace sciborq
