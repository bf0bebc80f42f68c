#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/engine.h"
#include "csv/csv_reader.h"
#include "csv/csv_writer.h"
#include "table/table_builder.h"

namespace charles {
namespace {

TEST(CsvReaderTest, BasicParseWithTypeInference) {
  Table t = CsvReader::ReadString("id,name,score\n1,ann,1.5\n2,bob,2.5\n").ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().field(0).type, TypeKind::kInt64);
  EXPECT_EQ(t.schema().field(1).type, TypeKind::kString);
  EXPECT_EQ(t.schema().field(2).type, TypeKind::kDouble);
  EXPECT_EQ(t.GetValue(1, 1), Value("bob"));
  EXPECT_EQ(t.GetValue(0, 2), Value(1.5));
}

TEST(CsvReaderTest, IntColumnWithDecimalBecomesDouble) {
  Table t = CsvReader::ReadString("x\n1\n2.5\n3\n").ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, TypeKind::kDouble);
  EXPECT_EQ(t.GetValue(0, 0), Value(1.0));
}

TEST(CsvReaderTest, BoolInference) {
  Table t = CsvReader::ReadString("flag\ntrue\nfalse\ntrue\n").ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, TypeKind::kBool);
  EXPECT_EQ(t.GetValue(0, 0), Value(true));
}

TEST(CsvReaderTest, NullTokens) {
  Table t = CsvReader::ReadString("x,y\n1,a\nNULL,NA\n3,c\n").ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, TypeKind::kInt64);
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
}

TEST(CsvReaderTest, QuotedFieldsWithDelimitersAndNewlines) {
  Table t =
      CsvReader::ReadString("a,b\n\"hello, world\",\"line1\nline2\"\n").ValueOrDie();
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value("hello, world"));
  EXPECT_EQ(t.GetValue(0, 1), Value("line1\nline2"));
}

TEST(CsvReaderTest, EscapedQuotes) {
  Table t = CsvReader::ReadString("a\n\"she said \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(t.GetValue(0, 0), Value("she said \"hi\""));
}

TEST(CsvReaderTest, CrLfLineEndings) {
  Table t = CsvReader::ReadString("a,b\r\n1,2\r\n3,4\r\n").ValueOrDie();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value(4));
}

TEST(CsvReaderTest, RaggedRowsRejected) {
  auto result = CsvReader::ReadString("a,b\n1,2\n3\n");
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(CsvReaderTest, UnterminatedQuoteRejected) {
  EXPECT_TRUE(CsvReader::ReadString("a\n\"oops\n").status().IsInvalidArgument());
}

TEST(CsvReaderTest, EmptyInputRejected) {
  EXPECT_TRUE(CsvReader::ReadString("").status().IsInvalidArgument());
}

TEST(CsvReaderTest, NoHeaderGeneratesNames) {
  CsvReadOptions options;
  options.has_header = false;
  Table t = CsvReader::ReadString("1,x\n2,y\n", options).ValueOrDie();
  EXPECT_EQ(t.schema().field(0).name, "f0");
  EXPECT_EQ(t.schema().field(1).name, "f1");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(CsvReaderTest, InferenceOffMakesEverythingString) {
  CsvReadOptions options;
  options.infer_types = false;
  Table t = CsvReader::ReadString("a\n42\n", options).ValueOrDie();
  EXPECT_EQ(t.schema().field(0).type, TypeKind::kString);
  EXPECT_EQ(t.GetValue(0, 0), Value("42"));
}

TEST(CsvReaderTest, CustomDelimiter) {
  CsvReadOptions options;
  options.delimiter = ';';
  Table t = CsvReader::ReadString("a;b\n1;2\n", options).ValueOrDie();
  EXPECT_EQ(t.GetValue(0, 1), Value(2));
}

TEST(CsvReaderTest, CellTrimming) {
  Table t = CsvReader::ReadString("a,b\n  1 ,  spaced text \n").ValueOrDie();
  EXPECT_EQ(t.GetValue(0, 0), Value(1));
  EXPECT_EQ(t.GetValue(0, 1), Value("spaced text"));
}

TEST(CsvReaderTest, NonFiniteSpellingsParseAsDoubles) {
  Table t =
      CsvReader::ReadString("x\n1\nnan\nInf\n+inf\n-INF\n NaN \n2.5\n").ValueOrDie();
  ASSERT_EQ(t.schema().field(0).type, TypeKind::kDouble);
  EXPECT_EQ(t.GetValue(0, 0), Value(1.0));
  EXPECT_TRUE(std::isnan(t.GetValue(1, 0).AsDouble().ValueOrDie()));
  EXPECT_EQ(t.GetValue(2, 0).AsDouble().ValueOrDie(), HUGE_VAL);
  EXPECT_EQ(t.GetValue(3, 0).AsDouble().ValueOrDie(), HUGE_VAL);
  EXPECT_EQ(t.GetValue(4, 0).AsDouble().ValueOrDie(), -HUGE_VAL);
  EXPECT_TRUE(std::isnan(t.GetValue(5, 0).AsDouble().ValueOrDie()));
  EXPECT_EQ(t.GetValue(6, 0), Value(2.5));
}

TEST(CsvReaderTest, OnlyTheFourNonFiniteSpellingsAreNumeric) {
  for (const char* cell : {"infinity", "-nan", "+nan", "nan(1)", "in", "--inf"}) {
    Table t = CsvReader::ReadString(std::string("x\n1\n") + cell + "\n").ValueOrDie();
    EXPECT_EQ(t.schema().field(0).type, TypeKind::kString) << cell;
  }
}

TEST(CsvReaderTest, NonFiniteTargetCellIsNamedNotASchemaMismatch) {
  // A `nan` cell used to make the target's column a string column, so the
  // run failed on mismatched schemas. It now reads as a double, and the
  // engine names the cell.
  Table source = CsvReader::ReadString(
                     "name,gender,bonus\nann,F,10\nbob,M,20\ncid,M,30\ndee,F,40\n")
                     .ValueOrDie();
  Table target = CsvReader::ReadString(
                     "name,gender,bonus\nann,F,11\nbob,M,nan\ncid,M,33\ndee,F,44\n")
                     .ValueOrDie();
  auto unified = UnifyNumericTypes(source, target).ValueOrDie();
  CharlesOptions options;
  options.target_attribute = "bonus";
  options.key_columns = {"name"};
  Status status =
      SummarizeChanges(unified.first, unified.second, options).status();
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  for (const char* part : {"'bonus'", "is nan", "target snapshot", "row 1 ", "name=bob"}) {
    EXPECT_NE(status.message().find(part), std::string::npos)
        << "missing '" << part << "' in: " << status.ToString();
  }
}

TEST(CsvWriterTest, QuotesSpecialCells) {
  Schema schema = Schema::Make({Field{"a", TypeKind::kString, true}}).ValueOrDie();
  TableBuilder builder(schema);
  CHARLES_CHECK_OK(builder.AppendRow({Value("x,y")}));
  CHARLES_CHECK_OK(builder.AppendRow({Value("say \"hi\"")}));
  Table t = builder.Finish().ValueOrDie();
  std::string csv = CsvWriter::WriteString(t);
  EXPECT_EQ(csv, "a\n\"x,y\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvRoundTripTest, TypedTableSurvives) {
  Schema schema = Schema::Make({
                                   Field{"i", TypeKind::kInt64, true},
                                   Field{"d", TypeKind::kDouble, true},
                                   Field{"s", TypeKind::kString, true},
                               })
                      .ValueOrDie();
  TableBuilder builder(schema);
  CHARLES_CHECK_OK(builder.AppendRow({Value(1), Value(1.25), Value("plain")}));
  CHARLES_CHECK_OK(builder.AppendRow({Value(-7), Value(-0.5), Value("with,comma")}));
  CHARLES_CHECK_OK(builder.AppendRow({Value::Null(), Value(3.0), Value("q\"q")}));
  Table original = builder.Finish().ValueOrDie();

  std::string csv = CsvWriter::WriteString(original);
  Table reread = CsvReader::ReadString(csv).ValueOrDie();
  ASSERT_TRUE(reread.schema().Equals(original.schema()))
      << reread.schema().ToString();
  EXPECT_TRUE(reread.Equals(original));
}

TEST(CsvFileTest, WriteAndReadBack) {
  Schema schema = Schema::Make({Field{"x", TypeKind::kInt64, true}}).ValueOrDie();
  TableBuilder builder(schema);
  CHARLES_CHECK_OK(builder.AppendRow({Value(5)}));
  Table t = builder.Finish().ValueOrDie();
  std::string path = ::testing::TempDir() + "/charles_csv_test.csv";
  ASSERT_TRUE(CsvWriter::WriteFile(t, path).ok());
  Table reread = CsvReader::ReadFile(path).ValueOrDie();
  EXPECT_TRUE(reread.Equals(t));
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(CsvReader::ReadFile("/no/such/file.csv").status().IsIOError());
}

}  // namespace
}  // namespace charles
