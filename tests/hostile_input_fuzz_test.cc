/// \file
/// Fuzz coverage of the two text front ends a user reaches first: the CSV
/// reader and the condition-expression parser. Mirroring wire_negative_test,
/// every strict prefix and every single-byte corruption of a set of valid
/// seed documents must end in either an OK result or a non-OK Status —
/// never a crash, a sanitizer report, or a hang. Parsed expressions must
/// also survive a print/parse round trip.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csv/csv_reader.h"
#include "expr/parser.h"

namespace charles {
namespace {

/// Valid seed documents: quoting, escaped quotes, embedded delimiters and
/// line breaks, CRLF, NULL spellings, non-finite literals, and every
/// inferred type.
const std::vector<std::string>& CsvSeeds() {
  static const std::vector<std::string> seeds = {
      "id,name,score\n1,ann,1.5\n2,bob,2.5\n",
      "a,b\n\"hello, world\",\"line1\nline2\"\n\"say \"\"hi\"\"\",x\n",
      "k,v,flag\r\n1,nan,true\r\n2,-inf,false\r\n3,+Inf,TRUE\r\n",
      "x,y,z\n1,NULL,NA\n,2.5e-3,\"\"\n-7,1e308,abc\n",
  };
  return seeds;
}

const std::vector<std::string>& ExprSeeds() {
  static const std::vector<std::string> seeds = {
      "edu = 'PhD' AND exp >= 3",
      "NOT (dept IN ('HR', 'Ops') OR salary < -4.25e3)",
      "`odd name` != 'O''Brien' AND flag = true AND other = NULL",
      "(a <> 1) OR (b == 2.5 AND TRUE)",
  };
  return seeds;
}

/// Single-byte corruptions: bit flips (low bit, case bit, high bit) and
/// substitutions with every byte the two grammars give meaning to.
std::vector<std::string> Corruptions(const std::string& seed) {
  static const unsigned char kMasks[] = {0x01, 0x20, 0x80};
  static const char kBytes[] = {'"', '\'', '`', ',', '\n', '\r', '(', ')',
                                '=', '<', '!', '-', '.', 'e', ' ', '\0'};
  std::vector<std::string> out;
  for (size_t i = 0; i < seed.size(); ++i) {
    for (unsigned char mask : kMasks) {
      std::string flipped = seed;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^ mask);
      out.push_back(std::move(flipped));
    }
    for (char byte : kBytes) {
      if (seed[i] == byte) continue;
      std::string replaced = seed;
      replaced[i] = byte;
      out.push_back(std::move(replaced));
    }
  }
  return out;
}

/// Parses CSV text; a success must yield a well-formed table.
void ExpectCsvHandled(const std::string& text) {
  Result<Table> table = CsvReader::ReadString(text);
  if (!table.ok()) {
    EXPECT_FALSE(table.status().message().empty());
    return;
  }
  for (int c = 0; c < table->num_columns(); ++c) {
    EXPECT_EQ(table->column(c).length(), table->num_rows());
  }
}

/// Parses an expression; a success must print to text that parses back to
/// an equal tree.
void ExpectExprHandled(const std::string& text) {
  Result<ExprPtr> expr = ParseExpr(text);
  if (!expr.ok()) {
    EXPECT_FALSE(expr.status().message().empty());
    return;
  }
  const std::string printed = (*expr)->ToString();
  Result<ExprPtr> reparsed = ParseExpr(printed);
  ASSERT_TRUE(reparsed.ok()) << "'" << printed << "': " << reparsed.status().ToString();
  EXPECT_TRUE((*reparsed)->Equals(**expr)) << "'" << printed << "'";
}

TEST(CsvFuzzTest, SeedsParse) {
  for (const std::string& seed : CsvSeeds()) {
    EXPECT_TRUE(CsvReader::ReadString(seed).ok()) << seed;
  }
}

TEST(CsvFuzzTest, EveryStrictPrefixIsHandled) {
  for (const std::string& seed : CsvSeeds()) {
    for (size_t len = 0; len < seed.size(); ++len) {
      SCOPED_TRACE("prefix " + std::to_string(len) + " of: " + seed);
      ExpectCsvHandled(seed.substr(0, len));
    }
  }
}

TEST(CsvFuzzTest, EverySingleByteCorruptionIsHandled) {
  for (const std::string& seed : CsvSeeds()) {
    for (const std::string& text : Corruptions(seed)) {
      SCOPED_TRACE(text);
      ExpectCsvHandled(text);
    }
  }
}

TEST(ExprFuzzTest, SeedsParse) {
  for (const std::string& seed : ExprSeeds()) {
    EXPECT_TRUE(ParseExpr(seed).ok()) << seed;
  }
}

TEST(ExprFuzzTest, EveryStrictPrefixIsHandled) {
  for (const std::string& seed : ExprSeeds()) {
    for (size_t len = 0; len < seed.size(); ++len) {
      SCOPED_TRACE("prefix " + std::to_string(len) + " of: " + seed);
      ExpectExprHandled(seed.substr(0, len));
    }
  }
}

TEST(ExprFuzzTest, EverySingleByteCorruptionIsHandled) {
  for (const std::string& seed : ExprSeeds()) {
    for (const std::string& text : Corruptions(seed)) {
      SCOPED_TRACE(text);
      ExpectExprHandled(text);
    }
  }
}

}  // namespace
}  // namespace charles
