#include "expr/parser.h"

#include <gtest/gtest.h>

namespace charles {
namespace {

TEST(ParserTest, SimpleComparison) {
  ExprPtr e = ParseExpr("edu = 'PhD'").ValueOrDie();
  EXPECT_TRUE(e->Equals(*MakeColumnCompare("edu", CompareOp::kEq, Value("PhD"))));
}

TEST(ParserTest, AllOperators) {
  EXPECT_TRUE((*ParseExpr("x = 1"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(1))));
  EXPECT_TRUE((*ParseExpr("x == 1"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(1))));
  EXPECT_TRUE((*ParseExpr("x != 1"))->Equals(*MakeColumnCompare("x", CompareOp::kNe, Value(1))));
  EXPECT_TRUE((*ParseExpr("x <> 1"))->Equals(*MakeColumnCompare("x", CompareOp::kNe, Value(1))));
  EXPECT_TRUE((*ParseExpr("x < 1"))->Equals(*MakeColumnCompare("x", CompareOp::kLt, Value(1))));
  EXPECT_TRUE((*ParseExpr("x <= 1"))->Equals(*MakeColumnCompare("x", CompareOp::kLe, Value(1))));
  EXPECT_TRUE((*ParseExpr("x > 1"))->Equals(*MakeColumnCompare("x", CompareOp::kGt, Value(1))));
  EXPECT_TRUE((*ParseExpr("x >= 1"))->Equals(*MakeColumnCompare("x", CompareOp::kGe, Value(1))));
}

TEST(ParserTest, PrecedenceAndBindsTighterThanOr) {
  ExprPtr e = ParseExpr("a = 1 OR b = 2 AND c = 3").ValueOrDie();
  ExprPtr expected =
      MakeOr({MakeColumnCompare("a", CompareOp::kEq, Value(1)),
              MakeAnd({MakeColumnCompare("b", CompareOp::kEq, Value(2)),
                       MakeColumnCompare("c", CompareOp::kEq, Value(3))})});
  EXPECT_TRUE(e->Equals(*expected)) << e->ToString();
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  ExprPtr e = ParseExpr("(a = 1 OR b = 2) AND c = 3").ValueOrDie();
  ExprPtr expected =
      MakeAnd({MakeOr({MakeColumnCompare("a", CompareOp::kEq, Value(1)),
                       MakeColumnCompare("b", CompareOp::kEq, Value(2))}),
               MakeColumnCompare("c", CompareOp::kEq, Value(3))});
  EXPECT_TRUE(e->Equals(*expected)) << e->ToString();
}

TEST(ParserTest, NotAndNestedNot) {
  ExprPtr e = ParseExpr("NOT x = 1").ValueOrDie();
  EXPECT_TRUE(e->Equals(*MakeNot(MakeColumnCompare("x", CompareOp::kEq, Value(1)))));
  ExprPtr doubled = ParseExpr("NOT NOT x = 1").ValueOrDie();
  EXPECT_TRUE(
      doubled->Equals(*MakeNot(MakeNot(MakeColumnCompare("x", CompareOp::kEq, Value(1))))));
}

TEST(ParserTest, InList) {
  ExprPtr e = ParseExpr("dept IN ('POL', 'FRS', 'COR')").ValueOrDie();
  EXPECT_TRUE(e->Equals(*MakeIn("dept", {Value("POL"), Value("FRS"), Value("COR")})));
}

TEST(ParserTest, LiteralTypes) {
  EXPECT_TRUE((*ParseExpr("x = 5"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(5))));
  EXPECT_TRUE(
      (*ParseExpr("x = 5.5"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(5.5))));
  EXPECT_TRUE((*ParseExpr("x = -3"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(-3))));
  EXPECT_TRUE(
      (*ParseExpr("x = true"))->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value(true))));
  EXPECT_TRUE((*ParseExpr("x = NULL"))
                  ->Equals(*MakeColumnCompare("x", CompareOp::kEq, Value::Null())));
}

TEST(ParserTest, EscapedStringLiteral) {
  ExprPtr e = ParseExpr("name = 'O''Brien'").ValueOrDie();
  EXPECT_TRUE(e->Equals(*MakeColumnCompare("name", CompareOp::kEq, Value("O'Brien"))));
}

TEST(ParserTest, BackquotedIdentifier) {
  ExprPtr e = ParseExpr("`base salary` > 50000").ValueOrDie();
  EXPECT_TRUE(e->Equals(*MakeColumnCompare("base salary", CompareOp::kGt, Value(50000))));
}

TEST(ParserTest, BackquotedNamesAreNeverKeywordsAndPrintBack) {
  // A backquoted name is a column even when it spells a keyword or literal,
  // and the printer quotes every name that would not read back as itself.
  for (const char* name : {"base salary", "AND", "null", "in", "a`b", "1st"}) {
    ExprPtr expected = MakeColumnCompare(name, CompareOp::kEq, Value(1));
    const std::string printed = expected->ToString();
    Result<ExprPtr> parsed = ParseExpr(printed);
    ASSERT_TRUE(parsed.ok()) << printed << ": " << parsed.status().ToString();
    EXPECT_TRUE((*parsed)->Equals(*expected)) << printed;
    ExprPtr in = MakeIn(name, {Value(2)});
    Result<ExprPtr> parsed_in = ParseExpr(in->ToString());
    ASSERT_TRUE(parsed_in.ok()) << in->ToString();
    EXPECT_TRUE((*parsed_in)->Equals(*in)) << in->ToString();
  }
  EXPECT_EQ(MakeColumnCompare("salary", CompareOp::kEq, Value(1))->ToString(),
            "salary = 1");
}

TEST(ParserTest, BareTrueIsUniversalCondition) {
  EXPECT_TRUE((*ParseExpr("TRUE"))->Equals(*MakeTrue()));
  EXPECT_TRUE((*ParseExpr("true"))->Equals(*MakeTrue()));
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  ExprPtr e = ParseExpr("a = 1 and not b = 2 or c in (3)").ValueOrDie();
  ExprPtr expected =
      MakeOr({MakeAnd({MakeColumnCompare("a", CompareOp::kEq, Value(1)),
                       MakeNot(MakeColumnCompare("b", CompareOp::kEq, Value(2)))}),
              MakeIn("c", {Value(3)})});
  EXPECT_TRUE(e->Equals(*expected)) << e->ToString();
}

TEST(ParserTest, ErrorsAreInvalidArgument) {
  EXPECT_TRUE(ParseExpr("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("x =").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("x = 1 extra").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("(x = 1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("x = 'unterminated").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("x # 1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseExpr("1 IN (2)").status().IsInvalidArgument());
}

/// Property: printing then parsing reproduces the tree.
class RoundTripProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripProperty, ParsePrintParseIsIdentity) {
  Result<ExprPtr> first = ParseExpr(GetParam());
  ASSERT_TRUE(first.ok()) << GetParam() << ": " << first.status().ToString();
  std::string printed = (*first)->ToString();
  Result<ExprPtr> second = ParseExpr(printed);
  ASSERT_TRUE(second.ok()) << printed << ": " << second.status().ToString();
  EXPECT_TRUE((*second)->Equals(**first)) << printed;
  EXPECT_EQ((*second)->ToString(), printed);  // printing is a fixed point
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, RoundTripProperty,
    ::testing::Values("TRUE", "x = 1", "edu = 'PhD'", "x >= 2.5 AND y < 10",
                      "a = 1 OR b = 2 AND c = 3", "(a = 1 OR b = 2) AND c = 3",
                      "NOT (x = 1 AND y = 2)", "dept IN ('POL', 'FRS')",
                      "name = 'O''Brien'", "x != -4.25",
                      "a = 1 AND b = 2 AND c = 3 AND d = 4",
                      "NOT x IN (1, 2, 3)", "flag = true AND other = false"));

}  // namespace
}  // namespace charles
