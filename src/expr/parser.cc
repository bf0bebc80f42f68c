#include "expr/parser.h"

#include <cctype>

#include "common/string_util.h"

namespace charles {

namespace {

enum class TokenType {
  kIdentifier,
  kQuotedIdentifier,  // `name`: always a column, never a keyword
  kNumber,
  kString,
  kOperator,  // = == != <> < <= > >=
  kLParen,
  kRParen,
  kComma,
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;
  size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size()) break;
      size_t start = pos_;
      char c = input_[pos_];
      if (c == '(') {
        tokens.push_back({TokenType::kLParen, "(", start});
        ++pos_;
      } else if (c == ')') {
        tokens.push_back({TokenType::kRParen, ")", start});
        ++pos_;
      } else if (c == ',') {
        tokens.push_back({TokenType::kComma, ",", start});
        ++pos_;
      } else if (c == '\'') {
        CHARLES_ASSIGN_OR_RETURN(Token t, LexString());
        tokens.push_back(std::move(t));
      } else if (c == '`') {
        CHARLES_ASSIGN_OR_RETURN(Token t, LexQuotedIdentifier());
        tokens.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                 ((c == '-' || c == '+') && pos_ + 1 < input_.size() &&
                  (std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])) ||
                   input_[pos_ + 1] == '.'))) {
        tokens.push_back(LexNumber());
      } else if (IsOperatorChar(c)) {
        CHARLES_ASSIGN_OR_RETURN(Token t, LexOperator());
        tokens.push_back(std::move(t));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdentifier());
      } else {
        return Status::InvalidArgument("unexpected character '" + std::string(1, c) +
                                       "' at position " + std::to_string(pos_));
      }
    }
    tokens.push_back({TokenType::kEnd, "", input_.size()});
    return tokens;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  static bool IsOperatorChar(char c) {
    return c == '=' || c == '!' || c == '<' || c == '>';
  }

  Result<Token> LexString() {
    size_t start = pos_;
    ++pos_;  // opening quote
    std::string text;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '\'') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
          text += '\'';
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{TokenType::kString, std::move(text), start};
      }
      text += c;
      ++pos_;
    }
    return Status::InvalidArgument("unterminated string literal at position " +
                                   std::to_string(start));
  }

  Result<Token> LexQuotedIdentifier() {
    size_t start = pos_;
    ++pos_;  // opening backquote
    std::string text;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '`') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '`') {
          text += '`';
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{TokenType::kQuotedIdentifier, std::move(text), start};
      }
      text += c;
      ++pos_;
    }
    return Status::InvalidArgument("unterminated quoted identifier at position " +
                                   std::to_string(start));
  }

  Token LexNumber() {
    size_t start = pos_;
    if (input_[pos_] == '-' || input_[pos_] == '+') ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.' || input_[pos_] == 'e' || input_[pos_] == 'E' ||
            ((input_[pos_] == '-' || input_[pos_] == '+') &&
             (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    return Token{TokenType::kNumber, std::string(input_.substr(start, pos_ - start)),
                 start};
  }

  Result<Token> LexOperator() {
    size_t start = pos_;
    char c = input_[pos_];
    char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    std::string op;
    if (c == '=' && next == '=') {
      op = "==";
    } else if (c == '!' && next == '=') {
      op = "!=";
    } else if (c == '<' && next == '>') {
      op = "<>";
    } else if (c == '<' && next == '=') {
      op = "<=";
    } else if (c == '>' && next == '=') {
      op = ">=";
    } else if (c == '=' || c == '<' || c == '>') {
      op = std::string(1, c);
    } else {
      return Status::InvalidArgument("unknown operator at position " +
                                     std::to_string(start));
    }
    pos_ += op.size();
    return Token{TokenType::kOperator, std::move(op), start};
  }

  Token LexIdentifier() {
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_' || input_[pos_] == '.')) {
      ++pos_;
    }
    return Token{TokenType::kIdentifier, std::string(input_.substr(start, pos_ - start)),
                 start};
  }

  std::string_view input_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> Parse() {
    CHARLES_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    if (Current().type != TokenType::kEnd) {
      return Status::InvalidArgument("trailing input at position " +
                                     std::to_string(Current().position));
    }
    return expr;
  }

 private:
  const Token& Current() const { return tokens_[index_]; }
  void Advance() { ++index_; }

  bool CurrentIsKeyword(std::string_view keyword) const {
    return Current().type == TokenType::kIdentifier &&
           EqualsIgnoreCase(Current().text, keyword);
  }

  Result<ExprPtr> ParseOr() {
    CHARLES_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    std::vector<ExprPtr> operands{lhs};
    while (CurrentIsKeyword("OR")) {
      Advance();
      CHARLES_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      operands.push_back(std::move(rhs));
    }
    if (operands.size() == 1) return operands[0];
    return MakeOr(std::move(operands));
  }

  Result<ExprPtr> ParseAnd() {
    CHARLES_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    std::vector<ExprPtr> operands{lhs};
    while (CurrentIsKeyword("AND")) {
      Advance();
      CHARLES_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      operands.push_back(std::move(rhs));
    }
    if (operands.size() == 1) return operands[0];
    return MakeAnd(std::move(operands));
  }

  Result<ExprPtr> ParseUnary() {
    if (CurrentIsKeyword("NOT")) {
      Advance();
      CHARLES_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeNot(std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    if (Current().type == TokenType::kLParen) {
      Advance();
      CHARLES_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      if (Current().type != TokenType::kRParen) {
        return Status::InvalidArgument("expected ')' at position " +
                                       std::to_string(Current().position));
      }
      Advance();
      return inner;
    }
    if (CurrentIsKeyword("TRUE") && PeekIsEndOfPredicate()) {
      Advance();
      return MakeTrue();
    }
    return ParsePredicate();
  }

  /// TRUE is both a literal and the universal condition; treat a bare TRUE
  /// not followed by a comparison operator as the universal condition.
  bool PeekIsEndOfPredicate() const {
    const Token& next = tokens_[index_ + 1];
    return next.type != TokenType::kOperator;
  }

  Result<ExprPtr> ParsePredicate() {
    CHARLES_ASSIGN_OR_RETURN(ExprPtr lhs, ParseOperand());
    if (CurrentIsKeyword("IN")) {
      if (lhs->kind() != Expr::Kind::kColumnRef) {
        return Status::InvalidArgument("IN requires a column on the left");
      }
      Advance();
      if (Current().type != TokenType::kLParen) {
        return Status::InvalidArgument("expected '(' after IN");
      }
      Advance();
      std::vector<Value> values;
      while (true) {
        CHARLES_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        values.push_back(std::move(v));
        if (Current().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Current().type != TokenType::kRParen) {
        return Status::InvalidArgument("expected ')' to close IN list");
      }
      Advance();
      std::vector<std::string> column;
      lhs->CollectColumns(&column);
      return MakeIn(std::move(column[0]), std::move(values));
    }
    if (Current().type != TokenType::kOperator) {
      return Status::InvalidArgument("expected comparison operator at position " +
                                     std::to_string(Current().position));
    }
    std::string op_text = Current().text;
    Advance();
    CHARLES_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOperand());
    CompareOp op;
    if (op_text == "=" || op_text == "==") {
      op = CompareOp::kEq;
    } else if (op_text == "!=" || op_text == "<>") {
      op = CompareOp::kNe;
    } else if (op_text == "<") {
      op = CompareOp::kLt;
    } else if (op_text == "<=") {
      op = CompareOp::kLe;
    } else if (op_text == ">") {
      op = CompareOp::kGt;
    } else if (op_text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Status::InvalidArgument("unknown operator '" + op_text + "'");
    }
    return MakeComparison(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseOperand() {
    const Token& token = Current();
    switch (token.type) {
      case TokenType::kIdentifier: {
        if (EqualsIgnoreCase(token.text, "true")) {
          Advance();
          return MakeLiteral(Value(true));
        }
        if (EqualsIgnoreCase(token.text, "false")) {
          Advance();
          return MakeLiteral(Value(false));
        }
        if (EqualsIgnoreCase(token.text, "null")) {
          Advance();
          return MakeLiteral(Value::Null());
        }
        std::string name = token.text;
        Advance();
        return MakeColumnRef(std::move(name));
      }
      case TokenType::kQuotedIdentifier: {
        std::string name = token.text;
        Advance();
        return MakeColumnRef(std::move(name));
      }
      case TokenType::kNumber:
      case TokenType::kString: {
        CHARLES_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return MakeLiteral(std::move(v));
      }
      default:
        return Status::InvalidArgument("expected operand at position " +
                                       std::to_string(token.position));
    }
  }

  Result<Value> ParseLiteralValue() {
    const Token& token = Current();
    if (token.type == TokenType::kString) {
      std::string text = token.text;
      Advance();
      return Value(std::move(text));
    }
    if (token.type == TokenType::kNumber) {
      std::string text = token.text;
      Advance();
      if (auto i = ParseInt64(text)) return Value(*i);
      if (auto d = ParseDouble(text)) return Value(*d);
      return Status::InvalidArgument("bad numeric literal '" + text + "'");
    }
    if (token.type == TokenType::kIdentifier) {
      if (EqualsIgnoreCase(token.text, "true")) {
        Advance();
        return Value(true);
      }
      if (EqualsIgnoreCase(token.text, "false")) {
        Advance();
        return Value(false);
      }
      if (EqualsIgnoreCase(token.text, "null")) {
        Advance();
        return Value::Null();
      }
    }
    return Status::InvalidArgument("expected literal at position " +
                                   std::to_string(token.position));
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view input) {
  Lexer lexer(input);
  CHARLES_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace charles
