#include "expr/expr.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/logging.h"
#include "common/string_util.h"

namespace charles {

std::string_view CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

std::string QuoteLiteral(const Value& v) {
  if (v.kind() == TypeKind::kDouble) {
    // Shortest representation that parses back to the same double: literals
    // must survive print -> parse exactly (Value::ToString's display rounding
    // would corrupt round-trips).
    char buffer[32];
    auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v.dbl());
    CHARLES_CHECK(ec == std::errc());
    return std::string(buffer, end);
  }
  if (v.kind() != TypeKind::kString) return v.ToString();
  std::string out = "'";
  for (char c : v.str()) {
    if (c == '\'') out += '\'';  // escape by doubling
    out += c;
  }
  out += "'";
  return out;
}

/// A column name as the parser reads it back: bare when it lexes as one
/// plain identifier that is not a keyword, else backquoted (a backquote in
/// the name doubled).
std::string QuoteIdentifier(const std::string& name) {
  static const char* const kKeywords[] = {"AND", "OR",    "NOT",  "IN",
                                          "TRUE", "FALSE", "NULL"};
  bool plain = !name.empty() &&
               (std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_');
  for (char c : name) {
    plain = plain &&
            (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.');
  }
  for (const char* keyword : kKeywords) {
    plain = plain && !EqualsIgnoreCase(name, keyword);
  }
  if (plain) return name;
  std::string out = "`";
  for (char c : name) {
    if (c == '`') out += '`';  // escape by doubling
    out += c;
  }
  out += "`";
  return out;
}

class TrueExpr final : public Expr {
 public:
  TrueExpr() : Expr(Kind::kTrue) {}
  Result<Value> Evaluate(const Table&, int64_t) const override { return Value(true); }
  std::string ToString() const override { return "TRUE"; }
  int NumDescriptors() const override { return 0; }
  bool Equals(const Expr& other) const override { return other.kind() == Kind::kTrue; }
  Status ValidateAgainst(const Schema&) const override { return Status::OK(); }
  void CollectColumns(std::vector<std::string>*) const override {}
  void CollectLiterals(std::vector<Value>*) const override {}
};

class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(std::string name) : Expr(Kind::kColumnRef), name_(std::move(name)) {}
  const std::string& name() const { return name_; }

  Result<Value> Evaluate(const Table& table, int64_t row) const override {
    return table.GetValueByName(row, name_);
  }
  std::string ToString() const override { return QuoteIdentifier(name_); }
  int NumDescriptors() const override { return 0; }
  bool Equals(const Expr& other) const override {
    return other.kind() == Kind::kColumnRef &&
           static_cast<const ColumnRefExpr&>(other).name_ == name_;
  }
  Status ValidateAgainst(const Schema& schema) const override {
    return schema.FieldIndex(name_).status();
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  void CollectLiterals(std::vector<Value>*) const override {}

 private:
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : Expr(Kind::kLiteral), value_(std::move(value)) {}
  const Value& value() const { return value_; }

  Result<Value> Evaluate(const Table&, int64_t) const override { return value_; }
  std::string ToString() const override { return QuoteLiteral(value_); }
  int NumDescriptors() const override { return 0; }
  bool Equals(const Expr& other) const override {
    if (other.kind() != Kind::kLiteral) return false;
    const auto& rhs = static_cast<const LiteralExpr&>(other);
    if (value_.is_null() || rhs.value_.is_null()) {
      return value_.is_null() && rhs.value_.is_null();
    }
    return value_ == rhs.value_;
  }
  Status ValidateAgainst(const Schema&) const override { return Status::OK(); }
  void CollectColumns(std::vector<std::string>*) const override {}
  void CollectLiterals(std::vector<Value>* out) const override { out->push_back(value_); }

 private:
  Value value_;
};

class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Kind::kComparison), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Evaluate(const Table& table, int64_t row) const override {
    CHARLES_ASSIGN_OR_RETURN(Value left, lhs_->Evaluate(table, row));
    CHARLES_ASSIGN_OR_RETURN(Value right, rhs_->Evaluate(table, row));
    if (left.is_null() || right.is_null()) return Value(false);
    // Ordered comparisons across incompatible types are a type error;
    // equality across them is simply false.
    bool comparable = (IsNumeric(left.kind()) && IsNumeric(right.kind())) ||
                      left.kind() == right.kind();
    if (!comparable) {
      if (op_ == CompareOp::kEq) return Value(false);
      if (op_ == CompareOp::kNe) return Value(true);
      return Status::TypeError("cannot order " + std::string(TypeKindName(left.kind())) +
                               " against " + std::string(TypeKindName(right.kind())));
    }
    int cmp = left.Compare(right);
    switch (op_) {
      case CompareOp::kEq:
        return Value(cmp == 0);
      case CompareOp::kNe:
        return Value(cmp != 0);
      case CompareOp::kLt:
        return Value(cmp < 0);
      case CompareOp::kLe:
        return Value(cmp <= 0);
      case CompareOp::kGt:
        return Value(cmp > 0);
      case CompareOp::kGe:
        return Value(cmp >= 0);
    }
    return Status::Internal("bad CompareOp");
  }

  std::string ToString() const override {
    return lhs_->ToString() + " " + std::string(CompareOpSymbol(op_)) + " " +
           rhs_->ToString();
  }
  int NumDescriptors() const override { return 1; }
  bool Equals(const Expr& other) const override {
    if (other.kind() != Kind::kComparison) return false;
    const auto& rhs = static_cast<const ComparisonExpr&>(other);
    return op_ == rhs.op_ && lhs_->Equals(*rhs.lhs_) && rhs_->Equals(*rhs.rhs_);
  }
  Status ValidateAgainst(const Schema& schema) const override {
    CHARLES_RETURN_NOT_OK(lhs_->ValidateAgainst(schema));
    return rhs_->ValidateAgainst(schema);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  void CollectLiterals(std::vector<Value>* out) const override {
    lhs_->CollectLiterals(out);
    rhs_->CollectLiterals(out);
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class NaryLogicalExpr final : public Expr {
 public:
  NaryLogicalExpr(Kind kind, std::vector<ExprPtr> operands)
      : Expr(kind), operands_(std::move(operands)) {
    CHARLES_CHECK(kind == Kind::kAnd || kind == Kind::kOr);
    CHARLES_CHECK_GE(operands_.size(), 2u);
  }
  const std::vector<ExprPtr>& operands() const { return operands_; }

  Result<Value> Evaluate(const Table& table, int64_t row) const override {
    bool is_and = kind() == Kind::kAnd;
    for (const ExprPtr& operand : operands_) {
      CHARLES_ASSIGN_OR_RETURN(Value v, operand->Evaluate(table, row));
      if (v.kind() != TypeKind::kBool) {
        return Status::TypeError("logical operand is not boolean: " + operand->ToString());
      }
      if (is_and && !v.boolean()) return Value(false);
      if (!is_and && v.boolean()) return Value(true);
    }
    return Value(is_and);
  }

  std::string ToString() const override {
    std::string joiner = kind() == Kind::kAnd ? " AND " : " OR ";
    std::string out;
    for (size_t i = 0; i < operands_.size(); ++i) {
      if (i > 0) out += joiner;
      const Expr& op = *operands_[i];
      // Parenthesize nested logical nodes of the other polarity for clarity.
      bool needs_parens = op.kind() == Kind::kAnd || op.kind() == Kind::kOr;
      if (needs_parens) {
        out += "(" + op.ToString() + ")";
      } else {
        out += op.ToString();
      }
    }
    return out;
  }
  int NumDescriptors() const override {
    int total = 0;
    for (const ExprPtr& op : operands_) total += op->NumDescriptors();
    return total;
  }
  bool Equals(const Expr& other) const override {
    if (other.kind() != kind()) return false;
    const auto& rhs = static_cast<const NaryLogicalExpr&>(other);
    if (operands_.size() != rhs.operands_.size()) return false;
    for (size_t i = 0; i < operands_.size(); ++i) {
      if (!operands_[i]->Equals(*rhs.operands_[i])) return false;
    }
    return true;
  }
  Status ValidateAgainst(const Schema& schema) const override {
    for (const ExprPtr& op : operands_) CHARLES_RETURN_NOT_OK(op->ValidateAgainst(schema));
    return Status::OK();
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    for (const ExprPtr& op : operands_) op->CollectColumns(out);
  }
  void CollectLiterals(std::vector<Value>* out) const override {
    for (const ExprPtr& op : operands_) op->CollectLiterals(out);
  }

 private:
  std::vector<ExprPtr> operands_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : Expr(Kind::kNot), operand_(std::move(operand)) {}

  Result<Value> Evaluate(const Table& table, int64_t row) const override {
    CHARLES_ASSIGN_OR_RETURN(Value v, operand_->Evaluate(table, row));
    if (v.kind() != TypeKind::kBool) {
      return Status::TypeError("NOT operand is not boolean: " + operand_->ToString());
    }
    return Value(!v.boolean());
  }
  std::string ToString() const override {
    bool needs_parens = operand_->kind() == Kind::kAnd || operand_->kind() == Kind::kOr ||
                        operand_->kind() == Kind::kComparison ||
                        operand_->kind() == Kind::kIn;
    if (needs_parens) return "NOT (" + operand_->ToString() + ")";
    return "NOT " + operand_->ToString();
  }
  int NumDescriptors() const override { return operand_->NumDescriptors(); }
  bool Equals(const Expr& other) const override {
    return other.kind() == Kind::kNot &&
           operand_->Equals(*static_cast<const NotExpr&>(other).operand_);
  }
  Status ValidateAgainst(const Schema& schema) const override {
    return operand_->ValidateAgainst(schema);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  void CollectLiterals(std::vector<Value>* out) const override {
    operand_->CollectLiterals(out);
  }

 private:
  ExprPtr operand_;
};

class InExpr final : public Expr {
 public:
  InExpr(std::string column, std::vector<Value> values)
      : Expr(Kind::kIn), column_(std::move(column)), values_(std::move(values)) {}

  Result<Value> Evaluate(const Table& table, int64_t row) const override {
    CHARLES_ASSIGN_OR_RETURN(Value cell, table.GetValueByName(row, column_));
    if (cell.is_null()) return Value(false);
    for (const Value& v : values_) {
      if (!v.is_null() && cell == v) return Value(true);
    }
    return Value(false);
  }
  std::string ToString() const override {
    std::string out = QuoteIdentifier(column_) + " IN (";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) out += ", ";
      out += QuoteLiteral(values_[i]);
    }
    out += ")";
    return out;
  }
  int NumDescriptors() const override { return 1; }
  bool Equals(const Expr& other) const override {
    if (other.kind() != Kind::kIn) return false;
    const auto& rhs = static_cast<const InExpr&>(other);
    return column_ == rhs.column_ && values_ == rhs.values_;
  }
  Status ValidateAgainst(const Schema& schema) const override {
    return schema.FieldIndex(column_).status();
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(column_);
  }
  void CollectLiterals(std::vector<Value>* out) const override {
    for (const Value& v : values_) out->push_back(v);
  }

 private:
  std::string column_;
  std::vector<Value> values_;
};

}  // namespace

ExprPtr MakeTrue() { return std::make_shared<TrueExpr>(); }

ExprPtr MakeColumnRef(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr MakeLiteral(Value value) { return std::make_shared<LiteralExpr>(std::move(value)); }

ExprPtr MakeComparison(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  CHARLES_CHECK(lhs != nullptr && rhs != nullptr);
  return std::make_shared<ComparisonExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeColumnCompare(std::string column, CompareOp op, Value value) {
  return MakeComparison(op, MakeColumnRef(std::move(column)),
                        MakeLiteral(std::move(value)));
}

namespace {
ExprPtr MakeNaryLogical(Expr::Kind kind, std::vector<ExprPtr> operands) {
  // Flatten same-kind children so (a AND b) AND c prints as a AND b AND c.
  std::vector<ExprPtr> flat;
  for (ExprPtr& op : operands) {
    CHARLES_CHECK(op != nullptr);
    if (op->kind() == kind) {
      const auto& nested = static_cast<const NaryLogicalExpr&>(*op);
      flat.insert(flat.end(), nested.operands().begin(), nested.operands().end());
    } else if (op->kind() == Expr::Kind::kTrue && kind == Expr::Kind::kAnd) {
      continue;  // TRUE is the AND identity
    } else {
      flat.push_back(std::move(op));
    }
  }
  if (flat.empty()) return MakeTrue();
  if (flat.size() == 1) return flat[0];
  return std::make_shared<NaryLogicalExpr>(kind, std::move(flat));
}
}  // namespace

ExprPtr MakeAnd(std::vector<ExprPtr> operands) {
  return MakeNaryLogical(Expr::Kind::kAnd, std::move(operands));
}

ExprPtr MakeOr(std::vector<ExprPtr> operands) {
  return MakeNaryLogical(Expr::Kind::kOr, std::move(operands));
}

ExprPtr MakeNot(ExprPtr operand) {
  CHARLES_CHECK(operand != nullptr);
  return std::make_shared<NotExpr>(std::move(operand));
}

ExprPtr MakeIn(std::string column, std::vector<Value> values) {
  return std::make_shared<InExpr>(std::move(column), std::move(values));
}

Result<std::vector<bool>> EvaluateMask(const Table& table, const Expr& predicate) {
  CHARLES_RETURN_NOT_OK(predicate.ValidateAgainst(table.schema()));
  std::vector<bool> mask(static_cast<size_t>(table.num_rows()), false);
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    CHARLES_ASSIGN_OR_RETURN(Value v, predicate.Evaluate(table, row));
    if (v.kind() != TypeKind::kBool) {
      return Status::TypeError("predicate does not evaluate to bool: " +
                               predicate.ToString());
    }
    mask[static_cast<size_t>(row)] = v.boolean();
  }
  return mask;
}

Result<RowSet> FilterRows(const Table& table, const Expr& predicate) {
  CHARLES_ASSIGN_OR_RETURN(std::vector<bool> mask, EvaluateMask(table, predicate));
  return RowSet::FromMask(mask);
}

}  // namespace charles
