#ifndef CHARLES_EXPR_PARSER_H_
#define CHARLES_EXPR_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "expr/expr.h"

namespace charles {

/// \brief Parses the condition mini-language into an Expr.
///
/// Grammar (case-insensitive keywords):
///
///   expr        := or_expr
///   or_expr     := and_expr ( OR and_expr )*
///   and_expr    := unary ( AND unary )*
///   unary       := NOT unary | primary
///   primary     := '(' expr ')' | TRUE | predicate
///   predicate   := operand cmp operand | identifier IN '(' literal-list ')'
///   operand     := identifier | literal
///   cmp         := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
///   literal     := number | 'single-quoted string' | true | false | NULL
///   identifier  := [A-Za-z_][A-Za-z0-9_.]* or `backquoted name`
///
/// A backquoted name is always a column, never a keyword or literal; a
/// backquote inside it is written doubled, as a quote inside a string is.
///
/// The printer (Expr::ToString) emits this grammar, so
/// ParseExpr(e->ToString())->Equals(*e) holds for every constructible tree.
Result<ExprPtr> ParseExpr(std::string_view input);

}  // namespace charles

#endif  // CHARLES_EXPR_PARSER_H_
