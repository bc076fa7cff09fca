#ifndef CQA_FO_FO_PARSER_H_
#define CQA_FO_FO_PARSER_H_

#include <string_view>

#include "cqa/base/result.h"
#include "cqa/fo/formula.h"

namespace cqa {

/// Parses a first-order formula from text — the inverse of `Fo::ToString`,
/// so formulas round-trip. Grammar (precedence low → high):
///
///   formula  := quantified
///   quantified := ("exists" | "forall") VAR+ "." quantified | implies
///   implies  := or ("->" implies)?                -- right associative
///   or       := and ("|" and)*
///   and      := unary ("&" unary)*
///   unary    := "!" unary | "true" | "false" | "(" formula ")"
///             | atom | term ("=" | "!=") term
///   atom     := NAME "(" term ("," | "|" term)* ")"   -- "|" marks the key
///   term     := IDENT | "'" chars "'" | NUMBER
///
/// Identifiers are variables inside terms; atom key separators follow the
/// query parser's convention (no "|" → all-key).
///
/// Each parenthesis, negation, quantifier body and implication right-hand
/// side opens one nesting level. Input nested deeper than `kMaxFoNesting`
/// levels fails with `kParse`, so parsing needs bounded stack.
inline constexpr int kMaxFoNesting = 128;
Result<FoPtr> ParseFo(std::string_view text);

}  // namespace cqa

#endif  // CQA_FO_FO_PARSER_H_
