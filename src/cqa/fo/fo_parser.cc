#include "cqa/fo/fo_parser.h"

#include <cctype>
#include <string>

namespace cqa {

namespace {

class FoLexer {
 public:
  explicit FoLexer(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char PeekAt(size_t offset) {
    SkipSpace();
    return pos_ + offset < text_.size() ? text_[pos_ + offset] : '\0';
  }

  bool Consume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // True iff the next token is the whole identifier `word` (not consumed).
  bool PeekWord(std::string_view word) {
    SkipSpace();
    if (text_.substr(pos_).substr(0, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    return after >= text_.size() ||
           (!std::isalnum(static_cast<unsigned char>(text_[after])) &&
            text_[after] != '_');
  }

  // Consumes `word` only if it appears as a whole identifier.
  bool ConsumeWord(std::string_view word) {
    SkipSpace();
    if (text_.substr(pos_).substr(0, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }

  std::string ReadIdent() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '#')) {
      ++pos_;
    }
    if (pos_ > start &&
        std::isdigit(static_cast<unsigned char>(text_[start]))) {
      pos_ = start;
      return "";
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string ReadNumber() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  bool ReadQuoted(std::string* out) {
    if (!Consume('\'')) return false;
    std::string s;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '\'') {
        if (pos_ < text_.size() && text_[pos_] == '\'') {
          s += '\'';
          ++pos_;
          continue;
        }
        *out = s;
        return true;
      }
      s += c;
    }
    return false;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

class FoParser {
 public:
  explicit FoParser(std::string_view text) : lex_(text) {}

  Result<FoPtr> Parse() {
    Result<FoPtr> f = Quantified();
    if (!f.ok()) return f;
    if (!lex_.AtEnd()) {
      return Err("trailing input");
    }
    return f;
  }

 private:
  Result<FoPtr> Err(const std::string& message) {
    return Result<FoPtr>::Error(message + " at position " +
                                std::to_string(lex_.pos()));
  }

  // Parses one nesting level with `parse`. The grammar recurses once per
  // level, so the cap bounds the parser's stack.
  template <typename Parse>
  Result<FoPtr> Nested(Parse&& parse) {
    if (depth_ == kMaxFoNesting) {
      return Err("formula nested deeper than " +
                 std::to_string(kMaxFoNesting) + " levels");
    }
    ++depth_;
    Result<FoPtr> r = parse();
    --depth_;
    return r;
  }

  Result<Term> ParseTerm() {
    char c = lex_.Peek();
    if (c == '\'') {
      std::string s;
      if (!lex_.ReadQuoted(&s)) {
        return Result<Term>::Error("unterminated quoted constant");
      }
      return Term::Const(s);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return Term::Const(lex_.ReadNumber());
    }
    std::string ident = lex_.ReadIdent();
    if (ident.empty()) {
      return Result<Term>::Error("expected a term at position " +
                                 std::to_string(lex_.pos()));
    }
    return Term::Var(ident);
  }

  Result<FoPtr> Quantified() {
    bool exists = false;
    if (lex_.ConsumeWord("exists")) {
      exists = true;
    } else if (!lex_.ConsumeWord("forall")) {
      return Implies();
    }
    std::vector<Symbol> vars;
    while (lex_.Peek() != '.' && !lex_.AtEnd()) {
      std::string v = lex_.ReadIdent();
      if (v.empty()) return Err("expected a quantified variable");
      vars.push_back(InternSymbol(v));
    }
    if (!lex_.Consume('.')) return Err("expected '.' after quantifier");
    if (vars.empty()) return Err("quantifier binds no variables");
    Result<FoPtr> body = Nested([this] { return Quantified(); });
    if (!body.ok()) return body;
    return exists ? FoExists(vars, body.value())
                  : FoForall(vars, body.value());
  }

  Result<FoPtr> Implies() {
    Result<FoPtr> lhs = Or();
    if (!lhs.ok()) return lhs;
    if (lex_.Peek() == '-' && lex_.PeekAt(1) == '>') {
      lex_.Consume('-');
      lex_.Consume('>');
      // Right associative.
      Result<FoPtr> rhs = Nested([this] { return Implies(); });
      if (!rhs.ok()) return rhs;
      return FoImplies(lhs.value(), rhs.value());
    }
    return lhs;
  }

  Result<FoPtr> Or() {
    Result<FoPtr> first = And();
    if (!first.ok()) return first;
    std::vector<FoPtr> parts{first.value()};
    while (lex_.Peek() == '|') {
      lex_.Consume('|');
      Result<FoPtr> next = And();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return parts.size() == 1 ? parts[0] : FoOr(std::move(parts));
  }

  Result<FoPtr> And() {
    Result<FoPtr> first = Unary();
    if (!first.ok()) return first;
    std::vector<FoPtr> parts{first.value()};
    while (lex_.Peek() == '&') {
      lex_.Consume('&');
      Result<FoPtr> next = Unary();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return parts.size() == 1 ? parts[0] : FoAnd(std::move(parts));
  }

  Result<FoPtr> Unary() {
    // Quantifiers are allowed wherever a unary formula is expected; their
    // body extends as far right as possible.
    if (lex_.PeekWord("exists") || lex_.PeekWord("forall")) {
      return Quantified();
    }
    if (lex_.Peek() == '!' && lex_.PeekAt(1) != '=') {
      lex_.Consume('!');
      Result<FoPtr> inner = Nested([this] { return Unary(); });
      if (!inner.ok()) return inner;
      return FoNot(inner.value());
    }
    if (lex_.Consume('(')) {
      Result<FoPtr> inner = Nested([this] { return Quantified(); });
      if (!inner.ok()) return inner;
      if (!lex_.Consume(')')) return Err("expected ')'");
      return inner;
    }
    if (lex_.ConsumeWord("true")) return FoTrue();
    if (lex_.ConsumeWord("false")) return FoFalse();

    // Atom `Name(...)`, or a (dis)equality between two terms.
    char c = lex_.Peek();
    if (c != '\'' && !std::isdigit(static_cast<unsigned char>(c))) {
      std::string ident = lex_.ReadIdent();
      if (ident.empty()) return Err("expected a formula");
      if (lex_.Peek() == '(') return AtomBody(ident);
      return EqualityTail(Term::Var(ident));
    }
    Result<Term> lhs = ParseTerm();
    if (!lhs.ok()) return Result<FoPtr>::Error(lhs.error());
    return EqualityTail(lhs.value());
  }

  Result<FoPtr> EqualityTail(Term lhs) {
    bool negated = false;
    if (lex_.Peek() == '!' && lex_.PeekAt(1) == '=') {
      lex_.Consume('!');
      negated = true;
    }
    if (!lex_.Consume('=')) return Err("expected '=' or '!='");
    Result<Term> rhs = ParseTerm();
    if (!rhs.ok()) return Result<FoPtr>::Error(rhs.error());
    FoPtr eq = FoEquals(lhs, rhs.value());
    return negated ? FoNot(std::move(eq)) : eq;
  }

  Result<FoPtr> AtomBody(const std::string& relation) {
    if (!lex_.Consume('(')) return Err("expected '('");
    std::vector<Term> terms;
    int key_len = -1;
    while (true) {
      Result<Term> t = ParseTerm();
      if (!t.ok()) return Result<FoPtr>::Error(t.error());
      terms.push_back(t.value());
      if (lex_.Consume(',')) continue;
      if (lex_.Peek() == '|' && lex_.PeekAt(1) != '|') {
        lex_.Consume('|');
        if (key_len != -1) return Err("multiple '|' in atom");
        key_len = static_cast<int>(terms.size());
        continue;
      }
      if (lex_.Consume(')')) break;
      return Err("expected ',', '|' or ')' in atom");
    }
    if (key_len == -1) key_len = static_cast<int>(terms.size());
    return FoAtom(InternSymbol(relation), key_len, std::move(terms));
  }

  FoLexer lex_;
  int depth_ = 0;
};

}  // namespace

Result<FoPtr> ParseFo(std::string_view text) {
  Result<FoPtr> r = FoParser(text).Parse();
  // All failures from the FO parser are malformed input.
  if (!r.ok()) return Result<FoPtr>::Error(ErrorCode::kParse, r.error());
  return r;
}

}  // namespace cqa
