#include "api/parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "lineage/monte_carlo.h"

namespace tpdb {

namespace {

std::string Upper(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

// -- Tokenizer ------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  bool is_double = false;  // kNumber: had a '.' or exponent
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
// '-' continues an identifier so that derived relation names like
// "wants_left-outer_hotels" stay addressable; the language has no
// arithmetic, and a leading '-' (negative literal) is still a symbol.
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

StatusOr<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(text[j])) ++j;
      tokens.push_back({TokKind::kIdent, text.substr(i, j - i)});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const auto digit = [&text, n](size_t at) {
        return at < n && std::isdigit(static_cast<unsigned char>(text[at]));
      };
      size_t j = i;
      int dots = 0;
      while (digit(j) || (j < n && text[j] == '.')) {
        if (text[j] == '.') ++dots;
        ++j;
      }
      bool well_formed = dots <= 1;
      const bool exponent = j < n && (text[j] == 'e' || text[j] == 'E');
      if (exponent) {  // [eE][+-]?digits
        ++j;
        if (j < n && (text[j] == '+' || text[j] == '-')) ++j;
        well_formed = well_formed && digit(j);
        while (digit(j)) ++j;
      }
      if (!well_formed)
        return Status::InvalidArgument("malformed number '" +
                                       text.substr(i, j - i) + "'");
      tokens.push_back(
          {TokKind::kNumber, text.substr(i, j - i), dots > 0 || exponent});
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      while (j < n) {
        if (text[j] == '\'') {
          if (j + 1 < n && text[j + 1] == '\'') {  // SQL-style '' escape
            value.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        value.push_back(text[j++]);
      }
      if (j >= n)
        return Status::InvalidArgument("unterminated string literal in '" +
                                       text + "'");
      tokens.push_back({TokKind::kString, std::move(value)});
      i = j + 1;
      continue;
    }
    // Two-character comparison symbols first.
    if (i + 1 < n) {
      const std::string two = text.substr(i, 2);
      if (two == ">=" || two == "<=" || two == "!=" || two == "<>") {
        tokens.push_back({TokKind::kSymbol, two});
        i += 2;
        continue;
      }
    }
    if (c == '(' || c == ')' || c == ',' || c == '=' || c == '<' ||
        c == '>' || c == '*' || c == '-') {
      tokens.push_back({TokKind::kSymbol, std::string(1, c)});
      ++i;
      continue;
    }
    return Status::InvalidArgument(std::string("unexpected character '") +
                                   c + "' in query");
  }
  tokens.push_back({TokKind::kEnd, "<end>"});
  return tokens;
}

// -- Parser ---------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ParsedStatement> ParseTopLevel() {
    ParsedStatement stmt;
    if ((IsKeyword("SAVE") || IsKeyword("LOAD")) && IsKeyword("SNAPSHOT", 1)) {
      stmt.kind = IsKeyword("SAVE") ? StatementKind::kSaveSnapshot
                                    : StatementKind::kLoadSnapshot;
      Advance();  // SAVE / LOAD
      Advance();  // SNAPSHOT
      const Token& path = Peek();
      if (path.kind != TokKind::kString)
        return Status::InvalidArgument(
            "expected quoted snapshot path, found '" + path.text + "'");
      stmt.snapshot_path = path.text;
      Advance();
      if (Peek().kind != TokKind::kEnd)
        return Status::InvalidArgument("trailing tokens at '" + Peek().text +
                                       "'");
      return stmt;
    }
    StatusOr<SelectStatement> select = ParseStatement();
    if (!select.ok()) return select.status();
    stmt.kind = StatementKind::kSelect;
    stmt.select = std::move(*select);
    return stmt;
  }

  StatusOr<SelectStatement> ParseStatement() {
    SelectStatement stmt;
    if (IsKeyword("SELECT")) {
      StatusOr<SelectCore> core = ParseSelectCore();
      if (!core.ok()) return core.status();
      stmt.core = std::move(*core);
      TPDB_RETURN_IF_ERROR(ParseSetOps(&stmt));
      TPDB_RETURN_IF_ERROR(ParseModifiers(&stmt));
    } else {
      TPDB_RETURN_IF_ERROR(ParseLegacy(&stmt));
    }
    if (Peek().kind != TokKind::kEnd)
      return Status::InvalidArgument("trailing tokens at '" + Peek().text +
                                     "'");
    return stmt;
  }

  StatusOr<AstExprPtr> ParseStandalonePredicate() {
    StatusOr<AstExprPtr> pred = ParseOrExpr();
    if (!pred.ok()) return pred.status();
    if (Peek().kind != TokKind::kEnd)
      return Status::InvalidArgument("trailing tokens at '" + Peek().text +
                                     "' in predicate");
    return pred;
  }

 private:
  const Token& Peek(size_t offset = 0) const {
    const size_t i = pos_ + offset;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }

  bool IsKeyword(const char* kw, size_t offset = 0) const {
    const Token& t = Peek(offset);
    return t.kind == TokKind::kIdent && Upper(t.text) == kw;
  }
  bool MatchKeyword(const char* kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const char* kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Status::InvalidArgument(std::string("expected ") + kw +
                                   ", found '" + Peek().text + "'");
  }
  bool MatchSymbol(const char* sym) {
    const Token& t = Peek();
    if (t.kind != TokKind::kSymbol || t.text != sym) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(const char* sym) {
    if (MatchSymbol(sym)) return Status::OK();
    return Status::InvalidArgument(std::string("expected '") + sym +
                                   "', found '" + Peek().text + "'");
  }
  StatusOr<std::string> ExpectIdent(const char* what) {
    const Token& t = Peek();
    if (t.kind != TokKind::kIdent)
      return Status::InvalidArgument(std::string("expected ") + what +
                                     ", found '" + t.text + "'");
    std::string name = t.text;
    Advance();
    return name;
  }

  bool PeekJoinKind(TPJoinKind* kind) const {
    if (Peek().kind != TokKind::kIdent) return false;
    const std::string kw = Upper(Peek().text);
    if (kw == "INNER") *kind = TPJoinKind::kInner;
    else if (kw == "LEFT") *kind = TPJoinKind::kLeftOuter;
    else if (kw == "RIGHT") *kind = TPJoinKind::kRightOuter;
    else if (kw == "FULL") *kind = TPJoinKind::kFullOuter;
    else if (kw == "ANTI") *kind = TPJoinKind::kAnti;
    else if (kw == "SEMI") *kind = TPJoinKind::kSemi;
    else return false;
    return true;
  }

  bool AtJoinClause() const {
    TPJoinKind kind;
    return IsKeyword("JOIN") || (PeekJoinKind(&kind) && IsKeyword("JOIN", 1)) ||
           (PeekJoinKind(&kind) && IsKeyword("OUTER", 1) &&
            IsKeyword("JOIN", 2));
  }

  /// Parses "[kind] [OUTER] JOIN <rel> ON <terms> [USING TA]" starting at
  /// the kind-or-JOIN token.
  StatusOr<JoinClause> ParseJoinClause() {
    JoinClause join;
    if (!MatchKeyword("JOIN")) {
      if (!PeekJoinKind(&join.kind))
        return Status::InvalidArgument("unknown join kind '" + Peek().text +
                                       "'");
      Advance();
      MatchKeyword("OUTER");
      TPDB_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
    }
    StatusOr<std::string> rel = ExpectIdent("relation after JOIN");
    if (!rel.ok()) return rel.status();
    join.relation = std::move(*rel);
    TPDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
    // θ terms: col or col=col, separated by ',' or AND.
    do {
      StatusOr<std::string> left = ExpectIdent("join column after ON");
      if (!left.ok()) return left.status();
      std::string right = *left;
      if (MatchSymbol("=")) {
        StatusOr<std::string> r = ExpectIdent("right join column");
        if (!r.ok()) return r.status();
        right = std::move(*r);
      }
      join.on.emplace_back(std::move(*left), std::move(right));
    } while (MatchSymbol(",") || MatchKeyword("AND"));
    if (MatchKeyword("USING")) {
      TPDB_RETURN_IF_ERROR(ExpectKeyword("TA"));
      join.using_ta = true;
    }
    return join;
  }

  StatusOr<SelectItem> ParseSelectItem() {
    StatusOr<std::string> name = ExpectIdent("select-list entry");
    if (!name.ok()) return name.status();
    SelectItem item;
    const std::string upper = Upper(*name);
    const bool is_agg_fn = upper == "COUNT" || upper == "SUM" ||
                           upper == "MIN" || upper == "MAX";
    if (is_agg_fn && Peek().kind == TokKind::kSymbol && Peek().text == "(") {
      Advance();
      item.is_aggregate = true;
      if (upper == "COUNT") item.fn = AggFn::kCount;
      else if (upper == "SUM") item.fn = AggFn::kSum;
      else if (upper == "MIN") item.fn = AggFn::kMin;
      else item.fn = AggFn::kMax;
      if (MatchSymbol("*")) {
        if (item.fn != AggFn::kCount)
          return Status::InvalidArgument(upper +
                                         "(*) is only valid for COUNT");
        item.column = "*";
      } else {
        StatusOr<std::string> col = ExpectIdent("aggregate argument");
        if (!col.ok()) return col.status();
        item.column = std::move(*col);
      }
      TPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
    } else {
      item.column = std::move(*name);
    }
    if (MatchKeyword("AS")) {
      StatusOr<std::string> alias = ExpectIdent("alias after AS");
      if (!alias.ok()) return alias.status();
      item.alias = std::move(*alias);
    }
    return item;
  }

  StatusOr<SelectCore> ParseSelectCore() {
    SelectCore core;
    TPDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (!MatchSymbol("*")) {
      do {
        StatusOr<SelectItem> item = ParseSelectItem();
        if (!item.ok()) return item.status();
        core.items.push_back(std::move(*item));
      } while (MatchSymbol(","));
    }
    TPDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    StatusOr<std::string> from = ExpectIdent("relation after FROM");
    if (!from.ok()) return from.status();
    core.from = std::move(*from);
    while (AtJoinClause()) {
      StatusOr<JoinClause> join = ParseJoinClause();
      if (!join.ok()) return join.status();
      core.joins.push_back(std::move(*join));
    }
    if (MatchKeyword("WHERE")) {
      StatusOr<AstExprPtr> pred = ParseOrExpr();
      if (!pred.ok()) return pred.status();
      core.where = std::move(*pred);
    }
    if (MatchKeyword("GROUP")) {
      TPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        StatusOr<std::string> col = ExpectIdent("GROUP BY column");
        if (!col.ok()) return col.status();
        core.group_by.push_back(std::move(*col));
      } while (MatchSymbol(","));
    }
    return core;
  }

  Status ParseSetOps(SelectStatement* stmt) {
    while (true) {
      SetOpKind kind;
      if (MatchKeyword("UNION")) kind = SetOpKind::kUnion;
      else if (MatchKeyword("INTERSECT")) kind = SetOpKind::kIntersect;
      else if (MatchKeyword("EXCEPT")) kind = SetOpKind::kExcept;
      else return Status::OK();
      if (IsKeyword("SELECT")) {
        StatusOr<SelectCore> core = ParseSelectCore();
        if (!core.ok()) return core.status();
        stmt->set_ops.emplace_back(kind, std::move(*core));
      } else {
        StatusOr<std::string> rel = ExpectIdent("relation after set op");
        if (!rel.ok()) return rel.status();
        SelectCore core;
        core.from = std::move(*rel);
        stmt->set_ops.emplace_back(kind, std::move(core));
      }
    }
  }

  Status ParseModifiers(SelectStatement* stmt) {
    if (MatchKeyword("ORDER")) {
      TPDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        StatusOr<std::string> col = ExpectIdent("ORDER BY column");
        if (!col.ok()) return col.status();
        OrderItem item;
        item.column = std::move(*col);
        if (MatchKeyword("DESC")) item.ascending = false;
        else MatchKeyword("ASC");
        stmt->order_by.push_back(std::move(item));
      } while (MatchSymbol(","));
    }
    if (MatchKeyword("LIMIT")) {
      StatusOr<int64_t> n = ExpectInteger("LIMIT");
      if (!n.ok()) return n.status();
      stmt->limit = *n;
      if (MatchKeyword("OFFSET")) {
        StatusOr<int64_t> off = ExpectInteger("OFFSET");
        if (!off.ok()) return off.status();
        stmt->offset = *off;
      }
    }
    if (MatchKeyword("WITH")) {
      TPDB_RETURN_IF_ERROR(ExpectKeyword("PROB"));
      if (MatchKeyword("APPROX")) {
        if (!MatchSymbol("("))
          return Status::InvalidArgument("expected ( after APPROX");
        StatusOr<double> eps = ExpectNumber("APPROX epsilon");
        if (!eps.ok()) return eps.status();
        if (!MatchSymbol(","))
          return Status::InvalidArgument("expected , in APPROX(eps, delta)");
        StatusOr<double> delta = ExpectNumber("APPROX delta");
        if (!delta.ok()) return delta.status();
        if (!MatchSymbol(")"))
          return Status::InvalidArgument("expected ) after APPROX(eps, delta");
        TPDB_RETURN_IF_ERROR(ValidateApproxContract(*eps, *delta));
        stmt->approx_eps = *eps;
        stmt->approx_delta = *delta;
      }
      if (MatchSymbol(">=")) stmt->min_prob_strict = false;
      else if (MatchSymbol(">")) stmt->min_prob_strict = true;
      else
        return Status::InvalidArgument("expected >= or > after WITH PROB");
      const Token& t = Peek();
      if (t.kind != TokKind::kNumber)
        return Status::InvalidArgument("expected probability after WITH "
                                       "PROB, found '" + t.text + "'");
      StatusOr<double> min_prob = NumberValue(t);
      if (!min_prob.ok()) return min_prob.status();
      stmt->min_prob = *min_prob;
      Advance();
    }
    return Status::OK();
  }

  StatusOr<int64_t> ExpectInteger(const char* what) {
    const Token& t = Peek();
    if (t.kind != TokKind::kNumber || t.is_double)
      return Status::InvalidArgument(std::string("expected integer after ") +
                                     what + ", found '" + t.text + "'");
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(t.text.c_str(), &end, 10);
    if (errno == ERANGE || v < 0)
      return Status::OutOfRange(std::string(what) + " value '" + t.text +
                                "' is out of range");
    Advance();
    return static_cast<int64_t>(v);
  }

  StatusOr<double> ExpectNumber(const char* what) {
    const Token& t = Peek();
    if (t.kind != TokKind::kNumber)
      return Status::InvalidArgument(std::string("expected number after ") +
                                     what + ", found '" + t.text + "'");
    StatusOr<double> v = NumberValue(t);
    if (v.ok()) Advance();
    return v;
  }

  /// A number token's value as a double; one that overflows is an error.
  static StatusOr<double> NumberValue(const Token& t) {
    const double v = std::strtod(t.text.c_str(), nullptr);
    if (!std::isfinite(v))
      return Status::InvalidArgument("number '" + t.text +
                                     "' is out of range");
    return v;
  }

  // Legacy grammar: "<rel> [kind] JOIN <rel> ON <terms> [USING TA]" and
  // "<rel> UNION|INTERSECT|EXCEPT <rel>".
  Status ParseLegacy(SelectStatement* stmt) {
    if (Peek().kind == TokKind::kEnd)
      return Status::InvalidArgument("empty query");
    StatusOr<std::string> left = ExpectIdent("relation");
    if (!left.ok()) return left.status();
    stmt->core.from = std::move(*left);

    SetOpKind set_kind;
    if (MatchKeyword("UNION")) set_kind = SetOpKind::kUnion;
    else if (MatchKeyword("INTERSECT")) set_kind = SetOpKind::kIntersect;
    else if (MatchKeyword("EXCEPT")) set_kind = SetOpKind::kExcept;
    else {
      if (!AtJoinClause())
        return Status::InvalidArgument(
            "expected JOIN or set operation, found '" + Peek().text + "'");
      StatusOr<JoinClause> join = ParseJoinClause();
      if (!join.ok()) return join.status();
      stmt->core.joins.push_back(std::move(*join));
      return Status::OK();
    }
    StatusOr<std::string> right = ExpectIdent("relation after set op");
    if (!right.ok()) return right.status();
    SelectCore other;
    other.from = std::move(*right);
    stmt->set_ops.emplace_back(set_kind, std::move(other));
    return Status::OK();
  }

  // -- Predicates ---------------------------------------------------------

  StatusOr<AstExprPtr> ParseOrExpr() {
    StatusOr<AstExprPtr> a = ParseAndExpr();
    if (!a.ok()) return a.status();
    AstExprPtr expr = std::move(*a);
    while (MatchKeyword("OR")) {
      StatusOr<AstExprPtr> b = ParseAndExpr();
      if (!b.ok()) return b.status();
      expr = AstOr(std::move(expr), std::move(*b));
    }
    return expr;
  }

  StatusOr<AstExprPtr> ParseAndExpr() {
    StatusOr<AstExprPtr> a = ParseUnaryExpr();
    if (!a.ok()) return a.status();
    AstExprPtr expr = std::move(*a);
    while (MatchKeyword("AND")) {
      StatusOr<AstExprPtr> b = ParseUnaryExpr();
      if (!b.ok()) return b.status();
      expr = AstAnd(std::move(expr), std::move(*b));
    }
    return expr;
  }

  StatusOr<AstExprPtr> ParseUnaryExpr() {
    if (MatchKeyword("NOT")) {
      StatusOr<AstExprPtr> a = ParseUnaryExpr();
      if (!a.ok()) return a.status();
      return AstNot(std::move(*a));
    }
    return ParsePrimaryExpr();
  }

  StatusOr<AstExprPtr> ParsePrimaryExpr() {
    if (MatchSymbol("(")) {
      StatusOr<AstExprPtr> e = ParseOrExpr();
      if (!e.ok()) return e.status();
      TPDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    StatusOr<AstExprPtr> lhs = ParseOperand();
    if (!lhs.ok()) return lhs.status();
    if (MatchKeyword("IS")) {
      const bool negated = MatchKeyword("NOT");
      TPDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      AstExprPtr e = AstIsNull(std::move(*lhs));
      return negated ? AstNot(std::move(e)) : e;
    }
    CompareOp op;
    if (MatchSymbol("=")) op = CompareOp::kEq;
    else if (MatchSymbol("!=") || MatchSymbol("<>")) op = CompareOp::kNe;
    else if (MatchSymbol("<=")) op = CompareOp::kLe;
    else if (MatchSymbol(">=")) op = CompareOp::kGe;
    else if (MatchSymbol("<")) op = CompareOp::kLt;
    else if (MatchSymbol(">")) op = CompareOp::kGt;
    else
      return Status::InvalidArgument(
          "expected comparison operator, found '" + Peek().text + "'");
    StatusOr<AstExprPtr> rhs = ParseOperand();
    if (!rhs.ok()) return rhs.status();
    return AstCompare(op, std::move(*lhs), std::move(*rhs));
  }

  StatusOr<AstExprPtr> ParseOperand() {
    const Token& t = Peek();
    if (t.kind == TokKind::kIdent) {
      std::string name = t.text;
      Advance();
      return AstColumn(std::move(name));
    }
    if (t.kind == TokKind::kString) {
      std::string value = t.text;
      Advance();
      return AstLiteral(Datum(std::move(value)));
    }
    bool negate = false;
    if (t.kind == TokKind::kSymbol && t.text == "-") {
      negate = true;
      Advance();
    }
    const Token& num = Peek();
    if (num.kind != TokKind::kNumber)
      return Status::InvalidArgument("expected column, literal or number, "
                                     "found '" + num.text + "'");
    if (num.is_double) {
      StatusOr<double> v = NumberValue(num);
      if (!v.ok()) return v.status();
      Advance();
      return AstLiteral(Datum(negate ? -*v : *v));
    }
    // The sign is part of the conversion, so INT64_MIN is representable.
    const std::string digits = (negate ? "-" : "") + num.text;
    errno = 0;
    const long long v = std::strtoll(digits.c_str(), nullptr, 10);
    if (errno == ERANGE)
      return Status::InvalidArgument("integer '" + digits +
                                     "' is outside int64");
    Advance();
    return AstLiteral(Datum(static_cast<int64_t>(v)));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<SelectStatement> ParseQuery(const std::string& text) {
  StatusOr<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  if (tokens->size() <= 1)
    return Status::InvalidArgument("empty query");
  Parser parser(std::move(*tokens));
  return parser.ParseStatement();
}

StatusOr<ParsedStatement> ParseStatement(const std::string& text) {
  StatusOr<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  if (tokens->size() <= 1)
    return Status::InvalidArgument("empty query");
  Parser parser(std::move(*tokens));
  return parser.ParseTopLevel();
}

StatusOr<AstExprPtr> ParsePredicate(const std::string& text) {
  StatusOr<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.status();
  if (tokens->size() <= 1)
    return Status::InvalidArgument("empty predicate");
  Parser parser(std::move(*tokens));
  return parser.ParseStandalonePredicate();
}

}  // namespace tpdb
