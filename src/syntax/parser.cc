#include "syntax/parser.h"

#include "common/str_util.h"
#include "object/value_io.h"
#include "syntax/lexer.h"

namespace idl {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // ---- Entry points --------------------------------------------------------

  Result<idl::Query> ParseQueryStmt() {
    IDL_ASSIGN_OR_RETURN(idl::Query q, ParseQueryBody());
    IDL_RETURN_IF_ERROR(ExpectEnd());
    return q;
  }

  Result<idl::Rule> ParseRuleStmt() {
    IDL_ASSIGN_OR_RETURN(Statement s, ParseStatement());
    if (s.kind != Statement::Kind::kRule) {
      return ParseError("expected a rule (head <- body)");
    }
    IDL_RETURN_IF_ERROR(ExpectEnd());
    return std::move(s.rule);
  }

  Result<ProgramClause> ParseClauseStmt() {
    IDL_ASSIGN_OR_RETURN(Statement s, ParseStatement());
    if (s.kind != Statement::Kind::kProgramClause) {
      return ParseError("expected an update program clause (head -> body)");
    }
    IDL_RETURN_IF_ERROR(ExpectEnd());
    return std::move(s.clause);
  }

  Result<std::vector<Statement>> ParseStatementsList() {
    std::vector<Statement> out;
    while (true) {
      while (Check(TokenKind::kSemicolon)) Next();
      if (Check(TokenKind::kEnd)) return out;
      IDL_ASSIGN_OR_RETURN(Statement s, ParseStatement());
      out.push_back(std::move(s));
      if (!Check(TokenKind::kSemicolon) && !Check(TokenKind::kEnd)) {
        return Unexpected("';' or end of input");
      }
    }
  }

  Result<ExprPtr> ParseExprStmt() {
    // Accepts comma-joined tuple items so `.a=1, .b=2` parses as one tuple
    // expression (matching how such text reads inside parentheses).
    IDL_ASSIGN_OR_RETURN(ExprPtr e, ParseInnerExpr());
    IDL_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  // ---- Token plumbing ------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool Consume(TokenKind kind) {
    if (Check(kind)) {
      Next();
      return true;
    }
    return false;
  }

  Status Unexpected(std::string_view expected) const {
    return ParseError(
        StrCat("expected ", expected, ", found ", Peek().Describe()));
  }

  // A parse error stamped with the current token position.
  Status ErrorAt(std::string_view what) const {
    return ParseError(
        StrCat(what, " (at ", Peek().line, ":", Peek().column, ")"));
  }

  // Runs `parse` one nesting level deeper. Every recursive production goes
  // through here, so input nested past kMaxNestingDepth fails with a
  // positioned error instead of exhausting the stack.
  template <typename Parse>
  auto Nested(Parse parse) -> decltype(parse()) {
    if (depth_ == kMaxNestingDepth) {
      return ErrorAt(StrCat("nesting deeper than ", kMaxNestingDepth));
    }
    ++depth_;
    auto result = parse();
    --depth_;
    return result;
  }

  Status Expect(TokenKind kind) {
    if (Consume(kind)) return Status::Ok();
    return Unexpected(TokenKindName(kind));
  }

  Status ExpectEnd() {
    if (Check(TokenKind::kEnd)) return Status::Ok();
    return Unexpected("end of input");
  }

  static bool IsRelOpToken(TokenKind k) {
    return k == TokenKind::kLt || k == TokenKind::kLe || k == TokenKind::kEq ||
           k == TokenKind::kNe || k == TokenKind::kGt || k == TokenKind::kGe;
  }

  static RelOp ToRelOp(TokenKind k) {
    switch (k) {
      case TokenKind::kLt:
        return RelOp::kLt;
      case TokenKind::kLe:
        return RelOp::kLe;
      case TokenKind::kEq:
        return RelOp::kEq;
      case TokenKind::kNe:
        return RelOp::kNe;
      case TokenKind::kGt:
        return RelOp::kGt;
      default:
        return RelOp::kGe;
    }
  }

  // True if the token at `ahead` can begin an expression.
  bool StartsExpr(size_t ahead = 0) const {
    TokenKind k = Peek(ahead).kind;
    if (k == TokenKind::kDot || k == TokenKind::kLParen ||
        k == TokenKind::kNeg || IsRelOpToken(k)) {
      return true;
    }
    if (k == TokenKind::kVariable && IsRelOpToken(Peek(ahead + 1).kind)) {
      return true;  // guard
    }
    if (k == TokenKind::kPlus || k == TokenKind::kMinus) {
      TokenKind n = Peek(ahead + 1).kind;
      return n == TokenKind::kDot || n == TokenKind::kLParen ||
             IsRelOpToken(n);
    }
    return false;
  }

  // ---- Statements ----------------------------------------------------------

  Result<Statement> ParseStatement() {
    Statement s;
    if (Check(TokenKind::kQuestion)) {
      IDL_ASSIGN_OR_RETURN(s.query, ParseQueryBody());
      s.kind = Statement::Kind::kQuery;
      return s;
    }
    // head <- body | head -> body.
    IDL_ASSIGN_OR_RETURN(ExprPtr head, ParseExpr());
    if (Consume(TokenKind::kLeftArrow)) {
      s.kind = Statement::Kind::kRule;
      s.rule.head = std::move(head);
      IDL_ASSIGN_OR_RETURN(s.rule.body, ParseConjunctList());
      return s;
    }
    if (Consume(TokenKind::kRightArrow)) {
      s.kind = Statement::Kind::kProgramClause;
      IDL_RETURN_IF_ERROR(ExtractProgramHead(*head, &s.clause));
      // A program body may be empty (no-op clause, §7.2's stubs).
      if (StartsExpr()) {
        IDL_ASSIGN_OR_RETURN(s.clause.body, ParseConjunctList());
      }
      return s;
    }
    return Unexpected("'<-' or '->' after statement head");
  }

  Result<idl::Query> ParseQueryBody() {
    IDL_RETURN_IF_ERROR(Expect(TokenKind::kQuestion));
    idl::Query q;
    IDL_ASSIGN_OR_RETURN(q.conjuncts, ParseConjunctList());
    return q;
  }

  Result<std::vector<ExprPtr>> ParseConjunctList() {
    std::vector<ExprPtr> out;
    while (true) {
      IDL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      if (e->kind == Expr::Kind::kEpsilon) {
        return Unexpected("a conjunct");
      }
      out.push_back(std::move(e));
      if (!Consume(TokenKind::kComma)) return out;
    }
  }

  // ---- Expressions ---------------------------------------------------------

  // Exp → [¬] [+|-] PExp, with the update prefix attaching to the atomic
  // expression, the set expression, or the first tuple item (left-to-right
  // precedence, §5.1).
  Result<ExprPtr> ParseExpr() {
    bool negated = Consume(TokenKind::kNeg);
    UpdateOp update = UpdateOp::kNone;
    if ((Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) &&
        (Peek(1).kind == TokenKind::kDot || Peek(1).kind == TokenKind::kLParen ||
         IsRelOpToken(Peek(1).kind))) {
      update =
          Next().kind == TokenKind::kPlus ? UpdateOp::kInsert : UpdateOp::kDelete;
    }
    IDL_ASSIGN_OR_RETURN(ExprPtr e, ParsePExp(update));
    e->negated = negated;
    if (negated && e->HasUpdate()) {
      return ErrorAt("an update expression cannot be negated");
    }
    return e;
  }

  // PExp → Aexp | Texp | Sexp | Guard | ε. The update prefix (already
  // consumed by the caller) is attached here according to what PExp turns
  // out to be. A leading variable starts a guard `Var relop Term` — the
  // informal construct of the paper's footnote 7 (`?.X.Y, X = ource`).
  Result<ExprPtr> ParsePExp(UpdateOp update) {
    if (Check(TokenKind::kDot)) return ParseTupleExpr(update);
    if (Check(TokenKind::kLParen)) return ParseSetExpr(update);
    if (IsRelOpToken(Peek().kind)) return ParseAtomicExpr(update);
    if (Check(TokenKind::kVariable) && IsRelOpToken(Peek(1).kind)) {
      if (update != UpdateOp::kNone) {
        return ErrorAt("a guard cannot carry an update operator");
      }
      std::string var = Next().text;
      RelOp op = ToRelOp(Next().kind);
      IDL_ASSIGN_OR_RETURN(Term t, ParseTerm());
      return Expr::Guard(std::move(var), op, std::move(t));
    }
    if (update != UpdateOp::kNone) {
      return Unexpected("an expression after the update operator");
    }
    return Expr::Epsilon();
  }

  // Texp → .Aname Exp {, [+|-] .Aname Exp}. `first_update` is an update
  // prefix that was written before the first '.', e.g. `-.S`.
  Result<ExprPtr> ParseTupleExpr(UpdateOp first_update) {
    std::vector<TupleItem> items;
    UpdateOp pending = first_update;
    while (true) {
      IDL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      TupleItem item;
      item.update = pending;
      pending = UpdateOp::kNone;
      if (Check(TokenKind::kIdent)) {
        item.attr = Next().text;
      } else if (Check(TokenKind::kVariable)) {
        item.attr_is_var = true;
        item.attr = Next().text;
      } else {
        return Unexpected("attribute name or variable after '.'");
      }
      if (StartsExpr()) {
        IDL_ASSIGN_OR_RETURN(item.expr, Nested([&] { return ParseExpr(); }));
      }
      items.push_back(std::move(item));
      // Further items of this same tuple expression appear only inside
      // parentheses; at top level ',' separates conjuncts. The caller
      // distinguishes: we continue only if ',' is followed by a tuple item
      // and we were invoked from inside a set expression (see ParseSetExpr).
      break;
    }
    return Expr::Tuple(std::move(items));
  }

  // Sexp → ( Exp ). The inner expression may be a multi-item tuple
  // expression: `(.date=D, .hp=50)`.
  Result<ExprPtr> ParseSetExpr(UpdateOp update) {
    IDL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    ExprPtr inner;
    if (Check(TokenKind::kRParen)) {
      inner = Expr::Epsilon();
    } else {
      IDL_ASSIGN_OR_RETURN(inner, Nested([&] { return ParseInnerExpr(); }));
    }
    IDL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Expr::Set(std::move(inner), update);
  }

  // The expression inside parentheses: a single expression, or a
  // comma-separated sequence of tuple items (and guards) merged into one
  // tuple expression.
  Result<ExprPtr> ParseInnerExpr() {
    IDL_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
    if (!Check(TokenKind::kComma)) return first;
    std::vector<TupleItem> items;
    IDL_RETURN_IF_ERROR(AppendInnerItems(std::move(first), &items));
    while (Consume(TokenKind::kComma)) {
      IDL_ASSIGN_OR_RETURN(ExprPtr next, ParseExpr());
      IDL_RETURN_IF_ERROR(AppendInnerItems(std::move(next), &items));
    }
    return Expr::Tuple(std::move(items));
  }

  Status AppendInnerItems(ExprPtr expr, std::vector<TupleItem>* items) {
    if (expr->kind == Expr::Kind::kTuple && !expr->negated) {
      for (auto& item : expr->items) items->push_back(std::move(item));
      return Status::Ok();
    }
    if (expr->kind == Expr::Kind::kAtomic && !expr->guard_var.empty()) {
      // Guard item: empty attribute name.
      items->push_back(TupleItem{UpdateOp::kNone, false, "", std::move(expr)});
      return Status::Ok();
    }
    return ErrorAt(
        "only tuple items and guards may be joined with ',' inside a set "
        "expression");
  }

  Result<ExprPtr> ParseAtomicExpr(UpdateOp update) {
    RelOp op = ToRelOp(Next().kind);
    IDL_ASSIGN_OR_RETURN(Term t, ParseTerm());
    return Expr::Atomic(op, std::move(t), update);
  }

  // ---- Terms (with arithmetic, footnote 8) ---------------------------------

  Result<Term> ParseTerm() {
    IDL_ASSIGN_OR_RETURN(Term lhs, ParseMulTerm());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      // `,.a+...` never reaches here: '+'/'-' after a complete term is
      // arithmetic only if an operand follows.
      if (!StartsTermOperand(1)) break;
      ArithOp op = Next().kind == TokenKind::kPlus ? ArithOp::kAdd : ArithOp::kSub;
      IDL_ASSIGN_OR_RETURN(Term rhs, ParseMulTerm());
      lhs = Term::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Term> ParseMulTerm() {
    IDL_ASSIGN_OR_RETURN(Term lhs, ParsePrimaryTerm());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash)) {
      ArithOp op = Next().kind == TokenKind::kStar ? ArithOp::kMul : ArithOp::kDiv;
      IDL_ASSIGN_OR_RETURN(Term rhs, ParsePrimaryTerm());
      lhs = Term::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  bool StartsTermOperand(size_t ahead) const {
    switch (Peek(ahead).kind) {
      case TokenKind::kInt:
      case TokenKind::kDouble:
      case TokenKind::kString:
      case TokenKind::kDate:
      case TokenKind::kIdent:
      case TokenKind::kVariable:
        return true;
      default:
        return false;
    }
  }

  Result<Term> ParsePrimaryTerm() {
    if (Consume(TokenKind::kMinus)) {
      IDL_ASSIGN_OR_RETURN(Term t, Nested([&] { return ParsePrimaryTerm(); }));
      return Term::Arith(ArithOp::kSub, Term::Const(Value::Int(0)),
                         std::move(t));
    }
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInt:
        Next();
        return Term::Const(Value::Int(tok.int_value));
      case TokenKind::kDouble:
        Next();
        return Term::Const(Value::Real(tok.double_value));
      case TokenKind::kString:
        Next();
        return Term::Const(Value::String(tok.text));
      case TokenKind::kDate:
        Next();
        return Term::Const(Value::Of(tok.date_value));
      case TokenKind::kVariable:
        Next();
        return Term::Var(tok.text);
      case TokenKind::kIdent: {
        Next();
        if (tok.text == "null") return Term::Const(Value::Null());
        if (tok.text == "true") return Term::Const(Value::Bool(true));
        if (tok.text == "false") return Term::Const(Value::Bool(false));
        return Term::Const(Value::String(tok.text));
      }
      default:
        return Unexpected("a constant or variable");
    }
  }

  // ---- Program heads -------------------------------------------------------

  // Decomposes `.dbU.delStk(.stk=S, .date=D)` or `.dbX.p+(...)` into the
  // program name path, the view-update op, and the parameter list.
  Status ExtractProgramHead(const Expr& head, ProgramClause* clause) {
    const Expr* cur = &head;
    while (true) {
      if (cur->kind != Expr::Kind::kTuple || cur->items.size() != 1) {
        return ParseError(
            "program head must be a path of attribute names, e.g. "
            ".dbU.delStk(.stk=S)");
      }
      const TupleItem& item = cur->items[0];
      if (item.attr_is_var) {
        return ParseError("program head path must not contain variables");
      }
      if (item.update != UpdateOp::kNone) {
        return ParseError("program head path must not contain update markers");
      }
      clause->name_path.push_back(item.attr);
      if (item.expr == nullptr) return Status::Ok();  // no parameters
      if (item.expr->kind == Expr::Kind::kTuple) {
        cur = item.expr.get();
        continue;
      }
      if (item.expr->kind == Expr::Kind::kSet) {
        clause->view_op = item.expr->update;
        return ExtractParams(*item.expr, clause);
      }
      return ParseError("program head must end in a parameter tuple");
    }
  }

  Status ExtractParams(const Expr& set_expr, ProgramClause* clause) {
    const Expr* inner = set_expr.set_inner.get();
    if (inner == nullptr || inner->kind == Expr::Kind::kEpsilon) {
      return Status::Ok();
    }
    if (inner->kind != Expr::Kind::kTuple) {
      return ParseError("program parameters must be .name=Variable pairs");
    }
    for (const TupleItem& item : inner->items) {
      if (item.attr_is_var || item.update != UpdateOp::kNone ||
          item.expr == nullptr || item.expr->kind != Expr::Kind::kAtomic ||
          item.expr->negated || item.expr->relop != RelOp::kEq ||
          item.expr->update != UpdateOp::kNone ||
          item.expr->term.kind != Term::Kind::kVar) {
        return ParseError("program parameters must be .name=Variable pairs");
      }
      clause->params.push_back(
          ProgramClause::Param{item.attr, item.expr->term.var});
    }
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // enclosing Nested() productions
};

Result<Parser> MakeParser(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens));
}

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(Parser p, MakeParser(text));
  return p.ParseQueryStmt();
}

Result<Rule> ParseRule(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(Parser p, MakeParser(text));
  IDL_ASSIGN_OR_RETURN(Rule r, p.ParseRuleStmt());
  r.source = std::string(text);
  return r;
}

Result<ProgramClause> ParseProgramClause(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(Parser p, MakeParser(text));
  IDL_ASSIGN_OR_RETURN(ProgramClause c, p.ParseClauseStmt());
  c.source = std::string(text);
  return c;
}

Result<std::vector<Statement>> ParseStatements(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(Parser p, MakeParser(text));
  return p.ParseStatementsList();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  IDL_ASSIGN_OR_RETURN(Parser p, MakeParser(text));
  return p.ParseExprStmt();
}

}  // namespace idl
