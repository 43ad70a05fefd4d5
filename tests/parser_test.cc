#include "syntax/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "object/value_io.h"
#include "syntax/analysis.h"
#include "syntax/printer.h"

namespace idl {
namespace {

// Every expression/query/rule/program written in the paper (Sections 4-7).
const char* kPaperQueries[] = {
    "?.euter.r(.stkCode=hp, .clsPrice>60)",
    "?.euter.r(.stkCode=hp,.clsPrice>150,.date=D),"
    ".euter.r(.stkCode=ibm,.clsPrice>150,.date=D)",
    "?.euter.r(.stkCode=hp,.clsPrice=P,.date=D),"
    ".euter.r!(.stkCode=hp, .clsPrice>P)",
    "?.euter.r(.stkCode=S, .clsPrice>200)",
    "?.ource.Y",
    "?.X.Y, X = ource",
    "?.X.Y",
    "?.X.hp",
    "?.X.Y(.stkCode)",
    "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
    "?.euter.Y, .chwab.Y, .ource.Y",
    "?.chwab.r(.S>200)",
    "?.ource.S(.clsPrice > 200)",
    "?.chwab.r(.date=3/3/85,.hp = 50)",
};

const char* kPaperUpdates[] = {
    "?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)",
    "?.euter.r-(.date=3/3/85,.stkCode=hp)",
    "?.euter.r(.date=3/3/85,.stkCode=hp,.clsPrice=C),"
    ".euter.r-(.date=3/3/85,.stkCode=hp,.clsPrice=C)",
    "?.chwab.r(.date=3/3/85, .hp=C), .chwab.r(.date=3/3/85, -.hp=C)",
    "?.chwab.r(.date=3/3/85, .hp-=C)",
    "?.chwab.r-(.date=3/3/85,.hp=C), .chwab.r+(.date=3/3/85,.hp=C+10)",
};

TEST(ParserTest, PaperQueriesParse) {
  for (const char* text : kPaperQueries) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  }
}

TEST(ParserTest, PaperUpdatesParse) {
  for (const char* text : kPaperUpdates) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    auto info = AnalyzeQuery(*q);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->is_update_request) << text;
  }
}

TEST(ParserTest, QueriesAreNotUpdateRequests) {
  for (const char* text : kPaperQueries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    auto info = AnalyzeQuery(*q);
    ASSERT_TRUE(info.ok());
    EXPECT_FALSE(info->is_update_request) << text;
  }
}

TEST(ParserTest, RoundTripThroughPrinter) {
  for (const char* text : kPaperQueries) {
    auto q1 = ParseQuery(text);
    ASSERT_TRUE(q1.ok()) << text;
    std::string printed = ToString(*q1);
    auto q2 = ParseQuery(printed);
    ASSERT_TRUE(q2.ok()) << printed;
    EXPECT_EQ(printed, ToString(*q2)) << "unstable print for " << text;
  }
  for (const char* text : kPaperUpdates) {
    auto q1 = ParseQuery(text);
    ASSERT_TRUE(q1.ok()) << text;
    std::string printed = ToString(*q1);
    auto q2 = ParseQuery(printed);
    ASSERT_TRUE(q2.ok()) << printed;
    EXPECT_EQ(printed, ToString(*q2)) << "unstable print for " << text;
  }
}

TEST(ParserTest, HigherOrderVariablesMarked) {
  auto q = ParseQuery("?.chwab.r(.S>200)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->conjuncts[0]->HasHigherOrderVar());
  auto q2 = ParseQuery("?.euter.r(.stkCode=S)");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(q2->conjuncts[0]->HasHigherOrderVar());
}

TEST(ParserTest, NegationBindsToItemExpression) {
  auto q = ParseQuery("?.euter.r!(.stkCode=hp)");
  ASSERT_TRUE(q.ok());
  const Expr& conjunct = *q->conjuncts[0];
  ASSERT_EQ(conjunct.kind, Expr::Kind::kTuple);
  const Expr& r_expr = *conjunct.items[0].expr->items[0].expr;
  EXPECT_TRUE(r_expr.negated);
  EXPECT_EQ(r_expr.kind, Expr::Kind::kSet);
}

TEST(ParserTest, UpdatePrefixAttachment) {
  // Set insert.
  auto q = ParseQuery("?.euter.r+(.stkCode=hp)");
  ASSERT_TRUE(q.ok());
  const Expr& set_expr =
      *q->conjuncts[0]->items[0].expr->items[0].expr;
  EXPECT_EQ(set_expr.kind, Expr::Kind::kSet);
  EXPECT_EQ(set_expr.update, UpdateOp::kInsert);

  // Tuple-item delete.
  auto q2 = ParseQuery("?.chwab.r(.date=3/3/85, -.hp=C)");
  ASSERT_TRUE(q2.ok());
  const Expr& inner = *q2->conjuncts[0]->items[0].expr->items[0].expr->set_inner;
  ASSERT_EQ(inner.kind, Expr::Kind::kTuple);
  ASSERT_EQ(inner.items.size(), 2u);
  EXPECT_EQ(inner.items[1].update, UpdateOp::kDelete);
  EXPECT_EQ(inner.items[1].attr, "hp");

  // Atomic delete shorthand `.hp-=C`.
  auto q3 = ParseQuery("?.chwab.r(.hp-=C)");
  ASSERT_TRUE(q3.ok());
  const Expr& atom =
      *q3->conjuncts[0]->items[0].expr->items[0].expr->set_inner->items[0]
           .expr;
  EXPECT_EQ(atom.kind, Expr::Kind::kAtomic);
  EXPECT_EQ(atom.update, UpdateOp::kDelete);
}

TEST(ParserTest, ArithmeticTerms) {
  auto q = ParseQuery("?.chwab.r(.hp=C+10*2)");
  ASSERT_TRUE(q.ok());
  const Expr& atom =
      *q->conjuncts[0]->items[0].expr->items[0].expr->set_inner->items[0].expr;
  ASSERT_EQ(atom.term.kind, Term::Kind::kArith);
  EXPECT_EQ(atom.term.op, ArithOp::kAdd);  // * binds tighter
}

TEST(ParserTest, GuardConjunct) {
  auto q = ParseQuery("?.chwab.r(.S=P), S != date");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->conjuncts.size(), 2u);
  const Expr& guard = *q->conjuncts[1];
  EXPECT_EQ(guard.kind, Expr::Kind::kAtomic);
  EXPECT_EQ(guard.guard_var, "S");
  EXPECT_EQ(guard.relop, RelOp::kNe);
}

TEST(ParserTest, RuleParses) {
  auto r = ParseRule(
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      ".euter.r(.date=D, .stkCode=S, .clsPrice=P)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ValidateRule(*r).ok());
  // Higher-order head.
  auto r2 = ParseRule(
      ".dbO.S(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .clsPrice=P)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(ValidateRule(*r2).ok());
}

TEST(ParserTest, RuleValidationRejectsUnboundHeadVar) {
  auto r = ParseRule(".dbI.p(.stk=S) <- .euter.r(.date=D)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ValidateRule(*r).code(), StatusCode::kUnsafe);
}

TEST(ParserTest, ProgramClauseParses) {
  auto c = ParseProgramClause(
      ".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->name_path, (std::vector<std::string>{"dbU", "delStk"}));
  EXPECT_EQ(c->view_op, UpdateOp::kNone);
  ASSERT_EQ(c->params.size(), 2u);
  EXPECT_EQ(c->params[0].attr, "stk");
  EXPECT_EQ(c->params[0].var, "S");
}

TEST(ParserTest, ViewUpdateProgramHead) {
  auto c = ParseProgramClause(
      ".dbE.r+(.date=D, .stkCode=S, .clsPrice=P) -> "
      ".dbU.insStk(.stk=S, .date=D, .price=P)");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->view_op, UpdateOp::kInsert);
  EXPECT_EQ(c->name_path, (std::vector<std::string>{"dbE", "r"}));
}

TEST(ParserTest, BindingSignature) {
  auto c = ParseProgramClause(
      ".dbU.insStk(.stk=S, .date=D, .price=P) -> "
      ".euter.r+(.date=D, .stkCode=S, .clsPrice=P)");
  ASSERT_TRUE(c.ok());
  auto info = AnalyzeClause(*c);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->required_params.size(), 3u);

  auto c2 = ParseProgramClause(
      ".dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S,.date=D)");
  ASSERT_TRUE(c2.ok());
  auto info2 = AnalyzeClause(*c2);
  ASSERT_TRUE(info2.ok());
  EXPECT_TRUE(info2->required_params.empty());
}

TEST(ParserTest, StatementsScript) {
  auto statements = ParseStatements(
      ".dbE.r(.date=D) <- .dbI.p(.date=D);\n"
      "?.dbE.r(.date=D);\n"
      ".dbU.x(.a=A) -> .euter.r-(.stkCode=A);");
  ASSERT_TRUE(statements.ok()) << statements.status().ToString();
  ASSERT_EQ(statements->size(), 3u);
  EXPECT_EQ((*statements)[0].kind, Statement::Kind::kRule);
  EXPECT_EQ((*statements)[1].kind, Statement::Kind::kQuery);
  EXPECT_EQ((*statements)[2].kind, Statement::Kind::kProgramClause);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("?").ok());
  EXPECT_FALSE(ParseQuery("?.euter.r(").ok());
  EXPECT_FALSE(ParseQuery("?.euter.r(.a=1))").ok());
  EXPECT_FALSE(ParseQuery("?.euter.!").ok());
  EXPECT_FALSE(ParseRule(".a.b(.x=X) <- ").ok());
  EXPECT_FALSE(ParseProgramClause(".X.y(.a=A) -> .euter.r-(.s=A)").ok())
      << "variable in program head path";
  // Negating an update is rejected.
  EXPECT_FALSE(ParseQuery("?!.euter.r+(.a=1)").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto q = ParseQuery("?.euter.r(.a=1,,)");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("1:"), std::string::npos)
      << q.status().ToString();
}

std::string Repeat(std::string_view unit, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += unit;
  return out;
}

TEST(ParserTest, NestingPastBudgetIsRejected) {
  // Unary minus, parentheses and attribute paths each recurse; past the
  // budget every one is a positioned parse error, not a stack overflow.
  for (const std::string& text :
       {"?.db.r(.a=X), X = " + Repeat("-", 200000) + "1",
        "?" + Repeat("(", 200000) + Repeat(")", 200000),
        "?" + Repeat(".a", 200000)}) {
    Result<Query> q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text.substr(0, 40);
    EXPECT_NE(q.status().message().find("nesting deeper than"),
              std::string::npos)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find("(at 1:"), std::string::npos)
        << q.status().ToString();
  }
  EXPECT_FALSE(
      ParseQuery("?.db.r(.a=X), X = " + Repeat("-", kMaxNestingDepth + 1) +
                 "1")
          .ok());
}

TEST(ParserTest, NestingAtBudgetParses) {
  Result<Query> q = ParseQuery("?.db.r(.a=X), X = " +
                               Repeat("-", kMaxNestingDepth) + "1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->conjuncts.size(), 2u);
}

}  // namespace
}  // namespace idl
