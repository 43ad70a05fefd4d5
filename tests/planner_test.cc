// Cost-based planner contract (src/planner/): under PlannerMode::kCostBased
// every answer — rows *in order*, derived universes, write counters, error
// timing — must be byte-identical to the written-order executor, across both
// substrates, both strategies and both maintenance modes. Written order is
// the oracle; the planner buys speed (bound-first joins, sideways
// information passing, higher-order specialization) but never a different
// observable.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "eval/query.h"
#include "idl/session.h"
#include "syntax/parser.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

Query MustQuery(std::string_view text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q).value();
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// Evaluates `text` under written order and under the cost-based planner and
// asserts the two answers are byte-identical — columns, row count, and row
// ORDER (the planner replays its buffered emissions in canonical written
// order, so even unsorted answers must match exactly).
void ExpectPlannedIdentical(const Value& universe, const std::string& text,
                            EvalOptions base = EvalOptions()) {
  Query q = MustQuery(text);
  EvalOptions written = base;
  written.planner = PlannerMode::kWrittenOrder;
  EvalOptions planned = base;
  planned.planner = PlannerMode::kCostBased;
  auto a = EvaluateQuery(universe, q, written);
  auto b = EvaluateQuery(universe, q, planned);
  ASSERT_EQ(a.ok(), b.ok()) << text << "\nwritten: " << a.status().ToString()
                            << "\nplanned: " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << text;
    return;
  }
  EXPECT_EQ(a->columns, b->columns) << text;
  ASSERT_EQ(a->rows.size(), b->rows.size()) << text;
  for (size_t i = 0; i < a->rows.size(); ++i) {
    ASSERT_EQ(a->rows[i].size(), b->rows[i].size()) << text << " row " << i;
    for (size_t j = 0; j < a->rows[i].size(); ++j) {
      EXPECT_EQ(Value::Compare(a->rows[i][j], b->rows[i][j]), 0)
          << text << " row " << i << " col " << j << " diverges";
    }
  }
  EXPECT_EQ(a->ToTable(), b->ToTable()) << text;
}

// ---- Query-level identity ---------------------------------------------------

class PlannerQueryTest : public ::testing::Test {
 protected:
  PlannerQueryTest()
      : stock_(BuildStockUniverse(GenerateStockWorkload(
            {.num_stocks = 10, .num_days = 30, .seed = 11}))),
        paper_(MakePaperUniverse().universe) {}

  Value stock_;
  Value paper_;
};

TEST_F(PlannerQueryTest, JoinsGuardsAndNegationIdentical) {
  ExpectPlannedIdentical(stock_,
                         "?.euter.r(.stkCode=stk3, .clsPrice=P, .date=D)");
  ExpectPlannedIdentical(stock_,
                         "?.euter.r(.stkCode=stk0,.clsPrice=P1,.date=D),"
                         ".euter.r(.stkCode=stk1,.clsPrice=P2,.date=D)");
  ExpectPlannedIdentical(stock_,
                         "?.euter.r(.date=D,.stkCode=S,.clsPrice=P), P > 200");
  ExpectPlannedIdentical(stock_,
                         "?.euter.r(.stkCode=stk0,.clsPrice=P,.date=D),"
                         ".euter.r!(.stkCode=stk0, .clsPrice>P)");
}

TEST_F(PlannerQueryTest, HigherOrderQueriesIdentical) {
  // Attribute and relation variables over the paper's discrepant schemas —
  // the shapes the specializer targets.
  ExpectPlannedIdentical(paper_, "?.chwab.r(.S>200)");
  ExpectPlannedIdentical(paper_, "?.ource.S(.clsPrice>200)");
  ExpectPlannedIdentical(
      paper_, "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)");
  ExpectPlannedIdentical(paper_,
                         "?.ource.S(.date=D,.clsPrice=P), "
                         ".euter.r(.stkCode=S,.date=D,.clsPrice=P)");
}

TEST_F(PlannerQueryTest, AdversarialWorstFirstConjunctOrders) {
  // Random permutations of a selective join, seeded deterministically: the
  // planner sees worst-first orders (unselective conjunct written first) and
  // must still replay every answer in the written order of THAT permutation.
  const std::vector<std::string> conjuncts = {
      ".euter.r(.stkCode=S,.clsPrice=P1,.date=D)",
      ".euter.r(.stkCode=stk2,.clsPrice=P2,.date=D)",
      ".euter.r(.stkCode=stk5,.clsPrice=P1,.date=D2)",
      "P1 > 100",
  };
  MetricsRegistry::Global().Reset();
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<std::string> order = conjuncts;
    std::shuffle(order.begin(), order.end(), rng);
    std::string text = "?";
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0) text += ",";
      text += order[i];
    }
    ExpectPlannedIdentical(stock_, text);
  }
  // At least some permutations start with an unselective conjunct, so the
  // planner must actually have reordered (not just declined every time).
  EXPECT_GT(CounterValue("planner.reorders"), 0u);
  EXPECT_GT(CounterValue("planner.plans"), 0u);
}

TEST_F(PlannerQueryTest, ErrorTimingIdenticalOnErroringBarrier) {
  // A guard that divides by a bound value, over data containing a zero:
  // written order errors mid-enumeration; the planned run must surface the
  // identical error (it falls back to written order on any non-governor
  // error, so timing and message are the oracle's by construction).
  Value universe = Value::EmptyTuple();
  Value rel = Value::EmptySet();
  for (int i = 4; i >= 0; --i) {
    Value t = Value::EmptyTuple();
    t.SetField("k", Value::Int(i));  // includes k=0
    t.SetField("tag", Value::String("x"));
    rel.Insert(std::move(t));
  }
  Value db = Value::EmptyTuple();
  db.SetField("r", std::move(rel));
  universe.SetField("d", std::move(db));

  ExpectPlannedIdentical(universe, "?.d.r(.k=K,.tag=T), K > 10 / K");
  // Non-numeric arithmetic is the other erroring barrier.
  ExpectPlannedIdentical(universe, "?.d.r(.k=K,.tag=T), K > T + 1");

  // A relation-position (shape A) specialization keeps the written order and
  // splices at slot 0, so the planned run *streams* — the error surfaces
  // directly at the written point, with no fallback rerun.
  MetricsRegistry::Global().Reset();
  ExpectPlannedIdentical(paper_, "?.ource.S(.date=D,.clsPrice=P), P > P / 0");
  EXPECT_EQ(CounterValue("planner.fallbacks"), 0u);
  EXPECT_GT(CounterValue("planner.plans"), 0u);

  // An element-position (shape B) specialization reorders the branch points,
  // so the planned run buffers; an erroring guard then discards the buffer
  // and falls back to written order, which surfaces the oracle's exact error.
  MetricsRegistry::Global().Reset();
  ExpectPlannedIdentical(paper_, "?.chwab.r(.date=D,.S=P), P > P / 0");
  EXPECT_GT(CounterValue("planner.fallbacks"), 0u);
}

TEST_F(PlannerQueryTest, DeclinesUnderRowCap) {
  // max_rows makes "which rows" order-sensitive, so the planner declines and
  // the cap behaves exactly as written order.
  Query q = MustQuery("?.euter.r(.stkCode=S, .date=D)");
  EvalOptions options;
  options.max_rows = 7;
  options.planner = PlannerMode::kCostBased;
  MetricsRegistry::Global().Reset();
  auto a = EvaluateQuery(stock_, q, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rows.size(), 7u);
  EXPECT_EQ(CounterValue("planner.plans"), 0u);
}

// ---- Materialization-level identity -----------------------------------------

struct SessionRun {
  std::string unified;   // ?.dbI.p table
  std::string high;      // ?.dbHigh.p table after the update
  Value universe;        // merged universe after materialize + update
  uint64_t facts = 0;    // engine.facts_derived
  uint64_t changes = 0;  // engine.changes
};

SessionRun RunPaperSession(EvalStrategy strategy, EvalSubstrate substrate,
                           MaintenanceMode maintenance, PlannerMode planner) {
  MetricsRegistry::Global().Reset();
  Session session;
  EvalOptions materialize;
  materialize.strategy = strategy;
  materialize.substrate = substrate;
  materialize.maintenance = maintenance;
  materialize.planner = planner;
  session.set_materialize_options(materialize);

  SessionRun run;
  PaperUniverse paper = MakePaperUniverse();
  for (const auto& field : paper.universe.fields()) {
    EXPECT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  EXPECT_TRUE(session.DefineRules(PaperViewRules()).ok());

  auto a = session.Query("?.dbI.p(.date=D, .stk=S, .clsPrice=P)");
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  if (a.ok()) run.unified = a->ToTable();

  // Exercise the delta path (insert propagation / rederivation) under the
  // same planner mode.
  auto u = session.Update("?.euter.r+(.date=3/5/1985,.stkCode=hp,"
                          ".clsPrice=321)");
  EXPECT_TRUE(u.ok()) << u.status().ToString();

  auto h = session.Query("?.dbHigh.p(.date=D, .stk=S)");
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (h.ok()) run.high = h->ToTable();

  auto merged = session.universe();
  EXPECT_TRUE(merged.ok());
  if (merged.ok()) run.universe = **merged;
  run.facts = CounterValue("engine.facts_derived");
  run.changes = CounterValue("engine.changes");
  return run;
}

TEST(PlannerMaterializeTest, PlannedEqualsWrittenAcrossModes) {
  // The full cross: {naive, semi-naive} x {columnar, nested} x
  // {incremental, rematerialize}. For each cell the cost-planned session
  // must produce byte-identical answers, an equal merged universe, and
  // identical write-phase counters (facts derived, changes applied) to the
  // written-order session.
  for (EvalStrategy strategy :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaive}) {
    for (EvalSubstrate substrate :
         {EvalSubstrate::kColumnar, EvalSubstrate::kNested}) {
      for (MaintenanceMode maintenance :
           {MaintenanceMode::kIncremental, MaintenanceMode::kRematerialize}) {
        SCOPED_TRACE(testing::Message()
                     << "strategy=" << static_cast<int>(strategy)
                     << " substrate=" << static_cast<int>(substrate)
                     << " maintenance=" << static_cast<int>(maintenance));
        SessionRun written = RunPaperSession(strategy, substrate, maintenance,
                                             PlannerMode::kWrittenOrder);
        SessionRun planned = RunPaperSession(strategy, substrate, maintenance,
                                             PlannerMode::kCostBased);
        EXPECT_EQ(written.unified, planned.unified);
        EXPECT_EQ(written.high, planned.high);
        EXPECT_EQ(Value::Compare(written.universe, planned.universe), 0)
            << "merged universes diverge";
        EXPECT_EQ(written.facts, planned.facts);
        EXPECT_EQ(written.changes, planned.changes);
      }
    }
  }
}

TEST(PlannerMaterializeTest, HigherOrderSpecializationFires) {
  // The paper's own unification rules contain both specialization shapes
  // (element-position `.chwab.r(.date=D,.S=P)` and relation-position
  // `.ource.S(...)`); a cost-planned materialization must specialize them
  // into first-order instances, not just reorder.
  MetricsRegistry::Global().Reset();
  Session session;
  EvalOptions materialize;
  materialize.planner = PlannerMode::kCostBased;
  session.set_materialize_options(materialize);
  PaperUniverse paper = MakePaperUniverse();
  for (const auto& field : paper.universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  auto a = session.Query("?.dbHigh.p(.stk=S)");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_GT(CounterValue("planner.plans"), 0u);
  EXPECT_GT(CounterValue("planner.specializations"), 0u);
  EXPECT_EQ(CounterValue("planner.fallbacks"), 0u);
}

}  // namespace
}  // namespace idl
