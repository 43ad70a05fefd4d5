// Behavioural tests of the observability layer: span recording and nesting
// (common/trace.h), the metrics registry (common/metrics.h), and the
// EXPLAIN ANALYZE attribution of a real materialization (the per-stratum
// timings must be contained in the measured end-to-end wall time — the
// within-10% agreement on the Figure-1 pipeline is recorded in
// EXPERIMENTS.md from a release run, which a debug CI box cannot pin).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "idl/idl.h"

namespace idl {
namespace {

TEST(TraceTest, DisabledRecordsNothing) {
  Trace::Disable();
  Trace::Clear();
  { TraceSpan span("materialize", "strategy=naive"); }
  EXPECT_TRUE(Trace::Snapshot().empty());
  EXPECT_EQ(Trace::CurrentSpan(), 0u);
}

TEST(TraceTest, NestingFollowsScopes) {
  Trace::Enable();
  {
    TraceSpan outer("outer");
    EXPECT_EQ(Trace::CurrentSpan(), 1u);
    {
      TraceSpan inner("inner", "k=v");
      EXPECT_EQ(Trace::CurrentSpan(), 2u);
    }
    { TraceSpan sibling("sibling"); }
    EXPECT_EQ(Trace::CurrentSpan(), 1u);
  }
  EXPECT_EQ(Trace::CurrentSpan(), 0u);
  Trace::Disable();

  std::vector<TraceSpanRecord> spans = Trace::Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].detail, "k=v");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 1u);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.closed) << s.name;
    EXPECT_GE(s.wall_ms, 0.0);
    EXPECT_GE(s.cpu_ms, 0.0);
  }
  Trace::Clear();
}

TEST(TraceTest, ExplicitParentAttributesCrossThreadWork) {
  Trace::Enable();
  uint64_t parent = 0;
  {
    TraceSpan fanout("fetch");
    parent = Trace::CurrentSpan();
    // A worker thread has an empty span stack; the explicit-parent
    // constructor reattaches its spans under the fan-out point.
    std::thread worker([parent] {
      TraceSpan task("site.fetch", "site=a", parent);
    });
    worker.join();
  }
  Trace::Disable();
  std::vector<TraceSpanRecord> spans = Trace::Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[1].depth, 1);
  Trace::Clear();
}

TEST(TraceTest, EnableClearsPreviousTrace) {
  Trace::Enable();
  { TraceSpan span("stale"); }
  EXPECT_EQ(Trace::Snapshot().size(), 1u);
  Trace::Enable();  // implies Clear
  EXPECT_TRUE(Trace::Snapshot().empty());
  { TraceSpan span("fresh"); }
  Trace::Disable();
  ASSERT_EQ(Trace::Snapshot().size(), 1u);
  EXPECT_EQ(Trace::Snapshot()[0].name, "fresh");
  Trace::Clear();
}

TEST(MetricsTest, GetOrCreateAndReset) {
  MetricsRegistry registry;
  Counter* c = registry.counter("test.counter");
  EXPECT_EQ(c, registry.counter("test.counter"));  // same instrument
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);

  Gauge* g = registry.gauge("test.gauge");
  g->Set(-3);
  EXPECT_EQ(g->value(), -3);

  Histogram* h = registry.histogram("test.hist");
  EXPECT_EQ(h->min(), 0.0);  // no observations yet: sentinels never escape
  EXPECT_EQ(h->max(), 0.0);
  h->Observe(2.5);
  h->Observe(-1.0);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 1.5);
  EXPECT_DOUBLE_EQ(h->min(), -1.0);
  EXPECT_DOUBLE_EQ(h->max(), 2.5);
  // -1.0 lands in the underflow bucket; the p50 estimate is that bucket's
  // upper bound clamped into the observed range [-1.0, 2.5].
  EXPECT_DOUBLE_EQ(h->Percentile(0.50), 0.001);
  EXPECT_DOUBLE_EQ(h->Percentile(0.99), 2.5);

  // Reset zeroes values but keeps instruments: the pointers stay valid and
  // the names stay listed.
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->Percentile(0.99), 0.0);  // buckets cleared too
  EXPECT_EQ(registry.counter("test.counter"), c);
  EXPECT_NE(registry.Render().find("counter test.counter = 0"),
            std::string::npos);
}

TEST(MetricsTest, DurabilityInstrumentsCountAppendsAndRecovery) {
  // The wal.* / recovery.* instruments (docs/OBSERVABILITY.md) are
  // registered lazily on first durable-server use and count exactly what
  // the durability layer does: one wal.appends per logged change, the
  // encoded bytes in wal.bytes, and per-recovery replay/torn-tail/wall
  // numbers.
  char tmpl[] = "/tmp/idl_metrics_wal_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();

  ServerOptions options;
  options.durability.dir = dir;
  options.durability.checkpoint_every = 1000;  // keep every record in the log
  {
    auto server = Server::Open(options, nullptr);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE(
        (*server)->RegisterDatabase("db", *ParseValue("(r: {})")).ok());
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(session->Update(StrCat("?.db.r+(.k=", i, ")")).ok());
    }
  }
  // 1 registration + 4 commits.
  EXPECT_EQ(registry.counter("wal.appends")->value(), 5u);
  EXPECT_GT(registry.counter("wal.bytes")->value(), 5 * 30u);
  EXPECT_EQ(registry.counter("wal.replayed_records")->value(), 0u);

  RecoveryReport report;
  auto recovered = Server::Recover(options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(registry.counter("wal.replayed_records")->value(), 5u);
  EXPECT_EQ(registry.counter("recovery.torn_tail_truncations")->value(), 0u);
  std::string render = registry.Render();
  EXPECT_NE(render.find("histogram recovery.wall_ms = count=1"),
            std::string::npos)
      << render;
  recovered->reset();

  // A torn tail (kill mid-append) bumps the truncation counter on the next
  // recovery — and the lost record does not count as replayed.
  {
    ServerOptions crashing = options;
    size_t fired = 0;
    crashing.durability.crash_hook = [&fired](CrashPoint p) {
      return p == CrashPoint::kMidAppend && ++fired == 1;
    };
    auto server = Server::Recover(crashing, nullptr);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    auto crashed = session->Update("?.db.r+(.k=99)");
    ASSERT_FALSE(crashed.ok());
  }
  recovered = Server::Recover(options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.torn_tail_truncations, 1u);
  EXPECT_EQ(registry.counter("recovery.torn_tail_truncations")->value(), 1u);
  // 5 from each of the three recoveries (the torn record never replays).
  EXPECT_EQ(registry.counter("wal.replayed_records")->value(), 15u);

  recovered->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// A real materialization through the session populates the ANALYZE
// structures coherently: per-rule rows exist for every rule, the stratum
// walls are contained in the end-to-end wall, and CPU does not exceed wall
// (up to clock granularity): one thread does all the work, so a CPU total
// above wall would mean a hidden fan-out.
TEST(AnalyzeTest, StratumTimingsContainedInWallTime) {
  Session session;
  PaperUniverse paper = MakePaperUniverse();
  for (const auto& field : paper.universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  for (const auto& rule : PaperViewRules()) {
    ASSERT_TRUE(session.DefineRule(rule).ok());
  }
  auto answer = session.Query("?.dbI.p(.stk=S, .clsPrice>200)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  const Materialized* m = session.last_materialization();
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->wall_ms, 0.0);
  double strata_wall = 0.0;
  int rule_rows = 0;
  for (const auto& s : m->stratum_stats) {
    strata_wall += s.wall_ms;
    rule_rows += static_cast<int>(s.rule_timings.size());
    for (const auto& r : s.rule_timings) {
      EXPECT_GE(r.passes, 1) << r.head;
      EXPECT_GE(r.enumerate_ms, 0.0);
      EXPECT_GE(r.write_ms, 0.0);
    }
  }
  EXPECT_EQ(rule_rows, static_cast<int>(PaperViewRules().size()));
  // Containment: the strata are timed inside the materialization's clock.
  // A small epsilon absorbs the two clocks' rounding.
  EXPECT_LE(strata_wall, m->wall_ms + 0.05);
  EXPECT_GT(strata_wall, 0.0);
  EXPECT_LE(m->cpu_ms, m->wall_ms + 0.05);
  // The ANALYZE rendering carries the same numbers (trailer present).
  EXPECT_NE(m->ExplainAnalyze().find("analyze: wall="), std::string::npos);
}

// Tracing must not change answers: the same query traced and untraced
// returns identical tables, and the traced run records the expected phase
// spans.
TEST(AnalyzeTest, TracedRunSameAnswersExpectedSpans) {
  auto run = [](bool traced) {
    if (traced) Trace::Enable();
    Session session;
    PaperUniverse paper = MakePaperUniverse();
    for (const auto& field : paper.universe.fields()) {
      EXPECT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
    }
    for (const auto& rule : PaperViewRules()) {
      EXPECT_TRUE(session.DefineRule(rule).ok());
    }
    auto answer = session.Query("?.dbI.p(.stk=S, .clsPrice>200)");
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    if (traced) Trace::Disable();
    return answer.ok() ? answer->ToTable() : std::string();
  };
  std::string untraced = run(false);
  std::string traced = run(true);
  EXPECT_EQ(untraced, traced);

  std::string tree = Trace::Render(/*mask_timings=*/true);
  EXPECT_NE(tree.find("session.query"), std::string::npos) << tree;
  EXPECT_NE(tree.find("materialize strategy=semi-naive"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("stratum level=0"), std::string::npos) << tree;
  EXPECT_NE(tree.find("enumerate"), std::string::npos) << tree;
  EXPECT_NE(tree.find("write"), std::string::npos) << tree;
  Trace::Clear();
}

}  // namespace
}  // namespace idl
