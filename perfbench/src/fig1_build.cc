// fig1_build: from-scratch ViewEngine::Materialize of the full Figure-1
// rule set (dbI x3, dbE, dbC, dbO) at 200 stocks (heavy class), with two
// 50-stock builds (light class) interleaved after each, so one run gives
// both the build time and its scaling slope.

#include <memory>
#include <stdexcept>

#include "fig1.h"
#include "syntax/parser.h"
#include "views/engine.h"
#include "views/stratify.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct BuildInput {
  idl::StockWorkload w;
  idl::Value base;
};

// The stats of one materialization that the per-layer metrics use.
struct BuildStats {
  double enumerate_ms = 0, plan_ms = 0, write_ms = 0, strata_wall_ms = 0;
};

BuildStats Summarize(const idl::Materialized& m) {
  BuildStats b;
  for (const idl::StratumStats& st : m.stratum_stats) {
    b.strata_wall_ms += st.wall_ms;
    for (const idl::RuleTimingStats& r : st.rule_timings) {
      b.enumerate_ms += r.enumerate_ms;
      b.plan_ms += r.plan_ms;
      b.write_ms += r.write_ms;
    }
  }
  return b;
}

class Fig1Build {
 public:
  Fig1Build(const Args& args, Report* report)
      : args_(args), report_(report) {}

  void Run() {
    const size_t heavy_stocks = args_.tiny ? 20 : 200;
    const size_t light_stocks = args_.tiny ? 5 : 50;
    report_->Info("sizes", "heavy_stocks=" + std::to_string(heavy_stocks) +
                               " light_stocks=" + std::to_string(light_stocks) +
                               " days=30 discrepancy_rate=0.02 rules=6");
    EndToEnd e;
    e.tail_q = 0.75;
    for (int i = 0; i < kSetups; ++i) {
      // The previous set-up's teardown is not part of the next one.
      heavy_.reset();
      light_.reset();
      engine_.reset();
      auto t0 = Clock::now();
      heavy_ = Prepare(heavy_stocks);
      light_ = Prepare(light_stocks);
      engine_ = std::make_unique<idl::ViewEngine>();
      for (const std::string& text : Fig1Rules(/*with_dbc=*/true)) {
        auto rule = idl::ParseRule(text);
        CheckOk(rule.status(), "rule " + text);
        CheckOk(engine_->AddRule(std::move(*rule)), "rule " + text);
      }
      Build(*heavy_, nullptr);  // the first materialization
      e.setup_s.Add(MsSince(t0) / 1000.0);
    }

    const double phase_s = args_.trace ? args_.seconds / 2 : args_.seconds;
    auto start = Clock::now();
    Loop(start, phase_s, &e.heavy, &e.light, /*traced=*/false);
    e.window_s = MsSince(start) / 1000.0;
    e.ops = e.heavy.size() + e.light.size();

    report_->Line("setup_s", e.setup_s.Median(), "s", e.setup_s.size());
    report_->Timing("build_ms", e.heavy, 0.5);
    report_->Timing("build50_ms", e.light, e.tail_q);
    report_->Line("build_scale_4x", e.heavy.Median() / e.light.Median(),
                  "ratio", e.heavy.size(), "heavy p50 / light p50, same run");
    report_->Line("builds_per_s", e.ops / e.window_s, "1/s", e.ops);

    if (!args_.trace) {
      EmitEndToEnd(e, report_);
      return;
    }
    Samples traced_heavy, traced_light;
    Loop(Clock::now(), phase_s, &traced_heavy, &traced_light, /*traced=*/true);
    EmitLayers(e.heavy, traced_heavy);
  }

 private:
  std::unique_ptr<BuildInput> Prepare(size_t stocks) {
    auto in = std::make_unique<BuildInput>();
    in->w = GenerateFig1(stocks, args_.seed);
    in->base = idl::BuildStockUniverse(in->w);
    return in;
  }

  // One timed build, checked against the oracle; returns its wall in ms.
  // Traced builds first time a separate Stratify call into `stratify_ms`,
  // and hand the materialization, with the engine's own accounting, to
  // `kept`.
  double Build(const BuildInput& in, Samples* stratify_ms,
               idl::Materialized* kept = nullptr) {
    report_->Attempted();
    auto t0 = Clock::now();
    if (stratify_ms != nullptr) {
      auto strata = idl::Stratify(engine_->rules());
      stratify_ms->Add(MsSince(t0));
      if (!strata.ok()) report_->Failed("stratify: " + strata.status().ToString());
    }
    auto m = engine_->Materialize(in.base, idl::EvalOptions());
    const double ms = MsSince(t0);
    if (!m.ok()) {
      report_->Failed("materialize: " + m.status().ToString());
      return ms;
    }
    std::string mismatch = Fig1Oracle(in.w).CheckViews(m->universe, true);
    if (!mismatch.empty()) report_->Incorrect(mismatch);
    if (kept != nullptr) *kept = std::move(*m);
    return ms;
  }

  void Loop(Clock::time_point start, double seconds, Samples* heavy,
            Samples* light, bool traced) {
    while (MsSince(start) < seconds * 1000.0) {
      if (traced) {
        idl::Materialized m;
        heavy->Add(Build(*heavy_, &stratify_ms_, &m));
        Record(m);
      } else {
        heavy->Add(Build(*heavy_, nullptr));
      }
      light->Add(Build(*light_, nullptr));
      light->Add(Build(*light_, nullptr));
    }
  }

  void Record(const idl::Materialized& m) {
    BuildStats b = Summarize(m);
    enumerate_ms_.Add(b.enumerate_ms);
    plan_ms_.Add(b.plan_ms);
    write_ms_.Add(b.write_ms);
    wall_ms_.Add(m.wall_ms);
    write_share_.Add(m.wall_ms > 0 ? b.write_ms / m.wall_ms : 0);
    unattributed_ms_.Add(m.wall_ms - b.strata_wall_ms);
    changes_per_fact_.Add(
        m.facts_derived > 0 ? static_cast<double>(m.changes) / m.facts_derived
                            : 0);
    cpu_per_wall_.Add(m.wall_ms > 0 ? m.cpu_ms / m.wall_ms : 0);
    parallel_tasks_.Add(static_cast<double>(m.parallel_tasks));
  }

  void EmitLayers(const Samples& untraced, const Samples& traced) {
    Layers l;
    l.Set("eval.enumerate_ms", enumerate_ms_.Median());
    l.Set("planner.plan_ms", plan_ms_.Median());
    l.Set("views.write_ms", write_ms_.Median());
    l.Set("views.write_share", write_share_.Median());
    l.Set("views.changes_per_fact", changes_per_fact_.Median());
    l.Set("views.unattributed_ms", unattributed_ms_.Median());
    l.Set("views.stratify_ms", stratify_ms_.Median());
    l.Set("common.build_cpu_per_wall", cpu_per_wall_.Median());
    l.Set("common.parallel_tasks", parallel_tasks_.Median());
    const double overhead = traced.Median() / untraced.Median();
    // Stratify, enumeration, planning and head writes, against the traced
    // build's wall; the rest is the engine's views.unattributed_ms.
    const double attributed =
        (stratify_ms_.Median() + enumerate_ms_.Median() + plan_ms_.Median() +
         write_ms_.Median()) /
        traced.Median();
    l.Set("trace.overhead_ratio", overhead);
    l.Set("trace.attributed_share", attributed);
    l.Emit(report_);

    const size_t n = traced.size();
    report_->Line("traced build_ms_p50", traced.Median(), "ms", n);
    report_->Line("views.stratify_ms", stratify_ms_.Median(), "ms", n);
    report_->Line("eval.enumerate_ms", enumerate_ms_.Median(), "ms", n);
    report_->Line("planner.plan_ms", plan_ms_.Median(), "ms", n);
    report_->Line("views.write_ms", write_ms_.Median(), "ms", n);
    report_->Line("views.unattributed_ms", unattributed_ms_.Median(), "ms", n,
                  "Materialized::wall_ms - sum of stratum walls");
    report_->Line("engine wall_ms", wall_ms_.Median(), "ms", n);
    report_->Line("trace.attributed_share", attributed, "ratio", n,
                  "(stratify + enumerate + plan + write) / traced build wall");
    report_->Line("trace.overhead_ratio", overhead, "ratio", n);
  }

  const Args& args_;
  Report* report_;
  std::unique_ptr<BuildInput> heavy_, light_;
  std::unique_ptr<idl::ViewEngine> engine_;
  Samples stratify_ms_, enumerate_ms_, plan_ms_, write_ms_, wall_ms_,
      write_share_, unattributed_ms_, changes_per_fact_, cpu_per_wall_,
      parallel_tasks_;
};

}  // namespace

void RunFig1Build(const Args& args, Report* report) {
  Fig1Build(args, report).Run();
}

}  // namespace perfbench
