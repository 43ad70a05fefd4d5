// Checkpoint overhead of the resource governor (common/governor.h).
//
// The governor promises that a governed-but-unconstrained run costs
// effectively nothing: a checkpoint is two relaxed atomics, the wall clock
// is consulted every 16th poll, and cell accounting only walks the base
// universe when a cell budget is actually set. This bench pins that claim on
// the 1000-stock recursive closure (the same DateChainTC workload as
// bench_seminaive — the materialization with by far the most checkpoints
// per unit of real work):
//
//   ClosureTC_Ungoverned      no governor at all (the legacy fast path)
//   ClosureTC_Governed        cancel token only, no budgets — pure
//                             checkpoint cost
//   ClosureTC_GovernedLimits  every budget armed (generously) — adds the
//                             budget compares and the base-universe cell
//                             walk
//
// Target: Governed and GovernedLimits within 2% of Ungoverned (CI smokes
// this bench in the release leg; compare the wall times in the --json
// output).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/governor.h"
#include "views/engine.h"

namespace {

using idl::EvalOptions;
using idl::GovernorLimits;
using idl::ResourceGovernor;
using idl::Value;
using idl::ViewEngine;

Value ChainUniverse(size_t stocks, size_t days) {
  idl::StockWorkload w = idl_bench::MakeWorkload(stocks, days);
  Value succ = Value::EmptyTuple();
  for (size_t s = 0; s < w.stocks.size(); ++s) {
    Value rel = Value::EmptySet();
    for (size_t d = 0; d + 1 < w.dates.size(); ++d) {
      Value e = Value::EmptyTuple();
      e.SetField("from", Value::Of(w.dates[d]));
      e.SetField("to", Value::Of(w.dates[d + 1]));
      rel.Insert(std::move(e));
    }
    succ.SetField(w.stocks[s], std::move(rel));
  }
  Value universe = Value::EmptyTuple();
  universe.SetField("succ", std::move(succ));
  return universe;
}

ViewEngine ClosureEngine() {
  ViewEngine engine;
  for (const char* text :
       {".reach.S(.from=X, .to=Y) <- .succ.S(.from=X, .to=Y)",
        ".reach.S(.from=X, .to=Z) <- "
        ".reach.S(.from=X, .to=Y), .succ.S(.from=Y, .to=Z)"}) {
    auto r = idl::ParseRule(text);
    IDL_BENCH_CHECK(r.ok());
    IDL_BENCH_CHECK(engine.AddRule(std::move(r).value()).ok());
  }
  return engine;
}

void RunClosure(benchmark::State& state, const GovernorLimits* limits) {
  size_t stocks = static_cast<size_t>(state.range(0));
  size_t days = static_cast<size_t>(state.range(1));
  Value universe = ChainUniverse(stocks, days);
  ViewEngine engine = ClosureEngine();
  EvalOptions options;  // semi-naive: the production path
  uint64_t facts = 0;
  uint64_t checkpoints = 0;
  for (auto _ : state) {
    if (limits == nullptr) {
      auto m = engine.Materialize(universe, options);
      IDL_BENCH_CHECK(m.ok());
      facts = m->facts_derived;
      benchmark::DoNotOptimize(m->universe);
    } else {
      // A fresh governor per materialization, like Session builds one per
      // request.
      ResourceGovernor governor(*limits);
      auto m = engine.Materialize(universe, options, nullptr, &governor);
      IDL_BENCH_CHECK(m.ok());
      IDL_BENCH_CHECK(governor.Usage().abort_reason.empty());
      facts = m->facts_derived;
      checkpoints = governor.Usage().checkpoints;
      benchmark::DoNotOptimize(m->universe);
    }
  }
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["checkpoints"] = static_cast<double>(checkpoints);
}

void BM_ClosureTC_Ungoverned(benchmark::State& state) {
  RunClosure(state, nullptr);
}

void BM_ClosureTC_Governed(benchmark::State& state) {
  static const GovernorLimits kNoLimits;  // cancel token only
  RunClosure(state, &kNoLimits);
}

void BM_ClosureTC_GovernedLimits(benchmark::State& state) {
  static const GovernorLimits kGenerous = [] {
    GovernorLimits limits;
    limits.deadline_ms = 10 * 60 * 1000;
    limits.max_passes = 1 << 20;
    limits.max_derivations = uint64_t{1} << 40;
    limits.max_universe_cells = uint64_t{1} << 40;
    return limits;
  }();
  RunClosure(state, &kGenerous);
}

#define GOV_ARGS Args({1000, 16})->Args({100, 16})
BENCHMARK(BM_ClosureTC_Ungoverned)->GOV_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureTC_Governed)->GOV_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureTC_GovernedLimits)
    ->GOV_ARGS->Unit(benchmark::kMillisecond);

}  // namespace

IDL_BENCH_MAIN()
