// Generated multi-tenant discrepancy workloads (workload/discrepancy_gen.h)
// end to end: how fast the generator mints universes and traces, what full
// unification over N tenants costs under each evaluation strategy, and
// what one schema-evolution trace step costs under incremental maintenance
// vs rematerialization. The generator is the substrate for the cross-mode
// differential sweep (tests/workload_differential_test.cc); these numbers
// bound how far the sweep's universe counts can grow before it stops being
// a tier-1 test.
//
// - GenerateUniverse/*: pure generation (facts + rules + oracle), no
//   evaluation. Should stay microseconds — the sweep calls it hundreds of
//   times.
// - UnifyTenants/*: cold Session materialization of the unified view over
//   a generated universe, naive vs semi-naive.
// - TraceStep/*: replay generated evolution steps (style flips, relation
//   churn, upserts) against a live Session, incremental vs rematerialize —
//   the maintenance ratio for *schema-shaped* deltas, not just row churn.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "idl/session.h"
#include "workload/discrepancy_gen.h"

namespace {

using idl::DiscrepancyConfig;
using idl::DiscrepancyUniverse;
using idl::EvalOptions;
using idl::EvalStrategy;
using idl::EvolutionTrace;
using idl::MaintenanceMode;

DiscrepancyConfig BenchConfig(size_t tenants) {
  DiscrepancyConfig config;
  config.seed = 42;
  config.num_tenants = tenants;
  config.num_entities = 5;
  config.num_keys = 4;
  config.mangle_rate = 0.4;
  return config;
}

void BM_GenerateUniverse(benchmark::State& state) {
  DiscrepancyConfig config = BenchConfig(static_cast<size_t>(state.range(0)));
  size_t facts = 0;
  for (auto _ : state) {
    DiscrepancyUniverse u = idl::GenerateDiscrepancyUniverse(config);
    for (const auto& tenant : u.tenants) facts += tenant.facts.size();
    benchmark::DoNotOptimize(u);
  }
  state.counters["facts"] = static_cast<double>(
      facts / static_cast<size_t>(std::max<int64_t>(1, state.iterations())));
}
BENCHMARK(BM_GenerateUniverse)->Arg(4)->Arg(16);

void BM_GenerateTrace(benchmark::State& state) {
  DiscrepancyConfig config = BenchConfig(4);
  size_t requests = 0;
  for (auto _ : state) {
    DiscrepancyUniverse u = idl::GenerateDiscrepancyUniverse(config);
    EvolutionTrace trace =
        idl::GenerateEvolutionTrace(u, static_cast<size_t>(state.range(0)),
                                    /*salt=*/7);
    requests += trace.TotalRequests();
    benchmark::DoNotOptimize(trace);
  }
  state.counters["requests"] = static_cast<double>(
      requests /
      static_cast<size_t>(std::max<int64_t>(1, state.iterations())));
}
BENCHMARK(BM_GenerateTrace)->Arg(8)->Arg(32);

// Cold materialization of the unified view (plus customized roll/wide
// views) over a freshly registered N-tenant universe.
void UnifyTenants(benchmark::State& state, EvalStrategy strategy) {
  DiscrepancyUniverse u = idl::GenerateDiscrepancyUniverse(
      BenchConfig(static_cast<size_t>(state.range(0))));
  size_t cells = 0;
  for (auto _ : state) {
    idl::Session session;
    for (const auto& tenant : u.tenants) {
      IDL_BENCH_CHECK(
          session.RegisterDatabase(tenant.name, u.BuildTenantDatabase(tenant))
              .ok());
    }
    IDL_BENCH_CHECK(session.DefineRules(u.UnificationRules()).ok());
    EvalOptions options;
    options.strategy = strategy;
    session.set_materialize_options(options);
    auto universe = session.universe();
    IDL_BENCH_CHECK(universe.ok());
    const idl::Value* unified = (*universe)->FindField("u");
    IDL_BENCH_CHECK(unified != nullptr);
    cells += unified->FindField("p")->elements().size();
  }
  benchmark::DoNotOptimize(cells);
  state.counters["unified_rows"] = static_cast<double>(
      cells / static_cast<size_t>(std::max<int64_t>(1, state.iterations())));
}

void BM_UnifyTenants_Naive(benchmark::State& state) {
  UnifyTenants(state, EvalStrategy::kNaive);
}
void BM_UnifyTenants_SemiNaive(benchmark::State& state) {
  UnifyTenants(state, EvalStrategy::kSemiNaive);
}
BENCHMARK(BM_UnifyTenants_Naive)->Arg(4)->Arg(16);
BENCHMARK(BM_UnifyTenants_SemiNaive)->Arg(4)->Arg(16);

// One evolution-trace request per iteration against a live Session; the
// trace regenerates (same seed/salt) when exhausted. Schema-shaped deltas
// — relation creation, style flips — stress maintenance paths the
// row-churn benches (bench_incremental.cc) never touch.
void TraceStep(benchmark::State& state, MaintenanceMode mode) {
  DiscrepancyConfig config = BenchConfig(4);
  DiscrepancyUniverse u = idl::GenerateDiscrepancyUniverse(config);
  idl::Session session;
  for (const auto& tenant : u.tenants) {
    IDL_BENCH_CHECK(
        session.RegisterDatabase(tenant.name, u.BuildTenantDatabase(tenant))
            .ok());
  }
  IDL_BENCH_CHECK(session.DefineRules(u.UnificationRules()).ok());
  EvalOptions options;
  options.maintenance = mode;
  session.set_materialize_options(options);
  IDL_BENCH_CHECK(session.universe().ok());  // initial materialization

  // GenerateEvolutionTrace mutates its universe in place, so generating
  // successive traces (fresh salt each refill) from the same evolving copy
  // keeps every request consistent with the session's current state.
  std::vector<std::string> requests;
  uint64_t salt = 1;
  auto refill = [&] {
    EvolutionTrace trace =
        idl::GenerateEvolutionTrace(u, /*num_steps=*/16, salt++);
    requests.clear();
    for (const auto& step : trace.steps)
      for (const auto& request : step.requests) requests.push_back(request);
  };
  refill();

  size_t at = 0;
  for (auto _ : state) {
    if (at == requests.size()) {
      state.PauseTiming();
      refill();
      at = 0;
      state.ResumeTiming();
    }
    auto r = session.Update(requests[at++]);
    IDL_BENCH_CHECK(r.ok());
    auto universe = session.universe();
    IDL_BENCH_CHECK(universe.ok());
  }
  const idl::Materialized* m = session.last_materialization();
  IDL_BENCH_CHECK(m != nullptr);
  state.counters["fallbacks"] = static_cast<double>(m->maintenance.fallbacks);
}

void BM_TraceStep_Incremental(benchmark::State& state) {
  TraceStep(state, MaintenanceMode::kIncremental);
}
void BM_TraceStep_Rematerialize(benchmark::State& state) {
  TraceStep(state, MaintenanceMode::kRematerialize);
}
BENCHMARK(BM_TraceStep_Incremental);
BENCHMARK(BM_TraceStep_Rematerialize);

}  // namespace

IDL_BENCH_MAIN()
