#include "workload/sweep.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "federation/gateway.h"
#include "federation/site.h"
#include "idl/session.h"
#include "object/builder.h"
#include "object/value_io.h"

namespace idl {

std::string ModePoint::Label() const {
  std::string label = strategy == EvalStrategy::kNaive ? "naive" : "semi";
  label += maintenance == MaintenanceMode::kIncremental ? "/inc" : "/remat";
  label += federated ? (faulty ? "/fed+faults" : "/fed") : "/direct";
  label += governed ? "/gov" : "/plain";
  if (planner == PlannerMode::kCostBased) label += "/plan";
  return label;
}

std::vector<ModePoint> FullModeLattice() {
  std::vector<ModePoint> modes;
  for (EvalStrategy strategy :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaive}) {
    for (MaintenanceMode maintenance :
         {MaintenanceMode::kRematerialize, MaintenanceMode::kIncremental}) {
      for (bool federated : {false, true}) {
        for (bool governed : {false, true}) {
          ModePoint mode;
          mode.strategy = strategy;
          mode.maintenance = maintenance;
          mode.federated = federated;
          mode.faulty = federated;
          mode.governed = governed;
          mode.substrate = strategy == EvalStrategy::kNaive
                               ? EvalSubstrate::kNested
                               : EvalSubstrate::kColumnar;
          modes.push_back(mode);
          // Cost-planned variant of every semi-naive point: the planner's
          // byte-identity contract gets cross-checked against the whole
          // lattice. The naive oracle points stay written-order.
          if (strategy == EvalStrategy::kSemiNaive) {
            mode.planner = PlannerMode::kCostBased;
            modes.push_back(mode);
          }
        }
      }
    }
  }
  return modes;
}

std::string FormatSweepReport(const SweepReport& report) {
  return StrCat("sweep: universes=", report.universes, " traces=",
                report.traces, " steps=", report.steps, " requests=",
                report.requests, " modes=", report.modes, " comparisons=",
                report.comparisons, " fallbacks=", report.fallbacks,
                " mismatches=", report.mismatches.size(), "\n");
}

namespace {

// Never-binding budgets for the governed lattice points: the governor's
// checkpoints and accounting run on every request, but no legitimate
// workload in this sweep approaches the limits. Wall-clock budgets are
// deliberately absent (flaky under sanitizers and load).
void ApplyGenerousBudgets(EvalOptions* options) {
  options->max_passes = 100000;
  options->max_derivations = 500u * 1000 * 1000;
  options->max_universe_cells = 500u * 1000 * 1000;
}

// One engine configuration replaying the scenario.
struct ModeRunner {
  ModePoint mode;
  Session session;
  std::shared_ptr<Gateway> gateway;
  std::vector<SimulatedRemoteSite*> sites;  // owned by the gateway
  EvalOptions request_options;
  Rng fault_rng{0};

  // Schedules a transient outage at a seeded-random site. One failure per
  // injection point: FailNext budgets accumulate, and two consecutive
  // injection points can land before the next site request drains them, so
  // the worst-case pending budget (2) must stay below the gateway's retry
  // budget (3) or an injected fault would turn into a real one.
  void InjectFault() {
    if (!mode.faulty || sites.empty()) return;
    sites[fault_rng.Below(sites.size())]->FailNext(1);
  }
};

// Oracle normalization: views that lost all their rows may survive as
// empty relation slots (maintenance deletes elements; a rematerialization
// never creates the slot) — the sweep's cross-mode comparison covers the
// engine's own consistency, and the oracle compares *facts*, so empty
// relations and empty databases are dropped on both sides.
Value NormalizeDb(const Value* db) {
  Value out = Value::EmptyTuple();
  if (db == nullptr || !db->is_tuple()) return out;
  for (const auto& field : db->fields()) {
    if (field.value.is_set() && field.value.SetSize() == 0) continue;
    out.SetField(field.name, field.value);
  }
  return out;
}

Value NormalizeRel(const Value& universe, const char* db, const char* rel) {
  const Value* d = universe.FindField(db);
  const Value* r = d == nullptr ? nullptr : d->FindField(rel);
  return r == nullptr ? Value::EmptySet() : *r;
}

struct CheckCounters {
  size_t steps = 0;
  size_t requests = 0;
  size_t comparisons = 0;
  uint64_t fallbacks = 0;
};

// Runs one generated scenario through every mode in lockstep. Returns ""
// when every comparison held, else a description of the first divergence.
std::string CheckScenario(const DiscrepancyConfig& config, size_t trace_steps,
                          uint64_t trace_salt,
                          const std::vector<ModePoint>& modes, bool inject,
                          CheckCounters* counters) {
  DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
  const std::vector<std::string> rules = universe.UnificationRules();

  std::vector<std::unique_ptr<ModeRunner>> runners;
  for (const ModePoint& mode : modes) {
    auto runner = std::make_unique<ModeRunner>();
    runner->mode = mode;
    runner->fault_rng = Rng(config.seed ^ 0xfa017ULL);
    EvalOptions materialize;
    materialize.strategy = mode.strategy;
    materialize.maintenance = mode.maintenance;
    materialize.substrate = mode.substrate;
    materialize.planner = mode.planner;
    runner->request_options.substrate = mode.substrate;
    runner->request_options.planner = mode.planner;
    if (mode.governed) {
      ApplyGenerousBudgets(&materialize);
      ApplyGenerousBudgets(&runner->request_options);
    }
    runner->session.set_materialize_options(materialize);
    if (mode.federated) {
      Gateway::Options gopt;
      gopt.backoff_ms = 0;  // retries without sleeps
      runner->gateway = std::make_shared<Gateway>(gopt);
      for (const auto& tenant : universe.tenants) {
        auto site = std::make_shared<SimulatedRemoteSite>(
            std::make_unique<LocalSite>(
                tenant.name, universe.BuildTenantDatabase(tenant)));
        runner->sites.push_back(site.get());
        Status st = runner->gateway->AddSite(std::move(site));
        if (!st.ok()) return StrCat(mode.Label(), ": ", st.ToString());
      }
      Status st = runner->session.ConnectGateway(runner->gateway);
      if (!st.ok()) return StrCat(mode.Label(), ": ", st.ToString());
    } else {
      for (const auto& tenant : universe.tenants) {
        Status st = runner->session.RegisterDatabase(
            tenant.name, universe.BuildTenantDatabase(tenant));
        if (!st.ok()) return StrCat(mode.Label(), ": ", st.ToString());
      }
    }
    Status st = runner->session.DefineRules(rules);
    if (!st.ok()) return StrCat(mode.Label(), ": ", st.ToString());
    runners.push_back(std::move(runner));
  }

  // Compares every runner's merged universe to the reference's, and the
  // reference's derived views to the oracle when snapshots are given.
  auto compare = [&](const std::string& when, const Value* exp_unified,
                     const Value* exp_roll,
                     const Value* exp_wide) -> std::string {
    std::vector<Value> snaps;
    for (auto& runner : runners) {
      runner->InjectFault();
      auto u = runner->session.universe();
      if (!u.ok()) {
        return StrCat(runner->mode.Label(), " failed ", when, ": ",
                      u.status().ToString());
      }
      snaps.push_back(**u);
    }
    if (inject) {
      // Testing seam: corrupt the last snapshot's unified view so the
      // comparison below must fire.
      Value* u = snaps.back().MutableField("u");
      if (u == nullptr) {
        snaps.back().SetField("u", Value::EmptyTuple());
        u = snaps.back().MutableField("u");
      }
      Value* p = u->MutableField("p");
      if (p == nullptr || !p->is_set()) {
        u->SetField("p", Value::EmptySet());
        p = u->MutableField("p");
      }
      p->Insert(MakeTuple({{"tn", Value::String("zz")},
                           {"ent", Value::String("zz")},
                           {"key", Value::String("zz")},
                           {"val", Value::Int(0)}}));
    }
    for (size_t i = 1; i < snaps.size(); ++i) {
      ++counters->comparisons;
      if (!(snaps[i] == snaps[0])) {
        return StrCat(runners[i]->mode.Label(), " diverges from ",
                      runners[0]->mode.Label(), " ", when);
      }
    }
    if (exp_unified != nullptr &&
        !(NormalizeRel(snaps[0], "u", "p") == *exp_unified)) {
      return StrCat("unified view disagrees with the oracle ", when);
    }
    if (config.customized_views && exp_roll != nullptr) {
      const Value roll = NormalizeDb(snaps[0].FindField("roll"));
      const Value wide = NormalizeDb(snaps[0].FindField("wide"));
      if (!(roll == NormalizeDb(exp_roll))) {
        return StrCat("roll view disagrees with the oracle ", when);
      }
      if (exp_wide != nullptr && !(wide == NormalizeDb(exp_wide))) {
        return StrCat("wide view disagrees with the oracle ", when);
      }
    }
    return "";
  };

  const Value unified = universe.ExpectedUnified();
  const Value roll = universe.ExpectedRoll();
  const Value wide = universe.ExpectedWide();
  std::string mismatch =
      compare("after initial materialization", &unified, &roll, &wide);
  if (!mismatch.empty()) return mismatch;

  if (trace_steps > 0) {
    EvolutionTrace trace =
        GenerateEvolutionTrace(universe, trace_steps, trace_salt);
    for (size_t s = 0; s < trace.steps.size(); ++s) {
      const EvolutionStep& step = trace.steps[s];
      ++counters->steps;
      for (size_t r = 0; r < step.requests.size(); ++r) {
        const std::string& request = step.requests[r];
        ++counters->requests;
        for (auto& runner : runners) {
          runner->InjectFault();
          auto result =
              runner->session.Update(request, runner->request_options);
          if (!result.ok()) {
            return StrCat(runner->mode.Label(), " rejected '", request,
                          "' (step ", s + 1, ": ", step.description,
                          "): ", result.status().ToString());
          }
        }
        const bool last = r + 1 == step.requests.size();
        // Mid-step the logical state is in transit (a flip has dropped
        // but not yet rebuilt its slots), so the oracle only applies at
        // the step boundary; cross-mode equality must hold at every
        // request.
        mismatch = compare(
            StrCat("after '", request, "' (step ", s + 1, ": ",
                   step.description, ")"),
            last ? &step.expected_unified : nullptr,
            last ? &step.expected_roll : nullptr,
            last ? &step.expected_wide : nullptr);
        if (!mismatch.empty()) return mismatch;
      }
    }
  }

  for (auto& runner : runners) {
    if (runner->mode.strategy != EvalStrategy::kSemiNaive) continue;
    if (runner->mode.maintenance != MaintenanceMode::kIncremental) continue;
    if (runner->mode.federated) continue;
    if (const Materialized* m = runner->session.last_materialization()) {
      counters->fallbacks += m->maintenance.fallbacks;
    }
  }
  return "";
}

}  // namespace

SweepReport RunDifferentialSweep(const std::vector<DiscrepancyConfig>& configs,
                                 const SweepOptions& options) {
  SweepReport report;
  const std::vector<ModePoint> modes =
      options.modes.empty() ? FullModeLattice() : options.modes;
  report.modes = modes.size();
  MetricsRegistry& metrics = MetricsRegistry::Global();
  for (const DiscrepancyConfig& config : configs) {
    ++report.universes;
    metrics.counter("workload.sweep_universes")->Increment();
    if (options.trace_steps > 0) ++report.traces;
    CheckCounters counters;
    std::string mismatch = CheckScenario(
        config, options.trace_steps, options.trace_salt, modes,
        options.inject_mismatch_for_testing, &counters);
    report.steps += counters.steps;
    report.requests += counters.requests;
    report.comparisons += counters.comparisons;
    report.fallbacks += counters.fallbacks;
    metrics.counter("workload.sweep_comparisons")
        ->Increment(counters.comparisons);
    if (mismatch.empty()) continue;
    metrics.counter("workload.sweep_mismatches")->Increment();
    report.mismatches.push_back(
        StrCat("[", FormatWorkloadSpec(config), "] ", mismatch));
    if (options.shrink_on_mismatch) {
      ShrinkResult shrunk =
          ShrinkMismatch(config, options.trace_steps, options);
      auto path = WriteReproArtifact(shrunk, options.artifact_dir);
      if (path.ok()) report.repro_paths.push_back(*path);
    }
  }
  return report;
}

// ---- Shrinker ---------------------------------------------------------------

ShrinkResult ShrinkMismatch(const DiscrepancyConfig& config,
                            size_t trace_steps, const SweepOptions& options) {
  const std::vector<ModePoint> modes =
      options.modes.empty() ? FullModeLattice() : options.modes;
  ShrinkResult best;
  best.config = config;
  best.trace_steps = trace_steps;
  auto reproduces = [&](const DiscrepancyConfig& c,
                        size_t steps) -> std::string {
    CheckCounters counters;
    return CheckScenario(c, steps, options.trace_salt, modes,
                         options.inject_mismatch_for_testing, &counters);
  };
  best.mismatch = reproduces(best.config, best.trace_steps);

  // Greedy descent: try each reduction; keep any that still reproduces,
  // and restart from the smaller scenario until nothing shrinks.
  bool reduced = true;
  while (reduced && !best.mismatch.empty()) {
    reduced = false;
    std::vector<std::pair<DiscrepancyConfig, size_t>> candidates;
    auto with = [&](auto mutate) {
      DiscrepancyConfig c = best.config;
      size_t steps = best.trace_steps;
      mutate(&c, &steps);
      candidates.emplace_back(std::move(c), steps);
    };
    if (best.config.num_tenants > 1) {
      with([](DiscrepancyConfig* c, size_t*) {
        c->num_tenants /= 2;
      });
      with([](DiscrepancyConfig* c, size_t*) { --c->num_tenants; });
    }
    if (best.config.num_entities > 1) {
      with([](DiscrepancyConfig* c, size_t*) { c->num_entities /= 2; });
      with([](DiscrepancyConfig* c, size_t*) { --c->num_entities; });
    }
    if (best.config.num_keys > 1) {
      with([](DiscrepancyConfig* c, size_t*) { c->num_keys /= 2; });
      with([](DiscrepancyConfig* c, size_t*) { --c->num_keys; });
    }
    if (best.trace_steps > 0) {
      with([](DiscrepancyConfig*, size_t* steps) { *steps /= 2; });
      with([](DiscrepancyConfig*, size_t* steps) { --*steps; });
    }
    if (best.config.mangle_rate > 0) {
      with([](DiscrepancyConfig* c, size_t*) { c->mangle_rate = 0; });
    }
    if (best.config.customized_views) {
      with([](DiscrepancyConfig* c, size_t*) {
        c->customized_views = false;
      });
    }
    for (auto& [candidate, steps] : candidates) {
      std::string mismatch = reproduces(candidate, steps);
      if (mismatch.empty()) continue;
      best.config = candidate;
      best.trace_steps = steps;
      best.mismatch = std::move(mismatch);
      reduced = true;
      break;
    }
  }
  best.script = BuildReproScript(best.config, best.trace_steps,
                                 options.trace_salt, best.mismatch);
  return best;
}

std::string BuildReproScript(const DiscrepancyConfig& config,
                             size_t trace_steps, uint64_t trace_salt,
                             const std::string& mismatch) {
  DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
  std::string script =
      StrCat("% Minimized repro from the workload differential sweep.\n",
             "% mismatch: ", mismatch.empty() ? "(none)" : mismatch, "\n",
             "% Replays standalone: idl_shell <this file>, or load the\n",
             "% scenario interactively with --workload=\"",
             FormatWorkloadSpec(config), "\".\n",
             "% workload: ", FormatWorkloadSpec(config), "\n\n");
  if (trace_steps > 0) {
    EvolutionTrace trace =
        GenerateEvolutionTrace(universe, trace_steps, trace_salt);
    for (const EvolutionStep& step : trace.steps) {
      script += StrCat("% step: ", step.description, "\n");
      for (const std::string& request : step.requests) {
        script += StrCat(request, ";\n");
      }
    }
    script += "\n";
  }
  script += "?.u.p(.tn=T, .ent=E, .key=K, .val=V);\n";
  script += StrCat("% expected unified relation: ",
                   ToString(universe.ExpectedUnified()), "\n");
  return script;
}

Result<std::string> WriteReproArtifact(const ShrinkResult& shrunk,
                                       const std::string& artifact_dir) {
  namespace fs = std::filesystem;
  fs::path dir;
  if (!artifact_dir.empty()) {
    dir = artifact_dir;
  } else if (const char* env = std::getenv("IDL_WORKLOAD_ARTIFACT_DIR")) {
    dir = env;
  } else {
    dir = fs::temp_directory_path();
  }
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; open reports failure
  fs::path path =
      dir / StrCat("workload_repro_seed", shrunk.config.seed, ".idl");
  std::ofstream out(path);
  if (!out.good()) {
    return Internal(StrCat("cannot write repro artifact ", path.string()));
  }
  out << shrunk.script;
  out.close();
  MetricsRegistry::Global().counter("workload.repro_artifacts")->Increment();
  return path.string();
}

}  // namespace idl
