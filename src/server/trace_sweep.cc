#include "server/trace_sweep.h"

#include <memory>
#include <utility>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "idl/session.h"

namespace idl {

namespace {

// The relation at universe.db.rel, or an empty set when absent (views that
// lost every row may survive as empty slots — the oracle compares facts;
// mirrors the normalization in workload/sweep.cc).
Value RelOrEmpty(const Value& universe, const char* db, const char* rel) {
  const Value* d = universe.FindField(db);
  const Value* r = d == nullptr ? nullptr : d->FindField(rel);
  return r == nullptr ? Value::EmptySet() : *r;
}

// Runs one generated universe's trace through a fresh server. Returns ""
// when every comparison held, else a description of the first mismatch.
std::string CheckUniverse(const DiscrepancyConfig& config,
                          const ServerSweepOptions& options,
                          ServerSweepReport* report) {
  DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
  const std::vector<std::string> rules = universe.UnificationRules();

  // The server under test and the shadow serial oracle session, identically
  // populated. The shadow applies every request on the caller thread; each
  // published epoch must equal its merged universe exactly.
  Server server(options.server);
  Session shadow;
  EvalOptions shadow_materialize = options.server.materialize;
  shadow_materialize.substrate = options.shadow_substrate;
  shadow.set_materialize_options(shadow_materialize);
  for (const auto& tenant : universe.tenants) {
    Value db = universe.BuildTenantDatabase(tenant);
    if (Status st = server.RegisterDatabase(tenant.name, db); !st.ok()) {
      return StrCat("server setup: ", st.ToString());
    }
    if (Status st = shadow.RegisterDatabase(tenant.name, std::move(db));
        !st.ok()) {
      return StrCat("shadow setup: ", st.ToString());
    }
  }
  if (Status st = server.DefineRules(rules); !st.ok()) {
    return StrCat("server rules: ", st.ToString());
  }
  if (Status st = shadow.DefineRules(rules); !st.ok()) {
    return StrCat("shadow rules: ", st.ToString());
  }

  std::vector<ServerSession> readers;
  for (size_t i = 0; i < options.reader_sessions; ++i) {
    Result<ServerSession> session = server.Connect();
    if (!session.ok()) {
      return StrCat("connect: ", session.status().ToString());
    }
    readers.push_back(std::move(session).value());
  }
  ThreadPool pool(readers.size() > 1 ? readers.size() - 1 : 0);

  // Compares each published epoch against the shadow serial session.
  auto serial_check = [&](const EpochPtr& epoch,
                          const std::string& when) -> std::string {
    Result<const Value*> u = shadow.universe();
    if (!u.ok()) {
      return StrCat("shadow failed ", when, ": ", u.status().ToString());
    }
    ++report->serial_checks;
    if (!(epoch->universe == **u)) {
      return StrCat("epoch ", epoch->id,
                    " diverges from serial execution ", when);
    }
    return "";
  };

  // All readers re-pin, then concurrently check the unified view against
  // the oracle snapshot through the normal reader query path.
  auto reader_check = [&](const Value& expected_unified,
                          const std::string& when) -> std::string {
    for (auto& reader : readers) {
      if (Status st = reader.Refresh(); !st.ok()) {
        return StrCat("refresh failed ", when, ": ", st.ToString());
      }
    }
    std::vector<std::string> failures(readers.size());
    pool.ParallelFor(readers.size(), [&](size_t task) {
      Result<Answer> answer =
          readers[task].Query("?.u.p(.tn=T, .ent=E, .key=K, .val=V)");
      if (!answer.ok()) {
        failures[task] = answer.status().ToString();
        return;
      }
      // The reader's pinned epoch must carry the oracle's facts exactly.
      if (!(RelOrEmpty(readers[task].epoch()->universe, "u", "p") ==
            expected_unified)) {
        failures[task] = "unified view disagrees with the oracle";
        return;
      }
      // And the projected answer must enumerate one row per fact.
      if (answer->rows.size() != expected_unified.SetSize()) {
        failures[task] =
            StrCat("answer has ", answer->rows.size(), " rows, oracle has ",
                   expected_unified.SetSize());
      }
    });
    report->reader_checks += readers.size();
    for (size_t i = 0; i < failures.size(); ++i) {
      if (!failures[i].empty()) {
        return StrCat("reader ", i, " ", when, ": ", failures[i]);
      }
    }
    return "";
  };

  // Initial boundary: epoch 1 (plus one epoch per rule batch) against the
  // pre-trace oracle.
  const Value initial_unified = universe.ExpectedUnified();
  {
    Result<EpochPtr> epoch = server.PublishedEpoch();
    if (!epoch.ok()) return StrCat("publish: ", epoch.status().ToString());
    ++report->epochs;  // count the epoch the readers start from
    if (std::string m = serial_check(*epoch, "after setup"); !m.empty()) {
      return m;
    }
  }
  if (std::string m = reader_check(initial_unified, "after setup");
      !m.empty()) {
    return m;
  }

  EvolutionTrace trace =
      GenerateEvolutionTrace(universe, options.trace_steps, options.trace_salt);
  for (size_t s = 0; s < trace.steps.size(); ++s) {
    const EvolutionStep& step = trace.steps[s];
    ++report->steps;
    const std::string when =
        StrCat("at step ", s, " (", step.description, ")");
    for (const std::string& request : step.requests) {
      Result<CommitResult> committed = server.Commit(request);
      if (!committed.ok()) {
        return StrCat("commit failed ", when, " on '", request, "': ",
                      committed.status().ToString());
      }
      ++report->commits;
      ++report->epochs;
      auto applied = shadow.Update(request);
      if (!applied.ok()) {
        return StrCat("shadow update failed ", when, ": ",
                      applied.status().ToString());
      }
      if (std::string m = serial_check(committed->epoch, when); !m.empty()) {
        return m;
      }
    }
    if (std::string m = reader_check(step.expected_unified, when);
        !m.empty()) {
      return m;
    }
  }
  return "";
}

}  // namespace

ServerSweepReport RunServerTraceSweep(
    const std::vector<DiscrepancyConfig>& configs,
    const ServerSweepOptions& options) {
  ServerSweepReport report;
  for (const DiscrepancyConfig& config : configs) {
    ++report.universes;
    std::string mismatch = CheckUniverse(config, options, &report);
    if (!mismatch.empty()) {
      report.mismatches.push_back(
          StrCat("universe seed=", config.seed, ": ", mismatch));
    }
  }
  return report;
}

std::string FormatServerSweepReport(const ServerSweepReport& report) {
  return StrCat("server-sweep: universes=", report.universes,
                " steps=", report.steps, " commits=", report.commits,
                " epochs=", report.epochs,
                " serial_checks=", report.serial_checks,
                " reader_checks=", report.reader_checks,
                " mismatches=", report.mismatches.size(), "\n");
}

}  // namespace idl
