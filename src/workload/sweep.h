// Cross-mode differential sweep over generated discrepancy workloads.
//
// A ModePoint is one configuration of the engine's mode lattice:
//
//   strategy     naive | semi-naive
//   maintenance  rematerialize | incremental
//   federation   direct (databases registered in-process) | gateway
//                (every tenant behind a SimulatedRemoteSite with injected
//                transient faults, absorbed by the gateway's retries)
//   governor     ungoverned | generous pass/derivation budgets on every
//                request and materialization (counters run, limits never
//                bind — wall-clock budgets would be flaky under sanitizers)
//   planner      written order | cost-based (semi-naive points only: the
//                cost-based planner must be byte-identical to written
//                order, so every semi-naive point gets a "/plan" variant
//                cross-checked against the whole lattice)
//
// FullModeLattice() enumerates the 2 x 2 x 2 x 2 = 16 base points plus a
// cost-planned variant of each of the 8 semi-naive points (24 total); the
// first is the reference (naive / rematerialize / direct / ungoverned — the
// oracle strategy evaluating from scratch with no federation or governor in
// the loop).
//
// RunDifferentialSweep drives every generated universe (and optionally an
// evolution trace) through all modes in lockstep: after the initial
// materialization and again after *every* update request, all sessions'
// merged universes must be byte-identical (Value equality) to the
// reference's, and at every step boundary the reference's unified and
// customized views must equal the generator's oracle. Any divergence is
// reported, and — unless disabled — handed to the shrinker, which
// minimizes the (config, trace) pair dimension by dimension while the
// mismatch reproduces, then writes a standalone .idl repro script (a
// "% workload:" spec plus the literal requests) as a test artifact.

#ifndef IDL_WORKLOAD_SWEEP_H_
#define IDL_WORKLOAD_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/query.h"
#include "workload/discrepancy_gen.h"

namespace idl {

struct ModePoint {
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  MaintenanceMode maintenance = MaintenanceMode::kIncremental;
  // Tenants behind a federation gateway (SimulatedRemoteSite per tenant)
  // instead of locally registered databases.
  bool federated = false;
  // Schedule transient site faults before every step (federated only);
  // the gateway's retries must absorb them without changing any answer.
  bool faulty = false;
  // Generous (never-binding) governor budgets on requests and
  // materializations.
  bool governed = false;
  // Evaluation substrate (eval/query.h). FullModeLattice runs the naive
  // strategy points — including the reference — on the tuple-at-a-time
  // kNested oracle, so every sweep cross-checks the columnar kernels
  // against it on all five discrepancy styles.
  EvalSubstrate substrate = EvalSubstrate::kColumnar;
  // Conjunct-ordering planner (eval/query.h). FullModeLattice adds a
  // kCostBased variant of every semi-naive point, so each sweep proves the
  // planner answer-identical across maintenance, federation and governor
  // modes.
  PlannerMode planner = PlannerMode::kWrittenOrder;

  // "semi/inc/fed+faults/gov/plan" — stable, locked by
  // explain_format_test ("/plan" appended only under kCostBased, so the 16
  // base labels are unchanged).
  std::string Label() const;
};

// The full 24-point lattice (16 base + 8 cost-planned semi-naive
// variants); [0] is the reference mode.
std::vector<ModePoint> FullModeLattice();

struct SweepOptions {
  // Modes to run (empty = FullModeLattice()). [0] is the reference.
  std::vector<ModePoint> modes;
  // Evolution-trace steps per universe (0 = static universes only).
  size_t trace_steps = 0;
  // Salt mixed into the trace RNG (distinct sweeps over the same configs).
  uint64_t trace_salt = 0;
  // Minimize mismatches and write repro artifacts.
  bool shrink_on_mismatch = true;
  // Where repro scripts land ("" = $IDL_WORKLOAD_ARTIFACT_DIR, falling
  // back to the system temp directory).
  std::string artifact_dir;
  // Testing seam: corrupt the last mode's unified-view snapshot at every
  // comparison point, so the detect -> shrink -> artifact pipeline runs
  // end-to-end against a guaranteed mismatch.
  bool inject_mismatch_for_testing = false;
};

struct SweepReport {
  size_t universes = 0;
  size_t traces = 0;
  size_t steps = 0;     // evolution steps replayed
  size_t requests = 0;  // update requests applied (per mode)
  size_t modes = 0;
  size_t comparisons = 0;  // cross-mode universe comparisons
  // Incremental-maintenance fallbacks observed in non-federated
  // semi-naive/incremental modes (federated resyncs may legitimately
  // rebuild). The tier-1 sweep asserts this stays zero.
  uint64_t fallbacks = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> repro_paths;  // shrunk artifacts, one per mismatch

  bool ok() const { return mismatches.empty(); }
};

SweepReport RunDifferentialSweep(const std::vector<DiscrepancyConfig>& configs,
                                 const SweepOptions& options);

// One line, locked by tests/explain_format_test.cc:
//   "sweep: universes=50 traces=10 steps=80 requests=212 modes=24
//    comparisons=12345 fallbacks=0 mismatches=0\n"
std::string FormatSweepReport(const SweepReport& report);

// ---- Shrinker ---------------------------------------------------------------

struct ShrinkResult {
  DiscrepancyConfig config;  // minimized
  size_t trace_steps = 0;    // minimized
  std::string mismatch;      // description from the minimized reproduction
  std::string script;        // standalone .idl repro
};

// Re-runs (config, trace_steps) through options.modes, then greedily
// shrinks tenants / entities / keys / steps / mangling / views while the
// mismatch keeps reproducing. Precondition: the input pair mismatches.
ShrinkResult ShrinkMismatch(const DiscrepancyConfig& config,
                            size_t trace_steps, const SweepOptions& options);

// The standalone repro script for a (possibly shrunk) scenario: the
// workload spec directive, the trace's literal update requests, and a
// final query over the unified view.
std::string BuildReproScript(const DiscrepancyConfig& config,
                             size_t trace_steps, uint64_t trace_salt,
                             const std::string& mismatch);

// Writes the shrink result's script into `artifact_dir` (see
// SweepOptions::artifact_dir for the fallbacks); returns the path.
Result<std::string> WriteReproArtifact(const ShrinkResult& shrunk,
                                       const std::string& artifact_dir);

}  // namespace idl

#endif  // IDL_WORKLOAD_SWEEP_H_
