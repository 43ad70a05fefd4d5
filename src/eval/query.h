// Conjunctive query evaluation over the universe (paper §4).
//
// A query `? c1, ..., ck` is one tuple expression on the universe whose items
// are the conjuncts; evaluation enumerates grounding substitutions
// left-to-right with sideways information passing, and the answer is the set
// of bindings of the query's positive free variables (§4.2: "the answer to a
// query is the set of grounding substitutions satisfying the query"). A
// variable-free query yields a boolean.

#ifndef IDL_EVAL_QUERY_H_
#define IDL_EVAL_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "eval/explain.h"
#include "eval/substitution.h"
#include "object/value.h"
#include "syntax/ast.h"

namespace idl {

// The answer to a query: a relation over the free variables.
struct Answer {
  std::vector<std::string> columns;        // free variables, in query order
  std::vector<std::vector<Value>> rows;    // deduplicated bindings
  bool boolean() const { return !rows.empty(); }

  // The row values for `var` across all rows (convenience for tests).
  std::vector<Value> Column(const std::string& var) const;

  // Renders as an aligned text table (column headers + rows).
  std::string ToTable() const;
};

// How ViewEngine::Materialize evaluates rules (see views/engine.h).
enum class EvalStrategy {
  // Re-enumerate every rule body over the full universe each fixpoint pass.
  // O(passes x rules x universe); kept as the differential-test oracle.
  kNaive,
  // Semi-naive delta evaluation: passes after the first only re-derive
  // substitutions whose body touches a fact derived in the previous pass,
  // with independent rules of one evaluation level merged into one wave.
  kSemiNaive,
};

// How the session keeps a cached materialization current across base
// changes (see views/engine.h ApplyDelta and docs/INCREMENTAL.md).
enum class MaintenanceMode {
  // Propagate structured base deltas into the retained materialization:
  // insertions semi-naively, everything else by delete-and-rederive
  // restricted to the affected strata. Falls back to a full
  // rematerialization whenever the delta cannot be maintained safely.
  kIncremental,
  // Discard and rebuild from scratch on every base change; kept as the
  // differential oracle for the incremental path.
  kRematerialize,
};

// Which physical representation evaluates flat relations (see
// docs/COLUMNAR.md and relational/columnar.h).
enum class EvalSubstrate {
  // Vectorized kernels over per-attribute column vectors for flat
  // relations, falling back to tuple-at-a-time matching for everything the
  // planner cannot vectorize (higher-order attribute variables, negation,
  // non-flat sets). Transcript-identical to kNested by construction.
  kColumnar,
  // Tuple-at-a-time matching over nested Values everywhere; kept as the
  // differential oracle (the same naive-vs-optimized proof pattern as
  // EvalStrategy::kNaive and MaintenanceMode::kRematerialize).
  kNested,
};

class ColumnarStore;
class SetIndexCache;

// How rule-body conjuncts are ordered for enumeration (see
// src/planner/planner.h and docs/PLANNER.md).
enum class PlannerMode {
  // Evaluate conjuncts exactly in written order (after defer_negation).
  // Kept as the differential oracle: the planned mode must be
  // answer-identical to this one, including error timing.
  kWrittenOrder,
  // Cost-based: greedy bound-variable-first join reordering driven by
  // cardinality estimates, plus compile-time specialization of
  // higher-order conjuncts into their first-order instances. Emission
  // order and error behaviour are reconstructed to match kWrittenOrder
  // exactly (byte-identical answers).
  kCostBased,
};

struct EvalOptions {
  // Move negated conjuncts after all positive ones (keeps left-to-right
  // binding order safe without requiring the user to order them).
  bool defer_negation = true;
  // Cap on result rows (0 = unlimited).
  size_t max_rows = 0;
  // Build equality indexes over large sets for the duration of the
  // evaluation (ablated by bench_ablation_index).
  bool use_indexes = true;
  // Sets smaller than this are scanned, not indexed.
  size_t index_min_set_size = 32;
  // Materialization only: fixpoint evaluation strategy.
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  // Materialization only: how the session maintains the cached
  // materialization across base changes. Incremental maintenance needs the
  // per-level state only kSemiNaive records, so kNaive always
  // rematerializes regardless of this setting.
  MaintenanceMode maintenance = MaintenanceMode::kIncremental;
  // Physical evaluation substrate for flat relations.
  EvalSubstrate substrate = EvalSubstrate::kColumnar;
  // Conjunct-ordering planner. kCostBased reorders and specializes rule
  // bodies behind an emission-order reconstruction that keeps answers
  // byte-identical to kWrittenOrder (the oracle). Ignored (written order)
  // when max_rows is set: early-stop semantics are defined on the written
  // emission order.
  PlannerMode planner = PlannerMode::kWrittenOrder;
  // Pre-built columnar pages for this universe (server epochs share them
  // across sessions). Null = build pages on demand per index-cache
  // generation. Ignored under kNested.
  const ColumnarStore* columnar_store = nullptr;

  // ---- Resource-governor budgets (common/governor.h; 0 = unbounded) -------
  // The session builds one ResourceGovernor per request from these; a
  // request that exceeds a budget aborts with kDeadlineExceeded /
  // kResourceExhausted and leaves the universe exactly as it was.
  // Wall-clock deadline for the whole request.
  int deadline_ms = 0;
  // Fixpoint passes a materialization may run (guards divergent programs).
  int max_passes = 0;
  // Body substitutions a materialization may process.
  uint64_t max_derivations = 0;
  // Universe size budget in object-model cells (see CountCells).
  uint64_t max_universe_cells = 0;
  // Interrupt-injection seam for tests: cancel at the Nth governor
  // checkpoint (see GovernorLimits::cancel_at_checkpoint).
  uint64_t cancel_at_checkpoint = 0;
};

// The governor budgets carried by `options`, ready for ResourceGovernor.
GovernorLimits GovernorLimitsFrom(const EvalOptions& options);

// Evaluates a pure query (no update markers) against `universe`.
// `stats`, if non-null, accumulates work counters. `governor`, if non-null,
// is polled at every enumeration step: a cancelled or out-of-budget
// evaluation unwinds with the governor's abort status.
// `index_cache`, if non-null, persists set indexes and columnar pages
// across calls (the caller owns generation invalidation — see
// eval/index.h); sessions pass their hoisted query cache here so repeated
// queries over an unchanged universe reuse pages.
Result<Answer> EvaluateQuery(const Value& universe, const Query& query,
                             const EvalOptions& options = EvalOptions(),
                             EvalStats* stats = nullptr,
                             const ResourceGovernor* governor = nullptr,
                             SetIndexCache* index_cache = nullptr);

// Evaluates the conjunction and calls back with every satisfying
// substitution (used by the view engine and the update applier, which need
// the substitutions themselves rather than a projected answer).
Result<bool> EnumerateBindings(
    const Value& universe, const std::vector<ExprPtr>& conjuncts,
    const EvalOptions& options, EvalStats* stats,
    const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor = nullptr,
    SetIndexCache* index_cache = nullptr);

// A body conjunct paired with the universe it reads. Semi-naive evaluation
// points one conjunct at the (much smaller) delta universe of the previous
// fixpoint pass while the rest read the full one.
struct ConjunctSource {
  const Expr* expr = nullptr;
  const Value* universe = nullptr;
};

struct PlanInfo;

// Lower-level enumeration: per-conjunct universes and an optional external
// index cache (persistent across calls; the caller is responsible for
// generation-invalidating it — see eval/index.h). When `index_cache` is
// null and options.use_indexes is set, a throwaway per-call cache is used,
// which is exactly EnumerateBindings' behaviour. `plan_info`, if non-null,
// accumulates what the cost-based planner did (src/planner/planner.h).
Result<bool> EnumerateBindingsOver(
    const std::vector<ConjunctSource>& conjuncts, const EvalOptions& options,
    EvalStats* stats, SetIndexCache* index_cache,
    const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor = nullptr, PlanInfo* plan_info = nullptr);

}  // namespace idl

#endif  // IDL_EVAL_QUERY_H_
