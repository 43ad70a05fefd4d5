// Cancellation stress for incremental maintenance (views/engine.h
// ApplyDelta). Two layers, mirroring governor_interrupt_test:
//
//  * a deterministic injection sweep that cancels the maintenance pass at
//    the Nth governor checkpoint for growing N — after every abort the base
//    universe is untouched and the next request recovers by falling back to
//    a full rematerialization that agrees with the oracle;
//  * concurrent cancellation from a second thread while ApplyDelta runs
//    (the `stress` ctest label; the TSan CI leg re-runs it).

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "idl/session.h"
#include "object/builder.h"
#include "object/value.h"

namespace idl {
namespace {

Value ChainDatabase(int stocks, int edges) {
  Value succ = Value::EmptyTuple();
  for (int s = 0; s < stocks; ++s) {
    Value rel = Value::EmptySet();
    for (int d = 0; d < edges; ++d) {
      rel.Insert(
          MakeTuple({{"from", Value::Int(d)}, {"to", Value::Int(d + 1)}}));
    }
    succ.SetField(StrCat("stk", s), std::move(rel));
  }
  return succ;
}

// Higher-order reachability: relation names flow from data, so maintenance
// must consult recorded writes, not just rule heads, when restricting work.
const std::vector<std::string>& ReachRules() {
  static const auto& kRules = *new std::vector<std::string>{
      ".reach.S(.from=X, .to=Y) <- .succ.S(.from=X, .to=Y)",
      ".reach.S(.from=X, .to=Z) <- "
      ".reach.S(.from=X, .to=Y), .succ.S(.from=Y, .to=Z)",
  };
  return kRules;
}

EvalOptions RematerializeOptions() {
  EvalOptions options;
  options.maintenance = MaintenanceMode::kRematerialize;
  return options;
}

// The round-robin trace both layers drive: inserts extend one chain,
// deletes punch a hole in another (forcing the delete-and-rederive path).
std::string TraceRequest(int round) {
  if (round % 2 == 0) {
    const int n = 100 + round;
    return StrCat("?.succ.stk", round % 4, "+(.from=", n, ", .to=", n + 1,
                  ")");
  }
  return StrCat("?.succ.stk", round % 4, "-(.from=", 2 + round % 5, ")");
}

// Deterministic sweep: cancel the request at its k-th governor checkpoint.
// The request's governor parents the maintenance governor, so for small k
// the injection lands inside ApplyDelta itself.
TEST(IncrementalStress, InjectionSweepRecoversAndAgreesWithOracle) {
  Session inc;
  Session oracle;
  ASSERT_TRUE(inc.RegisterDatabase("succ", ChainDatabase(4, 12)).ok());
  ASSERT_TRUE(oracle.RegisterDatabase("succ", ChainDatabase(4, 12)).ok());
  ASSERT_TRUE(inc.DefineRules(ReachRules()).ok());
  ASSERT_TRUE(oracle.DefineRules(ReachRules()).ok());
  oracle.set_materialize_options(RematerializeOptions());

  uint64_t cancelled_runs = 0;
  bool completed = false;
  int round = 0;
  for (uint64_t k = 1; k < (1u << 24); k += 1 + k / 32) {
    // Warm: restore a maintainable materialization (full rebuild after an
    // abort, incremental otherwise), then queue a fresh delta.
    auto warm = inc.Query("?.reach.stk0(.from=X, .to=Y)");
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const std::string request = TraceRequest(round++);
    auto applied = inc.Update(request);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(oracle.Update(request).ok());
    const uint64_t base_hash = inc.base_universe().Hash();

    EvalOptions options;
    options.cancel_at_checkpoint = k;
    auto r = inc.Query("?.reach.stk1(.from=X, .to=Y)", options);
    if (r.ok()) {
      completed = true;
      break;
    }
    ++cancelled_runs;
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
    ASSERT_EQ(inc.base_universe().Hash(), base_hash)
        << "base universe mutated by maintenance cancelled at checkpoint "
        << k;
    // Recovery: an ungoverned request rebuilds and matches the oracle.
    auto ui = inc.universe();
    auto uo = oracle.universe();
    ASSERT_TRUE(ui.ok()) << ui.status().ToString();
    ASSERT_TRUE(uo.ok()) << uo.status().ToString();
    ASSERT_EQ(**ui, **uo) << "recovery diverged after checkpoint " << k;
  }
  ASSERT_TRUE(completed) << "sweep never out-ran the request's checkpoints";
  EXPECT_GT(cancelled_runs, 5u);  // the sweep actually injected
  auto ui = inc.universe();
  auto uo = oracle.universe();
  ASSERT_TRUE(ui.ok() && uo.ok());
  EXPECT_EQ(**ui, **uo);
}

// Concurrent cancellation: a second thread flips the session's cancel token
// at staggered offsets while universe() runs an ApplyDelta pass on pool
// workers. Whatever the race's outcome, a reset handle plus one more
// request must converge to the oracle.
TEST(IncrementalStress, ConcurrentCancelDuringApplyDelta) {
  Session inc;
  Session oracle;
  ASSERT_TRUE(inc.RegisterDatabase("succ", ChainDatabase(8, 20)).ok());
  ASSERT_TRUE(oracle.RegisterDatabase("succ", ChainDatabase(8, 20)).ok());
  ASSERT_TRUE(inc.DefineRules(ReachRules()).ok());
  ASSERT_TRUE(oracle.DefineRules(ReachRules()).ok());
  oracle.set_materialize_options(RematerializeOptions());
  CancelHandle handle = inc.cancel_handle();
  ASSERT_TRUE(inc.universe().ok());

  for (int round = 0; round < 8; ++round) {
    handle.Reset();
    const std::string request = TraceRequest(round);
    auto applied = inc.Update(request);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(oracle.Update(request).ok());

    std::thread canceller([&handle, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
      handle.Cancel();
    });
    auto racy = inc.universe();
    canceller.join();
    if (!racy.ok()) {
      EXPECT_EQ(racy.status().code(), StatusCode::kCancelled)
          << racy.status().ToString();
    }

    handle.Reset();
    auto ui = inc.universe();
    auto uo = oracle.universe();
    ASSERT_TRUE(ui.ok()) << ui.status().ToString();
    ASSERT_TRUE(uo.ok()) << uo.status().ToString();
    ASSERT_EQ(**ui, **uo) << "round " << round << " diverged after cancel";
  }
}

}  // namespace
}  // namespace idl
