// The cross-mode differential sweep (src/workload/sweep.h) as a tier-1
// gate: generated multi-tenant discrepancy universes and schema-evolution
// traces must produce byte-identical unified answers across the full
// strategy x maintenance x federation x governor lattice (24 modes), agree
// with the generator's oracle at every step boundary, and never regress
// the incremental-maintenance fast paths into fallbacks. The deliberate
// mismatch test proves the detect -> shrink -> repro-artifact pipeline
// actually fires when something diverges.
//
// A scaled variant runs under the `stress` ctest label
// (tests/workload_stress_test.cc); this file stays fast enough for every
// tier-1 leg.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/discrepancy_gen.h"
#include "workload/sweep.h"

namespace idl {
namespace {

namespace fs = std::filesystem;

std::string Describe(const SweepReport& report) {
  std::string out = FormatSweepReport(report);
  for (const auto& m : report.mismatches) out += "  " + m + "\n";
  return out;
}

// Varied small configs: tenant counts, shapes, densities and mangling
// rates all move with the seed so the 24-mode lattice sees a broad slice
// of the style space.
std::vector<DiscrepancyConfig> VariedConfigs(uint64_t first_seed,
                                             size_t count) {
  std::vector<DiscrepancyConfig> configs;
  for (size_t i = 0; i < count; ++i) {
    DiscrepancyConfig config;
    config.seed = first_seed + i;
    config.num_tenants = 2 + i % 3;
    config.num_entities = 3 + i % 2;
    config.num_keys = 2 + i % 2;
    config.fact_density = 0.45 + 0.1 * static_cast<double>(i % 4);
    config.mangle_rate = (i % 3) * 0.5;
    config.customized_views = i % 4 != 3;
    configs.push_back(config);
  }
  return configs;
}

TEST(WorkloadDifferential, StaticUniversesAcrossFullLattice) {
  SweepOptions options;
  options.shrink_on_mismatch = false;  // assert first, shrink manually
  SweepReport report = RunDifferentialSweep(VariedConfigs(1, 50), options);
  std::cout << FormatSweepReport(report);
  EXPECT_TRUE(report.ok()) << Describe(report);
  EXPECT_EQ(report.universes, 50u);
  EXPECT_EQ(report.modes, 24u);  // 16 base + 8 cost-planned semi-naive
  EXPECT_GT(report.comparisons, 50u * 23u - 1);
  EXPECT_EQ(report.fallbacks, 0u) << "incremental maintenance regressed";
}

TEST(WorkloadDifferential, EvolutionTracesAcrossFullLattice) {
  SweepOptions options;
  options.shrink_on_mismatch = false;
  options.trace_steps = 6;
  options.trace_salt = 11;
  SweepReport report = RunDifferentialSweep(VariedConfigs(101, 12), options);
  std::cout << FormatSweepReport(report);
  EXPECT_TRUE(report.ok()) << Describe(report);
  EXPECT_EQ(report.traces, 12u);
  EXPECT_EQ(report.steps, 12u * 6u);
  EXPECT_GT(report.requests, report.steps);  // flips emit several requests
  EXPECT_EQ(report.fallbacks, 0u) << "incremental maintenance regressed";
}

// The deliberate-fault test: with the injection seam on, the sweep must
// detect the divergence, shrink the scenario to the floor (the injection
// reproduces everywhere, so every reduction keeps reproducing), and write
// a standalone repro script.
TEST(WorkloadDifferential, InjectedMismatchShrinksToMinimalRepro) {
  fs::path dir = fs::path(::testing::TempDir()) / "workload_artifacts";
  fs::remove_all(dir);

  SweepOptions options;
  options.inject_mismatch_for_testing = true;
  options.trace_steps = 4;
  options.artifact_dir = dir.string();
  // Two modes keep the shrinker's re-runs cheap; the reference plus the
  // mode the injection corrupts.
  options.modes = {ModePoint{EvalStrategy::kNaive,
                             MaintenanceMode::kRematerialize, false, false,
                             false},
                   ModePoint{}};

  DiscrepancyConfig config;
  config.seed = 500;
  config.num_tenants = 4;
  config.num_entities = 4;
  config.num_keys = 3;
  SweepReport report = RunDifferentialSweep({config}, options);

  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_NE(report.mismatches[0].find("diverges from"), std::string::npos)
      << report.mismatches[0];
  ASSERT_EQ(report.repro_paths.size(), 1u);
  const std::string& path = report.repro_paths[0];
  ASSERT_TRUE(fs::exists(path)) << path;

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string script = buffer.str();
  EXPECT_NE(script.find("% workload: "), std::string::npos) << script;
  EXPECT_NE(script.find("?.u.p(.tn=T, .ent=E, .key=K, .val=V);"),
            std::string::npos)
      << script;
  EXPECT_NE(script.find("% mismatch: "), std::string::npos) << script;

  // The injection reproduces on any scenario, so the shrinker must reach
  // the floor: one tenant, one entity, one key, no trace, no extras.
  size_t at = script.find("% workload: ");
  ASSERT_NE(at, std::string::npos);
  std::string spec_line =
      script.substr(at + sizeof("% workload: ") - 1,
                    script.find('\n', at) - at - sizeof("% workload: ") + 1);
  auto shrunk = ParseWorkloadSpec(spec_line);
  ASSERT_TRUE(shrunk.ok()) << spec_line << ": "
                           << shrunk.status().ToString();
  EXPECT_EQ(shrunk->num_tenants, 1u) << spec_line;
  EXPECT_EQ(shrunk->num_entities, 1u) << spec_line;
  EXPECT_EQ(shrunk->num_keys, 1u) << spec_line;
  EXPECT_DOUBLE_EQ(shrunk->mangle_rate, 0.0) << spec_line;
  EXPECT_FALSE(shrunk->customized_views) << spec_line;
  // No trace survived shrinking: the script replays no update requests.
  EXPECT_EQ(script.find("% step: "), std::string::npos) << script;
}

// The shrinker on a clean scenario: nothing reproduces, the result keeps
// the scenario and reports no mismatch (guards the precondition contract).
TEST(WorkloadDifferential, ShrinkerOnCleanScenarioReportsNothing) {
  SweepOptions options;
  options.modes = {ModePoint{EvalStrategy::kNaive,
                             MaintenanceMode::kRematerialize, false, false,
                             false},
                   ModePoint{}};
  DiscrepancyConfig config;
  config.seed = 7;
  ShrinkResult shrunk = ShrinkMismatch(config, 0, options);
  EXPECT_TRUE(shrunk.mismatch.empty());
  EXPECT_EQ(shrunk.config.seed, config.seed);
}

// Artifact-dir resolution honors IDL_WORKLOAD_ARTIFACT_DIR (the CI stress
// leg points it at the uploaded artifact directory).
TEST(WorkloadDifferential, ArtifactDirFromEnvironment) {
  fs::path dir = fs::path(::testing::TempDir()) / "workload_env_artifacts";
  fs::remove_all(dir);
  ASSERT_EQ(setenv("IDL_WORKLOAD_ARTIFACT_DIR", dir.c_str(), 1), 0);
  ShrinkResult shrunk;
  shrunk.config.seed = 321;
  shrunk.script = "% workload: seed=321 tenants=1\n";
  auto path = WriteReproArtifact(shrunk, "");
  unsetenv("IDL_WORKLOAD_ARTIFACT_DIR");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(fs::exists(*path));
  EXPECT_NE(path->find("workload_env_artifacts"), std::string::npos);
  EXPECT_NE(path->find("workload_repro_seed321.idl"), std::string::npos);
}

}  // namespace
}  // namespace idl
