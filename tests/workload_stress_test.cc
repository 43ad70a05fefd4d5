// Scaled differential sweep, run under the `stress` ctest label (the TSan
// CI leg re-runs it with --repeat until-fail): bigger universes, longer
// evolution traces, full 24-point mode lattice. Shrinking stays ON here —
// a failure in CI leaves a minimized repro script in
// $IDL_WORKLOAD_ARTIFACT_DIR (the workflow uploads it as an artifact).

#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/discrepancy_gen.h"
#include "workload/sweep.h"

namespace idl {
namespace {

std::string Describe(const SweepReport& report) {
  std::string out = FormatSweepReport(report);
  for (const auto& m : report.mismatches) out += "  " + m + "\n";
  for (const auto& p : report.repro_paths) out += "  repro: " + p + "\n";
  return out;
}

TEST(WorkloadStress, ScaledSweepAcrossFullLattice) {
  std::vector<DiscrepancyConfig> configs;
  for (size_t i = 0; i < 16; ++i) {
    DiscrepancyConfig config;
    config.seed = 9000 + i;
    config.num_tenants = 4 + i % 4;   // up to 7 tenants
    config.num_entities = 4 + i % 3;  // up to 6 entities
    config.num_keys = 3 + i % 3;      // up to 5 keys
    config.fact_density = 0.4 + 0.15 * static_cast<double>(i % 4);
    config.mangle_rate = 0.4;
    configs.push_back(config);
  }
  SweepOptions options;
  options.trace_steps = 12;
  options.trace_salt = 99;
  SweepReport report = RunDifferentialSweep(configs, options);
  std::cout << FormatSweepReport(report);
  EXPECT_TRUE(report.ok()) << Describe(report);
  EXPECT_EQ(report.universes, 16u);
  EXPECT_EQ(report.modes, 24u);  // 16 base + 8 cost-planned semi-naive
  EXPECT_EQ(report.steps, 16u * 12u);
  EXPECT_EQ(report.fallbacks, 0u) << "incremental maintenance regressed";
}

}  // namespace
}  // namespace idl
