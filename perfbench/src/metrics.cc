// The metric names of BENCHMARK.json, in one place, and the traced read the
// reader workloads share.

#include <stdexcept>
#include <utility>
#include <vector>

#include "syntax/parser.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Per-layer metrics: (name, unit), in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"syntax.parse_us_point", "us"},
      {"syntax.parse_us_scan", "us"},
      {"eval.evaluate_us_point", "us"},
      {"eval.evaluate_us_scan", "us"},
      {"eval.elements_scanned_per_row", "ratio"},
      {"eval.indexes_built_per_query", "ratio"},
      {"eval.enumerate_ms", "ms"},
      {"planner.plan_ms", "ms"},
      {"views.write_ms", "ms"},
      {"views.write_share", "ratio"},
      {"views.changes_per_fact", "ratio"},
      {"views.unattributed_ms", "ms"},
      {"views.stratify_ms", "ms"},
      {"views.maintain_ms_insert", "ms"},
      {"views.maintain_ms_delete", "ms"},
      {"views.rederived_per_commit", "count"},
      {"views.dred_share", "ratio"},
      {"update.apply_ms_insert", "ms"},
      {"update.apply_ms_delete", "ms"},
      {"programs.apply_ms_view_update", "ms"},
      {"object.snapshot_ms", "ms"},
      {"object.snapshot_cells", "count"},
      {"relational.columnar_build_ms", "ms"},
      {"relational.pages_shared_ratio", "ratio"},
      {"durability.wal_append_ms", "ms"},
      {"durability.wal_bytes_per_commit", "B"},
      {"durability.checkpoint_ms", "ms"},
      {"durability.recover_ms", "ms"},
      {"durability.replayed_records", "count"},
      {"server.queue_wait_ms_p50", "ms"},
      {"server.refresh_us", "us"},
      {"server.commit_unattributed_ms_insert", "ms"},
      {"server.commit_unattributed_ms_delete", "ms"},
      {"common.build_cpu_per_wall", "ratio"},
      {"common.parallel_tasks", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.attributed_share", "ratio"},
  };
  return metrics;
}

}  // namespace

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  report->Metric("setup_s", e.setup_s.Median(), "s");
  // Means, not medians: a class mixes request kinds of very different cost
  // in fixed proportions, and the median of such a mix sits on the boundary
  // between two kinds, where it jumps.
  report->Metric("light_ms_mean", e.light.Mean(), "ms");
  report->Metric("light_ms_tail", e.light.Percentile(e.tail_q), "ms");
  report->Metric("heavy_ms_mean", e.heavy.Mean(), "ms");
  report->Metric("ops_per_s", e.window_s > 0 ? e.ops / e.window_s : 0.0,
                 "1/s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

Layers::Layers() {
  for (const auto& [name, unit] : LayerMetrics()) values_[name] = 0.0;
}

void Layers::Set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown layer metric " + name);
  it->second = value;
}

void Layers::Emit(Report* report) const {
  for (const auto& [name, unit] : LayerMetrics()) {
    report->Metric(name, values_.at(name), unit);
  }
}

void CheckOk(const idl::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

idl::Result<idl::Answer> TracedQuery(const idl::Epoch& epoch,
                                     const std::string& text, TracedRead* out) {
  auto t0 = Clock::now();
  auto query = idl::ParseQuery(text);
  auto t1 = Clock::now();
  out->parse_us = MsBetween(t0, t1) * 1000.0;
  if (!query.ok()) return query.status();
  idl::EvalOptions options;
  options.columnar_store = epoch.columnar.get();
  idl::ResourceGovernor governor(idl::GovernorLimitsFrom(options));
  auto answer =
      idl::EvaluateQuery(epoch.universe, *query, options, &out->stats, &governor);
  out->evaluate_us = MsSince(t1) * 1000.0;
  return answer;
}

}  // namespace perfbench
