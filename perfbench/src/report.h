// What one benchmark run prints: a human-readable report (host and build
// fingerprint, every metric with its unit and sample count) followed, as
// the last line of standard output, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke scale: small universes and short runs, for the benchmark's own
  // tests. Every metric is still emitted.
  bool tiny = false;
  // Where runs may write (the durable workload's WAL directories).
  std::string scratch_dir = ".bench_build/run";
  // Source fingerprint gathered by the launcher (git is not always there).
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
};

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  // A reported figure: printed as "name = value unit (n=..)" in the human
  // report. `samples` is the number of observations behind it.
  void Line(const std::string& name, double value, const std::string& unit,
            size_t samples, const std::string& note = "");
  // A timing class summarised by its mean, its median and the fixed tail
  // percentile `tail_q`, with the check that the tail has at least ten
  // samples beyond it.
  void Timing(const std::string& name, const Samples& s, double tail_q);
  void Info(const std::string& key, const std::string& value);

  // A metric of the final JSON line.
  void Metric(const std::string& name, double value, const std::string& unit);

  // Operation accounting. Thread-safe.
  void Attempted(uint64_t n = 1);
  void Failed(const std::string& what);
  // An answer that disagrees with the oracle: the run is not correct.
  void Incorrect(const std::string& what);

  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  // Prints the human report, then the JSON line.
  void Print() const;

 private:
  const Args& args_;
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t incorrect_ = 0;
  std::vector<std::string> problems_;  // first few failures / mismatches
};

// Host and build fingerprint lines (nproc, MHz, compiler, build type and
// flags, git sha and dirty bit, source digest, seed).
void AddFingerprint(Report* report, const Args& args);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
