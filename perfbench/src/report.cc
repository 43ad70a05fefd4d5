#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string CpuInfo(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Percentile label, e.g. 0.99 -> "p99", 0.999 -> "p99.9".
std::string PercentileName(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

}  // namespace

void Report::Line(const std::string& name, double value,
                  const std::string& unit, size_t samples,
                  const std::string& note) {
  std::string line = name + " = " + Short(value) + " " + unit +
                     " (n=" + std::to_string(samples) + ")";
  if (!note.empty()) line += "  " + note;
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(line));
}

void Report::Timing(const std::string& name, const Samples& s, double tail_q) {
  Line(name + "_mean", s.Mean(), "ms", s.size());
  Line(name + "_p50", s.Median(), "ms", s.size());
  if (tail_q <= 0.5) return;
  const size_t beyond = SamplesBeyond(s.size(), tail_q);
  Line(name + "_" + PercentileName(tail_q), s.Percentile(tail_q), "ms",
       s.size(),
       "beyond=" + std::to_string(beyond) +
           (beyond < 10 ? " (fewer than 10 beyond: run longer)" : ""));
  // The highest percentile this run's samples support, when it is higher.
  const double allowed = HighestPercentileWithBeyond(s.size());
  if (allowed > tail_q) {
    Line(name + "_" + PercentileName(allowed), s.Percentile(allowed), "ms",
         s.size(), "beyond=" + std::to_string(SamplesBeyond(s.size(), allowed)));
  }
}

void Report::Info(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(key + ": " + value);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, {value, unit}});
}

void Report::Attempted(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Failed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (problems_.size() < 8) problems_.push_back("failed: " + what);
}

void Report::Incorrect(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++incorrect_;
  if (problems_.size() < 8) problems_.push_back("incorrect: " + what);
}

void Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0, args_.tiny ? " tiny" : "");
  for (const std::string& line : lines_) std::printf("# %s\n", line.c_str());
  std::printf("# ops attempted=%llu failed=%llu failed_ops_ratio=%s "
              "incorrect=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              Short(attempted_ == 0 ? 0.0
                                    : static_cast<double>(failed_) / attempted_)
                  .c_str(),
              static_cast<unsigned long long>(incorrect_));
  for (const std::string& p : problems_) std::printf("# %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += incorrect_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + Num(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void AddFingerprint(Report* report, const Args& args) {
  report->Info("host", "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                           " hardware_concurrency=" +
                           std::to_string(std::thread::hardware_concurrency()) +
                           " mhz=" + CpuInfo("cpu MHz") +
                           " cpu=\"" + CpuInfo("model name") + "\"");
  report->Info("build", std::string("compiler=\"") + __VERSION__ +
                            "\" build_type=" PERFBENCH_BUILD_TYPE
                            " flags=\"" PERFBENCH_CXX_FLAGS "\"");
  report->Info("source", "git_sha=" + args.git_sha + " git_dirty=" +
                             args.git_dirty +
                             " source_digest=" + args.source_digest);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
