// Timing and percentile arithmetic of the benchmark. The benchmark keeps
// every observation (a run has at most a few hundred thousand), so the
// percentiles it reports are exact nearest-rank values, not bucket
// estimates.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

// Index (0-based, into the sorted samples) of the nearest-rank q-quantile
// of n samples: the ceil(q*n)-th smallest. q in (0, 1], n >= 1.
inline size_t NearestRankIndex(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (rank < 1.0) rank = 1.0;
  if (rank > static_cast<double>(n)) rank = static_cast<double>(n);
  return static_cast<size_t>(rank) - 1;
}

// Samples strictly above the nearest-rank q-quantile's position.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - NearestRankIndex(n, q);
}

// The percentile ladder reports choose from, lowest first.
inline const std::vector<double>& PercentileLadder() {
  static const std::vector<double> ladder = {0.50, 0.75, 0.90,
                                             0.95, 0.99, 0.999};
  return ladder;
}

// The highest ladder percentile with at least `min_beyond` samples beyond
// it, or 0 when even the median has fewer (too few samples for any tail).
inline double HighestPercentileWithBeyond(size_t n, size_t min_beyond = 10) {
  double best = 0.0;
  for (double q : PercentileLadder()) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

// One class of timed observations (e.g. point reads).
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Nearest-rank percentile; 0 when empty.
  double Percentile(double q) const {
    if (values_.empty()) return 0.0;
    Sort();
    return values_[NearestRankIndex(values_.size(), q)];
  }
  double Median() const { return Percentile(0.5); }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / size(); }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
