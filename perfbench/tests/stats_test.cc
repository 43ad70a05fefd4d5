// Tests of the benchmark's percentile arithmetic: nearest-rank positions,
// the "highest percentile with at least ten samples beyond it" rule, and
// sample counts.

#include <cstdio>
#include <cstdlib>

#include "../src/stats.h"

namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                     \
  do {                                                                      \
    auto va = (a);                                                          \
    auto vb = (b);                                                          \
    if (!(va == vb)) {                                                      \
      std::fprintf(stderr, "%s:%d: %s == %s failed (%g vs %g)\n", __FILE__, \
                   __LINE__, #a, #b, static_cast<double>(va),               \
                   static_cast<double>(vb));                                \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

using perfbench::HighestPercentileWithBeyond;
using perfbench::NearestRankIndex;
using perfbench::Samples;
using perfbench::SamplesBeyond;

void TestNearestRank() {
  EXPECT_EQ(NearestRankIndex(1, 0.5), 0u);
  EXPECT_EQ(NearestRankIndex(1, 0.999), 0u);
  EXPECT_EQ(NearestRankIndex(100, 0.5), 49u);
  EXPECT_EQ(NearestRankIndex(100, 0.99), 98u);
  EXPECT_EQ(NearestRankIndex(100, 1.0), 99u);
  EXPECT_EQ(NearestRankIndex(101, 0.5), 50u);
  // q*n is not exactly representable for these; the rank must not round up
  // past the exact product.
  EXPECT_EQ(NearestRankIndex(1000, 0.9), 899u);
  EXPECT_EQ(NearestRankIndex(10, 0.7), 6u);
}

void TestSamplesBeyond() {
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
  EXPECT_EQ(SamplesBeyond(19, 0.5), 9u);
}

void TestHighestPercentileRule() {
  EXPECT_EQ(HighestPercentileWithBeyond(0), 0.0);
  EXPECT_EQ(HighestPercentileWithBeyond(19), 0.0);  // median has 9 beyond
  EXPECT_EQ(HighestPercentileWithBeyond(20), 0.5);
  EXPECT_EQ(HighestPercentileWithBeyond(39), 0.5);  // p75 has 9 beyond
  EXPECT_EQ(HighestPercentileWithBeyond(40), 0.75);
  EXPECT_EQ(HighestPercentileWithBeyond(99), 0.75);
  EXPECT_EQ(HighestPercentileWithBeyond(100), 0.9);
  EXPECT_EQ(HighestPercentileWithBeyond(200), 0.95);
  EXPECT_EQ(HighestPercentileWithBeyond(999), 0.95);
  EXPECT_EQ(HighestPercentileWithBeyond(1000), 0.99);
  EXPECT_EQ(HighestPercentileWithBeyond(10000), 0.999);
  EXPECT_EQ(HighestPercentileWithBeyond(100, 1), 0.99);
  // The rule holds for every n: the chosen percentile has >= 10 beyond it
  // and the next rung up does not.
  const auto& ladder = perfbench::PercentileLadder();
  for (size_t n = 1; n <= 20000; n += 7) {
    double q = HighestPercentileWithBeyond(n);
    if (q == 0.0) {
      EXPECT_EQ(SamplesBeyond(n, ladder.front()) < 10, true);
      continue;
    }
    EXPECT_EQ(SamplesBeyond(n, q) >= 10, true);
    for (double higher : ladder) {
      if (higher > q) EXPECT_EQ(SamplesBeyond(n, higher) < 10, true);
    }
  }
}

void TestSamples() {
  Samples empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Median(), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);

  Samples s;
  // 1..100 in a scrambled order.
  for (int i = 0; i < 100; ++i) s.Add(static_cast<double>((i * 37) % 100 + 1));
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.Median(), 50.0);
  EXPECT_EQ(s.Percentile(0.9), 90.0);
  EXPECT_EQ(s.Percentile(0.99), 99.0);
  EXPECT_EQ(s.Percentile(1.0), 100.0);
  EXPECT_EQ(s.Sum(), 5050.0);
  EXPECT_EQ(s.Mean(), 50.5);

  // Adding after a percentile query re-sorts.
  s.Add(0.5);
  EXPECT_EQ(s.size(), 101u);
  EXPECT_EQ(s.Percentile(0.001), 0.5);

  Samples more;
  more.Add(1000.0);
  s.Append(more);
  EXPECT_EQ(s.size(), 102u);
  EXPECT_EQ(s.Percentile(1.0), 1000.0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestSamplesBeyond();
  TestHighestPercentileRule();
  TestSamples();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all expectations hold\n");
  return 0;
}
