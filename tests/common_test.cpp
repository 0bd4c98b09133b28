// Unit tests for common/: time series, statistics, histograms, RNG.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time_series.h"
#include "common/types.h"

namespace fchain {
namespace {

// ---------------------------------------------------------------- types ---

TEST(Types, MetricNamesRoundTrip) {
  for (MetricKind kind : kAllMetrics) {
    EXPECT_EQ(metricFromName(metricName(kind)), kind);
  }
}

TEST(Types, UnknownMetricNameThrows) {
  EXPECT_THROW(metricFromName("bogus"), std::invalid_argument);
}

TEST(Types, MetricIndexIsDense) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    EXPECT_EQ(metricIndex(kAllMetrics[i]), i);
  }
}

// ----------------------------------------------------------- TimeSeries ---

TEST(TimeSeries, AppendAndAt) {
  TimeSeries ts(100);
  ts.append(1.0);
  ts.append(2.0);
  EXPECT_EQ(ts.startTime(), 100);
  EXPECT_EQ(ts.endTime(), 102);
  EXPECT_TRUE(ts.contains(101));
  EXPECT_FALSE(ts.contains(102));
  EXPECT_FALSE(ts.contains(99));
  EXPECT_DOUBLE_EQ(ts.at(100), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(101), 2.0);
}

TEST(TimeSeries, WindowClampsToAvailableRange) {
  TimeSeries ts(10);
  for (int i = 0; i < 5; ++i) ts.append(i);
  const auto full = ts.window(0, 100);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full[0], 0.0);
  const auto mid = ts.window(11, 13);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_DOUBLE_EQ(mid[0], 1.0);
  EXPECT_TRUE(ts.window(14, 12).empty());
  EXPECT_TRUE(ts.window(100, 200).empty());
}

TEST(TimeSeries, TrimFrontAdvancesStart) {
  TimeSeries ts(0);
  for (int i = 0; i < 10; ++i) ts.append(i);
  ts.trimFront(4);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.startTime(), 6);
  EXPECT_DOUBLE_EQ(ts.at(6), 6.0);
  ts.trimFront(10);  // no-op when already smaller
  EXPECT_EQ(ts.size(), 4u);
}

TEST(MetricSeries, AppendsAllMetricsTogether) {
  MetricSeries ms(5);
  std::array<double, kMetricCount> sample{1, 2, 3, 4, 5, 6};
  ms.append(sample);
  EXPECT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms.endTime(), 6);
  EXPECT_DOUBLE_EQ(ms.of(MetricKind::CpuUsage).at(5), 1.0);
  EXPECT_DOUBLE_EQ(ms.of(MetricKind::DiskWrite).at(5), 6.0);
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Stats, MedianAbsDeviationRobustToOutlier) {
  std::vector<double> xs{1, 1, 1, 1, 1, 1, 1, 1000};
  EXPECT_DOUBLE_EQ(medianAbsDeviation(xs), 0.0);
  xs = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(medianAbsDeviation(xs), 2.0);
}

TEST(Stats, SlopeOfLinearSeriesIsExact) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(3.5 * i + 7.0);
  EXPECT_NEAR(slope(xs), 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(slope(std::vector<double>{1.0}), 0.0);
  EXPECT_NEAR(slope(std::vector<double>(20, 4.2)), 0.0, 1e-12);
}

TEST(Stats, HistogramCountsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);  // clamps into first bucket
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps into last bucket
  EXPECT_EQ(h.totalCount(), 4u);
  double total = 0.0;
  for (std::size_t i = 0; i < h.binCount(); ++i) total += h.probability(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Stats, KlDivergenceProperties) {
  Histogram p(0, 1, 10);
  Histogram q(0, 1, 10);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    p.add(x);
    q.add(x);
  }
  EXPECT_NEAR(klDivergence(p, q), 0.0, 1e-9);

  Histogram r(0, 1, 10);
  for (int i = 0; i < 1000; ++i) r.add(0.05);  // concentrated
  EXPECT_GT(klDivergence(r, q), 0.5);

  Histogram wrong(0, 1, 5);
  EXPECT_THROW(klDivergence(p, wrong), std::invalid_argument);
}

TEST(Stats, PearsonCorrelation) {
  std::vector<double> xs, ys, zs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 1.0);
    zs.push_back(-3.0 * i);
  }
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson(xs, std::vector<double>(100, 5.0)), 0.0);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    all_equal = all_equal && va == b.next();
    any_diff_seed_diff = any_diff_seed_diff || va != c.next();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(9);
  std::array<int, 7> counts{};
  for (int i = 0; i < 7000; ++i) ++counts[rng.below(7)];
  for (int count : counts) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Rng, IntInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.intIn(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, ExponentialAndParetoArePositive) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.exponential(2.0), 0.0);
    EXPECT_GE(rng.pareto(1.0, 1.5), 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng b(42);
  b.next();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, MixSeedIsStableAndSensitive) {
  EXPECT_EQ(mixSeed(1, 2, 3), mixSeed(1, 2, 3));
  EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 2, 4));
  EXPECT_NE(mixSeed(1, 2, 3), mixSeed(2, 2, 3));
}

}  // namespace
}  // namespace fchain
