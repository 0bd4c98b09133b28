// Tests for the abnormal change point selector — the heart of FChain.
// Synthetic series with controlled faults verify each filter stage:
// CUSUM -> outlier magnitude -> persistence -> predictability -> rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "fchain/change_selector.h"

namespace fchain::core {
namespace {

/// Builds a MetricSeries whose CpuUsage channel is `values` and whose other
/// channels are flat, plus a replayed fluctuation model.
struct Fixture {
  MetricSeries series{0};
  NormalFluctuationModel model{0};

  explicit Fixture(const std::vector<double>& cpu_values) {
    for (double value : cpu_values) {
      std::array<double, kMetricCount> sample{};
      sample[metricIndex(MetricKind::CpuUsage)] = value;
      sample[metricIndex(MetricKind::MemoryUsage)] = 500.0;
      series.append(sample);
      model.observe(sample);
    }
  }
};

/// Noisy baseline with an optional persistent step at `fault_at`.
std::vector<double> makeCpuSeries(std::size_t n, std::size_t fault_at,
                                  double step, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = 40.0 + rng.gaussian(0.0, 1.0);
    if (fault_at > 0 && i >= fault_at) value += step;
    values.push_back(value);
  }
  return values;
}

TEST(Selector, QuietSeriesYieldsNoFinding) {
  Fixture fixture(makeCpuSeries(900, 0, 0.0, 1));
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_FALSE(finding.has_value());
}

TEST(Selector, PersistentStepIsDetectedNearOnset) {
  Fixture fixture(makeCpuSeries(900, 850, 30.0, 2));
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  ASSERT_TRUE(finding.has_value());
  EXPECT_NEAR(static_cast<double>(finding->onset), 850.0, 8.0);
  EXPECT_EQ(finding->trend, Trend::Up);
  EXPECT_GT(finding->prediction_error, finding->expected_error);
}

TEST(Selector, DownwardStepHasDownTrend) {
  Fixture fixture(makeCpuSeries(900, 860, -25.0, 3));
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->trend, Trend::Down);
}

TEST(Selector, DecayedTransientIsRejectedByPersistence) {
  // A strong spike at t=830 that fully decays by ~t=860: by violation time
  // the regime is back to normal, so no abnormal change may be reported.
  auto values = makeCpuSeries(900, 0, 0.0, 4);
  for (std::size_t i = 830; i < 860; ++i) {
    values[i] += 35.0 * std::exp(-static_cast<double>(i - 830) / 8.0);
  }
  Fixture fixture(values);
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_FALSE(finding.has_value());
}

TEST(Selector, LearnedOscillationIsNotAbnormal) {
  // A workload square wave that the Markov model has seen hundreds of
  // times: its change points are predictable, hence filtered.
  std::vector<double> values;
  Rng rng(5);
  for (std::size_t i = 0; i < 900; ++i) {
    values.push_back(((i / 30) % 2 == 0 ? 30.0 : 60.0) +
                     rng.gaussian(0.0, 0.5));
  }
  Fixture fixture(values);
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_FALSE(finding.has_value());
}

TEST(Selector, PalModeSkipsThePredictabilityTest) {
  // A persistent step whose prediction error is *below* an impossibly high
  // fixed threshold: FChain(fixed) filters it, PAL (no predictability test
  // at all) still reports it — proving the test is truly skipped.
  Fixture fixture(makeCpuSeries(900, 850, 30.0, 5));
  const auto& cpu = fixture.series.of(MetricKind::CpuUsage);
  const auto& errors = fixture.model.errorsOf(MetricKind::CpuUsage);

  FChainConfig strict;
  strict.fixed_error_threshold = 1e9;
  EXPECT_FALSE(AbnormalChangeSelector(strict)
                   .analyzeMetric(MetricKind::CpuUsage, cpu, errors, 899)
                   .has_value());

  FChainConfig pal = strict;
  pal.use_predictability = false;
  const auto finding = AbnormalChangeSelector(pal).analyzeMetric(
      MetricKind::CpuUsage, cpu, errors, 899);
  ASSERT_TRUE(finding.has_value());
  // PAL never evaluated an expected error.
  EXPECT_DOUBLE_EQ(finding->expected_error, 0.0);
}

TEST(Selector, FixedThresholdModeRespectsTheKnob) {
  Fixture fixture(makeCpuSeries(900, 850, 30.0, 6));
  FChainConfig lax;
  lax.fixed_error_threshold = 0.5;
  FChainConfig strict;
  strict.fixed_error_threshold = 1000.0;
  const auto& cpu = fixture.series.of(MetricKind::CpuUsage);
  const auto& errors = fixture.model.errorsOf(MetricKind::CpuUsage);
  const auto finding = AbnormalChangeSelector(lax).analyzeMetric(
      MetricKind::CpuUsage, cpu, errors, 899);
  ASSERT_TRUE(finding.has_value());
  // The fixed threshold scales the robust spread of the look-back window
  // the selector reads: [violation - lookback, violation + 1).
  const auto window =
      cpu.window(std::max(cpu.startTime(), 899 - lax.lookback_sec),
                 std::min(cpu.endTime(), TimeSec{900}));
  EXPECT_EQ(finding->expected_error,
            0.5 * std::max(1e-9, 1.4826 * fchain::medianAbsDeviation(window)));
  EXPECT_FALSE(AbnormalChangeSelector(strict)
                   .analyzeMetric(MetricKind::CpuUsage, cpu, errors, 899)
                   .has_value());
}

TEST(Selector, RollbackRecoversGradualOnset) {
  // A gradual ramp starting at 800: the strongest change point sits in the
  // middle of the manifestation; rollback must walk it back to ~800.
  auto values = makeCpuSeries(900, 0, 0.0, 7);
  for (std::size_t i = 800; i < 900; ++i) {
    values[i] += 0.8 * static_cast<double>(i - 800);
  }
  Fixture fixture(values);
  FChainConfig with_rollback;
  FChainConfig without_rollback;
  without_rollback.use_rollback = false;
  const auto& cpu = fixture.series.of(MetricKind::CpuUsage);
  const auto& errors = fixture.model.errorsOf(MetricKind::CpuUsage);
  const auto rolled = AbnormalChangeSelector(with_rollback)
                          .analyzeMetric(MetricKind::CpuUsage, cpu, errors, 899);
  const auto raw = AbnormalChangeSelector(without_rollback)
                       .analyzeMetric(MetricKind::CpuUsage, cpu, errors, 899);
  ASSERT_TRUE(rolled.has_value());
  ASSERT_TRUE(raw.has_value());
  EXPECT_LE(rolled->onset, raw->onset);
  EXPECT_NEAR(static_cast<double>(rolled->onset), 800.0, 25.0);
}

TEST(Selector, LookbackWindowBoundsTheSearch) {
  // Fault at t=700 but the look-back window [800, 900] misses it entirely:
  // inside the window the series is a steady (shifted) level.
  Fixture fixture(makeCpuSeries(900, 700, 30.0, 8));
  FChainConfig config;
  config.lookback_sec = 100;
  AbnormalChangeSelector selector(config);
  const auto finding = selector.analyzeMetric(
      MetricKind::CpuUsage, fixture.series.of(MetricKind::CpuUsage),
      fixture.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_FALSE(finding.has_value());
}

TEST(Selector, ComponentOnsetIsEarliestAcrossMetrics) {
  // Memory starts leaking at 820; cpu jumps at 860. The component finding
  // must carry the memory onset.
  Rng rng(9);
  MetricSeries series(0);
  NormalFluctuationModel model(0);
  for (std::size_t i = 0; i < 900; ++i) {
    std::array<double, kMetricCount> sample{};
    sample[metricIndex(MetricKind::CpuUsage)] =
        40.0 + rng.gaussian(0.0, 1.0) + (i >= 860 ? 30.0 : 0.0);
    sample[metricIndex(MetricKind::MemoryUsage)] =
        500.0 + rng.gaussian(0.0, 1.0) +
        (i >= 820 ? 10.0 * static_cast<double>(i - 820) : 0.0);
    series.append(sample);
    model.observe(sample);
  }
  AbnormalChangeSelector selector;
  const auto finding = selector.analyzeComponent(3, series, model, 899);
  ASSERT_TRUE(finding.has_value());
  EXPECT_EQ(finding->component, 3u);
  ASSERT_GE(finding->metrics.size(), 2u);
  EXPECT_NEAR(static_cast<double>(finding->onset), 820.0, 15.0);
  EXPECT_EQ(finding->trend, Trend::Up);
}

TEST(Selector, TooShortWindowIsSafe) {
  Fixture fixture(makeCpuSeries(8, 0, 0.0, 10));
  AbnormalChangeSelector selector;
  EXPECT_FALSE(selector
                   .analyzeMetric(MetricKind::CpuUsage,
                                  fixture.series.of(MetricKind::CpuUsage),
                                  fixture.model.errorsOf(MetricKind::CpuUsage),
                                  7)
                   .has_value());
}

}  // namespace
}  // namespace fchain::core
