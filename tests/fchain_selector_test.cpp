// Tests for the abnormal change point selector — the heart of FChain.
// Synthetic series with controlled faults verify each filter stage:
// error-floor pre-screen -> CUSUM -> outlier magnitude -> persistence ->
// predictability -> rollback. The pre-screen only skips work, so its suite
// pins the selector to a frozen copy of the unpruned selector
// (reference/fchain/selector_reference.h), doubles bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "fchain/change_selector.h"
#include "pinpoint_equal.h"
#include "reference/fchain/selector_reference.h"
#include "scoped_trace.h"

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

// --- Error-floor pre-screen: identical to the unpruned selector -----------

/// The production selector's outcome on one CpuUsage window, observed with
/// the global tracer on: whether it reached CUSUM is whether the pre-screen
/// let the metric through.
struct TracedOutcome {
  std::optional<MetricFinding> finding;
  std::size_t metric_spans = 0;
  std::size_t cusum_spans = 0;
};

TracedOutcome analyzeTraced(const FChainConfig& config,
                            const TimeSeries& series, const TimeSeries& errors,
                            TimeSec violation_time) {
  obs::Tracer& tracer = obs::tracer();
  const obs::ScopedGlobalTrace traced(true);
  tracer.clear();
  TracedOutcome out;
  out.finding = AbnormalChangeSelector(config).analyzeMetric(
      MetricKind::CpuUsage, series, errors, violation_time);
  for (const obs::SpanRecord& record : tracer.records()) {
    out.metric_spans += record.name == "selector.metric";
    out.cusum_spans += record.name == "signal.cusum";
  }
  tracer.clear();
  return out;
}

/// The frozen unpruned selector must return the same outcome: both "no
/// finding", or the same finding with every double equal.
::testing::AssertionResult matchesUnpruned(
    const std::optional<MetricFinding>& got, const FChainConfig& config,
    const TimeSeries& series, const TimeSeries& errors,
    TimeSec violation_time) {
  const auto want = reference::analyzeMetric(config, MetricKind::CpuUsage,
                                             series, errors, violation_time);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "pruned " << (got ? "found" : "found nothing") << ", unpruned "
           << (want ? "found" : "found nothing");
  }
  if (got.has_value() && !sameMetricFinding(*got, *want)) {
    return ::testing::AssertionFailure()
           << "findings differ: onset " << got->onset << " vs " << want->onset
           << ", observed " << got->prediction_error << " vs "
           << want->prediction_error << ", expected " << got->expected_error
           << " vs " << want->expected_error;
  }
  return ::testing::AssertionSuccess();
}

/// 1 500 s of a CpuUsage signal of one of six shapes, so a 500-s look-back
/// still has 900 s of error history before it.
std::vector<double> makeShapedSeries(std::size_t shape, std::uint64_t seed) {
  constexpr std::size_t kLength = 1500;
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(kLength);
  double walk = 40.0;
  const auto onset = static_cast<std::size_t>(1420 + rng.below(60));
  const double size = rng.uniform(2.0, 30.0);
  for (std::size_t i = 0; i < kLength; ++i) {
    double value = 40.0 + rng.gaussian(0.0, 1.0);
    switch (shape) {
      case 0:  // quiet
        break;
      case 1:  // persistent step
        if (i >= onset) value += size;
        break;
      case 2:  // gradual ramp, nearly noise-free (smooth structure)
        value = 40.0 + rng.gaussian(0.0, 0.05) +
                (i >= onset ? 0.5 * static_cast<double>(i - onset) : 0.0);
        break;
      case 3:  // decayed transient
        if (i >= onset - 60) {
          value += size * std::exp(-static_cast<double>(i - (onset - 60)) /
                                   8.0);
        }
        break;
      case 4:  // learned square wave
        value = ((i / 30) % 2 == 0 ? 30.0 : 60.0) + rng.gaussian(0.0, 0.5);
        break;
      default:  // random walk: jitter between white noise and smooth
        walk += rng.gaussian(0.0, 0.3);
        value = walk + rng.gaussian(0.0, 0.1 * static_cast<double>(seed % 4));
        break;
    }
    values.push_back(value);
  }
  return values;
}

/// Plants NaN or +inf into a copy of the error series, relative to the
/// default 100-s look-back window: none, NaN throughout, +inf only before
/// the window (into the history, so the floor may turn infinite), +inf
/// inside the window, or NaN over the whole window.
TimeSeries perturbErrors(const TimeSeries& errors, std::size_t kind,
                         TimeSec violation_time, std::uint64_t seed) {
  TimeSeries out = errors;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  const TimeSec end = violation_time + 1;
  for (TimeSec t = out.startTime(); t < end && t < out.endTime(); ++t) {
    const bool in_window = t >= violation_time - 100;
    switch (kind) {
      case 1:
        if (rng.chance(0.05)) out.at(t) = nan;
        break;
      case 2:
        if (!in_window && rng.chance(0.03)) out.at(t) = inf;
        break;
      case 3:
        if (in_window && rng.chance(0.02)) out.at(t) = inf;
        break;
      case 4:
        if (in_window) out.at(t) = nan;
        break;
      default:
        break;
    }
  }
  return out;
}

TEST(PreScreen, MatchesUnprunedSelectorOverSeededWindows) {
  std::vector<std::pair<const char*, FChainConfig>> configs;
  configs.emplace_back("default", FChainConfig{});
  FChainConfig long_lookback;
  long_lookback.lookback_sec = 500;
  configs.emplace_back("lookback 500", long_lookback);
  FChainConfig adaptive;
  adaptive.adaptive_smoothing = true;
  configs.emplace_back("adaptive", adaptive);
  FChainConfig adaptive_long = long_lookback;
  adaptive_long.adaptive_smoothing = true;
  configs.emplace_back("adaptive lookback 500", adaptive_long);
  FChainConfig min_window;
  min_window.lookback_sec =
      static_cast<TimeSec>(2 * min_window.cusum.min_segment) - 1;
  configs.emplace_back("window of 2 x min_segment", min_window);
  FChainConfig short_window = min_window;
  short_window.lookback_sec -= 1;
  configs.emplace_back("window one short of 2 x min_segment", short_window);
  FChainConfig zero_margin;
  zero_margin.error_margin = 0.0;
  configs.emplace_back("error_margin 0", zero_margin);
  FChainConfig negative_margin;
  negative_margin.error_margin = -1.0;
  configs.emplace_back("error_margin -1", negative_margin);
  FChainConfig no_history;
  no_history.history_error_window_sec = 0;
  configs.emplace_back("no error history", no_history);
  FChainConfig pal;
  pal.use_predictability = false;
  configs.emplace_back("PAL", pal);
  FChainConfig fixed;
  fixed.fixed_error_threshold = 0.5;
  configs.emplace_back("Fixed-Filtering", fixed);

  std::size_t found = 0, pruned = 0, unpruned_misses = 0;
  std::set<std::size_t> adaptive_halves;
  for (std::size_t shape = 0; shape < 6; ++shape) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Fixture fixture(makeShapedSeries(shape, 100 * shape + seed));
      const TimeSeries& cpu = fixture.series.of(MetricKind::CpuUsage);
      const TimeSeries& model_errors =
          fixture.model.errorsOf(MetricKind::CpuUsage);
      // The last sample has 900 s of history at both look-backs; t = 180
      // leaves fewer than 100 history samples, so the floor is 0 and the
      // pre-screen is off.
      for (TimeSec tv : {TimeSec{1499}, TimeSec{180}}) {
        for (std::size_t kind = 0; kind < 5; ++kind) {
          const TimeSeries errors =
              perturbErrors(model_errors, kind, tv, seed);
          for (const auto& [name, config] : configs) {
            SCOPED_TRACE(::testing::Message()
                         << name << ", shape " << shape << ", seed " << seed
                         << ", tv " << tv << ", errors " << kind);
            const TracedOutcome outcome =
                analyzeTraced(config, cpu, errors, tv);
            ASSERT_TRUE(
                matchesUnpruned(outcome.finding, config, cpu, errors, tv));
            const TimeSec window_start =
                std::max(cpu.startTime(), tv - config.lookback_sec);
            const auto raw = cpu.window(window_start, tv + 1);
            const bool reaches_cusum =
                raw.size() >= 2 * config.cusum.min_segment;
            if (config.adaptive_smoothing) {
              adaptive_halves.insert(reference::smoothHalf(config, raw));
            }
            if (outcome.finding.has_value()) {
              ++found;
            } else if (reaches_cusum && outcome.cusum_spans == 0) {
              ++pruned;
            } else {
              ++unpruned_misses;
            }
          }
        }
      }
    }
  }
  // The sweep must exercise all three outcomes, and adaptive smoothing must
  // reach every probe radius r = smooth_half + 1 from 1 to 4.
  EXPECT_GT(found, 200u);
  EXPECT_GT(pruned, 300u);
  EXPECT_GT(unpruned_misses, 300u);
  EXPECT_EQ(adaptive_halves, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(PreScreen, BoundFiresAtATieAndNotOneUlpAbove) {
  // A quiet window whose widened error peak is planted at exactly
  // error_margin x error_floor: the bound must fire (no CUSUM) and the
  // unpruned selector must agree there is no finding. One ulp higher the
  // bound must let the metric through to CUSUM.
  Fixture fixture(makeCpuSeries(900, 0, 0.0, 11));
  const FChainConfig config;
  const TimeSeries& cpu = fixture.series.of(MetricKind::CpuUsage);
  const TimeSec tv = 899;
  const TimeSec window_start = tv - config.lookback_sec;
  const TimeSec window_end = tv + 1;
  const auto radius = static_cast<TimeSec>(config.smooth_half_window + 1);
  TimeSeries errors = fixture.model.errorsOf(MetricKind::CpuUsage);
  for (TimeSec t = window_start - radius; t < window_end + radius; ++t) {
    if (errors.contains(t)) errors.at(t) *= 1e-3;
  }
  const double floor = reference::errorFloor(
      config, errors, window_start,
      static_cast<std::size_t>(window_end - window_start));
  ASSERT_GT(floor, 0.0);
  const double bound = config.error_margin * floor;
  for (TimeSec t = window_start - radius; t < window_end; ++t) {
    ASSERT_LT(errors.at(t), bound) << "t=" << t;
  }

  for (TimeSec at : {window_start, window_start + 50, window_end - 1}) {
    SCOPED_TRACE(::testing::Message() << "planted at " << at);
    TimeSeries planted = errors;
    planted.at(at) = bound;
    const TracedOutcome tie = analyzeTraced(config, cpu, planted, tv);
    EXPECT_FALSE(tie.finding.has_value());
    EXPECT_EQ(tie.cusum_spans, 0u);
    EXPECT_TRUE(matchesUnpruned(tie.finding, config, cpu, planted, tv));

    planted.at(at) =
        std::nextafter(bound, std::numeric_limits<double>::infinity());
    const TracedOutcome above = analyzeTraced(config, cpu, planted, tv);
    EXPECT_EQ(above.cusum_spans, 1u);
    EXPECT_TRUE(matchesUnpruned(above.finding, config, cpu, planted, tv));
  }
}

TEST(PreScreen, ErrorAtTheWidenedEdgeKeepsTheMetric) {
  // A candidate's observed error reaches smooth_half + 1 s beyond it, so
  // the pre-screen must read the window widened by that radius on both
  // sides: one large error at either outermost sample keeps the metric
  // from being pruned. The error series runs past the metric series so
  // the upper edge exists.
  Fixture fixture(makeCpuSeries(900, 0, 0.0, 13));
  const FChainConfig config;
  const TimeSeries& cpu = fixture.series.of(MetricKind::CpuUsage);
  const TimeSec tv = 899;
  const TimeSec window_start = tv - config.lookback_sec;
  const TimeSec window_end = tv + 1;
  const auto radius = static_cast<TimeSec>(config.smooth_half_window + 1);
  TimeSeries errors = fixture.model.errorsOf(MetricKind::CpuUsage);
  for (TimeSec t = errors.endTime(); t < window_end + radius; ++t) {
    errors.append(0.0);
  }
  for (TimeSec t = window_start - radius; t < window_end + radius; ++t) {
    errors.at(t) *= 1e-3;
  }
  EXPECT_EQ(analyzeTraced(config, cpu, errors, tv).cusum_spans, 0u);

  for (TimeSec at : {window_start - radius, window_end + radius - 1}) {
    SCOPED_TRACE(::testing::Message() << "planted at " << at);
    TimeSeries planted = errors;
    planted.at(at) = 1e6;
    const double floor = reference::errorFloor(
        config, planted, window_start,
        static_cast<std::size_t>(window_end - window_start));
    ASSERT_GT(planted.at(at), config.error_margin * floor);
    const TracedOutcome kept = analyzeTraced(config, cpu, planted, tv);
    EXPECT_EQ(kept.cusum_spans, 1u);
    EXPECT_TRUE(matchesUnpruned(kept.finding, config, cpu, planted, tv));
  }
}

TEST(PreScreen, QuietSeriesSkipsCusumAndFaultedOneRunsIt) {
  const FChainConfig config;
  Fixture quiet(makeCpuSeries(900, 0, 0.0, 1));
  const TracedOutcome skipped =
      analyzeTraced(config, quiet.series.of(MetricKind::CpuUsage),
                    quiet.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_FALSE(skipped.finding.has_value());
  EXPECT_EQ(skipped.metric_spans, 1u);
  EXPECT_EQ(skipped.cusum_spans, 0u);

  Fixture faulted(makeCpuSeries(900, 850, 30.0, 2));
  const TracedOutcome analyzed =
      analyzeTraced(config, faulted.series.of(MetricKind::CpuUsage),
                    faulted.model.errorsOf(MetricKind::CpuUsage), 899);
  EXPECT_TRUE(analyzed.finding.has_value());
  EXPECT_EQ(analyzed.metric_spans, 1u);
  EXPECT_EQ(analyzed.cusum_spans, 1u);
}

}  // namespace
}  // namespace fchain::core
