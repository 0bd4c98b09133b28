#include "fchain/change_selector.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/stats.h"
#include "obs/trace.h"
#include "signal/burst.h"
#include "signal/scratch.h"
#include "signal/sliding_max.h"
#include "signal/smoothing.h"

namespace fchain::core {

namespace {

/// Peak observed prediction error near the change point. The moving-average
/// smoothing displaces the detected index by up to its half-width, so the
/// probe neighbourhood must cover that smear or it misses the error spike.
double observedError(const TimeSeries& errors, TimeSec t,
                     std::size_t smear) {
  const auto radius = static_cast<TimeSec>(smear + 1);
  double peak = 0.0;
  for (TimeSec u = t - radius; u <= t + radius; ++u) {
    if (errors.contains(u)) peak = std::max(peak, errors.at(u));
  }
  return peak;
}

/// True when the level shift introduced at `index` still holds at the end of
/// the window: the tail deviates from the pre-change level in the shift's
/// direction by at least `fraction` of the shift. Rejects transients (flash
/// crowds, spill spikes) that have already decayed by violation time.
bool changePersists(std::span<const double> window,
                    const signal::ChangePoint& point, double fraction,
                    std::size_t probe) {
  if (fraction <= 0.0) return true;
  const std::size_t idx = point.index;
  if (idx == 0 || idx >= window.size()) return true;
  const std::size_t pre_from = idx > probe ? idx - probe : 0;
  const double pre = fchain::mean(window.subspan(pre_from, idx - pre_from));
  const std::size_t tail_len = std::min(probe, window.size() - idx);
  const double tail =
      fchain::mean(window.subspan(window.size() - tail_len, tail_len));
  const double residual = tail - pre;
  if (point.shift > 0.0) return residual >= fraction * point.shift;
  return residual <= fraction * point.shift;  // both negative
}

/// Jitter-adaptive smoothing width: the ratio of first-difference spread to
/// overall spread distinguishes sample-to-sample noise (ratio near sqrt(2)
/// for white noise) from smooth structure (ratio near 0).
std::size_t adaptiveSmoothHalf(std::span<const double> window,
                               signal::SignalScratch& scratch) {
  if (window.size() < 8) return 0;
  std::vector<double>& diffs = scratch.diffs(window.size() - 1);
  for (std::size_t i = 1; i < window.size(); ++i) {
    diffs[i - 1] = window[i] - window[i - 1];
  }
  const double diff_mad =
      fchain::medianAbsDeviation(diffs, scratch.statsA(), scratch.statsB());
  const double level_mad =
      std::max(1e-9, fchain::medianAbsDeviation(window, scratch.statsA(),
                                                scratch.statsB()));
  const double jitter = diff_mad / level_mad;
  if (jitter >= 0.8) return 3;  // noise-dominated: smooth hard
  if (jitter >= 0.3) return 2;
  if (jitter >= 0.1) return 1;
  return 0;  // already smooth: smoothing would only distort onsets
}

}  // namespace

std::optional<MetricFinding> AbnormalChangeSelector::analyzeMetric(
    MetricKind kind, const TimeSeries& series, const TimeSeries& errors,
    TimeSec violation_time) const {
  FCHAIN_SPAN_VAR(span, "selector.metric");
  span.arg("metric", static_cast<std::int64_t>(metricIndex(kind)));
  // All buffers for this metric come from the calling thread's arena; every
  // lane is consumed before the next kernel overwrites it (see the lane
  // assignments in scratch.h).
  signal::SignalScratch& scratch = signal::threadScratch();
  const TimeSec window_start =
      std::max(series.startTime(), violation_time - config_.lookback_sec);
  const TimeSec window_end = std::min(series.endTime(), violation_time + 1);
  const auto raw = series.window(window_start, window_end);
  if (raw.size() < config_.cusum.min_segment * 2) return std::nullopt;
  const std::size_t smooth_half = config_.adaptive_smoothing
                                      ? adaptiveSmoothHalf(raw, scratch)
                                      : config_.smooth_half_window;

  // Historical-error floor: what the predictor typically gets wrong on this
  // metric during normal operation, sampled before the look-back window so
  // the fault cannot contaminate it. Two subtleties make this comparable to
  // the observed statistic: (a) the observation is a *max* over the probe
  // neighbourhood, so the floor is built from the same-width block maxima;
  // (b) a longer look-back window offers proportionally more candidate
  // change points (a multiple-testing effect), so the floor percentile
  // tightens with the window length. Only the dynamic threshold reads it.
  const bool dynamic_threshold =
      config_.use_predictability && config_.fixed_error_threshold < 0.0;
  double error_floor = 0.0;
  if (dynamic_threshold && config_.history_error_window_sec > 0) {
    const auto history = errors.window(
        window_start - config_.history_error_window_sec, window_start);
    if (history.size() >= 100) {
      const std::size_t radius = config_.smooth_half_window + 1;
      const std::span<double> block_max = signal::slidingMaxInto(
          history, radius, scratch.blockMax(history.size() + 2 * radius));
      const double window_adjusted_pct =
          100.0 * (1.0 - 2.0 / static_cast<double>(raw.size()));
      error_floor = fchain::percentileInPlace(
          block_max,
          std::max(config_.history_error_percentile, window_adjusted_pct));
    }
  }

  // 0. Pre-screen: a candidate passes the dynamic predictability test (step
  //    3) only if observed > error_margin x max(error_floor, burst), and its
  //    observed error is a max over the errors within smooth_half + 1 s of
  //    a point inside the window. When even the largest error over the
  //    window widened by that radius is not above error_margin x
  //    error_floor, no candidate can pass, so the metric has no finding and
  //    smoothing, CUSUM, the outlier filter and the burst FFT are skipped.
  //    Exact: both sides of the test take the same NaN-skipping max, and
  //    the product is monotone for a positive margin (DESIGN.md §6 item 2).
  if (dynamic_threshold && config_.error_margin > 0.0 && error_floor > 0.0) {
    const auto radius = static_cast<TimeSec>(smooth_half + 1);
    double peak = 0.0;
    for (double e : errors.window(window_start - radius, window_end + radius)) {
      peak = std::max(peak, e);
    }
    if (!(peak > config_.error_margin * error_floor)) return std::nullopt;
  }

  // 1. Smooth + detect change points.
  const std::vector<double>& smoothed = signal::movingAverageInto(
      raw, smooth_half, scratch.smoothed(raw.size()));
  const std::vector<signal::ChangePoint>& points =
      signal::detectChangePointsInto(smoothed, config_.cusum, scratch,
                                     scratch.points());
  if (points.empty()) return std::nullopt;

  // 2. Keep change-magnitude outliers.
  const std::vector<signal::ChangePoint>& outliers =
      signal::outlierChangePointsInto(points, config_.outlier, scratch,
                                      scratch.outliers());
  if (outliers.empty()) return std::nullopt;

  // Robust scale of the window: only the Fixed-Filtering variant reads it.
  const double window_scale =
      config_.fixed_error_threshold >= 0.0
          ? std::max(1e-9, fchain::medianAbsDeviation(raw, scratch.statsA(),
                                                      scratch.statsB()) *
                               1.4826)
          : 0.0;

  // 3. Predictability test: observed vs expected prediction error. Among
  //    the passing candidates, anchor on the strongest signature (or the
  //    earliest, when select_strongest is off).
  std::optional<signal::ChangePoint> selected;
  double selected_observed = 0.0;
  double selected_expected = 0.0;
  double best_ratio = 0.0;
  for (const auto& candidate : outliers) {
    const TimeSec cp_time =
        window_start + static_cast<TimeSec>(candidate.index);
    if (!changePersists(smoothed, candidate, config_.persistence_fraction,
                        config_.persistence_probe_sec)) {
      continue;
    }
    if (!config_.use_predictability) {
      selected = candidate;
      selected_observed = observedError(errors, cp_time, smooth_half);
      selected_expected = 0.0;
      break;  // PAL mode: earliest outlier wins unconditionally
    }
    const double observed =
        observedError(errors, cp_time, smooth_half);
    double expected;
    if (config_.fixed_error_threshold >= 0.0) {
      expected = config_.fixed_error_threshold * window_scale;
    } else {
      // Dynamic threshold: burst magnitude of the +-Q window around the
      // candidate, taken from the *raw* (unsmoothed) series, with the
      // configured safety margin on top.
      const auto burst_window =
          series.window(cp_time - config_.burst_half_window_sec,
                        cp_time + config_.burst_half_window_sec + 1);
      expected =
          config_.error_margin *
          std::max(error_floor, signal::expectedPredictionError(
                                    burst_window, config_.burst, scratch));
    }
    if (observed > expected) {
      const double ratio = observed / std::max(1e-12, expected);
      if (!selected.has_value() || ratio > best_ratio) {
        selected = candidate;
        selected_observed = observed;
        selected_expected = expected;
        best_ratio = ratio;
      }
      if (!config_.select_strongest) break;  // earliest abnormal point
    }
  }
  if (!selected.has_value()) return std::nullopt;

  // 4. Tangent-based rollback across *all* detected change points preceding
  //    the selected one.
  std::size_t selected_pos = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].index == selected->index) {
      selected_pos = i;
      break;
    }
  }
  std::size_t onset_pos = selected_pos;
  if (config_.use_rollback) {
    onset_pos = signal::rollbackOnset(smoothed, points, selected_pos,
                                      config_.rollback, scratch);
  }

  MetricFinding finding;
  finding.metric = kind;
  finding.change_point =
      window_start + static_cast<TimeSec>(selected->index);
  finding.onset = window_start + static_cast<TimeSec>(points[onset_pos].index);
  finding.trend = selected->shift > 0 ? Trend::Up : Trend::Down;
  finding.prediction_error = selected_observed;
  finding.expected_error = selected_expected;
  return finding;
}

std::optional<ComponentFinding> AbnormalChangeSelector::analyzeComponent(
    ComponentId id, const MetricSeries& series,
    const NormalFluctuationModel& model, TimeSec violation_time) const {
  FCHAIN_SPAN_VAR(span, "selector.component");
  span.arg("component", static_cast<std::int64_t>(id));
  ComponentFinding finding;
  finding.component = id;
  for (MetricKind kind : kAllMetrics) {
    auto metric_finding = analyzeMetric(kind, series.of(kind),
                                        model.errorsOf(kind), violation_time);
    if (metric_finding.has_value()) {
      finding.metrics.push_back(*metric_finding);
    }
  }
  // Publish any arena growth this component's analysis caused; in steady
  // state this is a no-op and the grow counter stops moving.
  signal::threadScratch().accountGrowth();
  if (finding.metrics.empty()) return std::nullopt;

  // The component's abnormal change starts when its first metric does.
  const auto earliest = std::min_element(
      finding.metrics.begin(), finding.metrics.end(),
      [](const MetricFinding& a, const MetricFinding& b) {
        return a.onset < b.onset;
      });
  finding.onset = earliest->onset;
  finding.trend = earliest->trend;
  return finding;
}

}  // namespace fchain::core
