#include "selector_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.h"
#include "signal/burst.h"
#include "signal/outlier.h"
#include "signal/scratch.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"

namespace fchain::core::reference {

namespace {

double observedError(const TimeSeries& errors, TimeSec t,
                     std::size_t smear) {
  const auto radius = static_cast<TimeSec>(smear + 1);
  double peak = 0.0;
  for (TimeSec u = t - radius; u <= t + radius; ++u) {
    if (errors.contains(u)) peak = std::max(peak, errors.at(u));
  }
  return peak;
}

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
  if (jitter >= 0.8) return 3;
  if (jitter >= 0.3) return 2;
  if (jitter >= 0.1) return 1;
  return 0;
}

}  // namespace

std::size_t smoothHalf(const FChainConfig& config,
                       std::span<const double> raw) {
  return config.adaptive_smoothing
             ? adaptiveSmoothHalf(raw, signal::threadScratch())
             : config.smooth_half_window;
}

double errorFloor(const FChainConfig& config, const TimeSeries& errors,
                  TimeSec window_start, std::size_t raw_size) {
  signal::SignalScratch& scratch = signal::threadScratch();
  double error_floor = 0.0;
  if (config.history_error_window_sec > 0) {
    const auto history = errors.window(
        window_start - config.history_error_window_sec, window_start);
    if (history.size() >= 100) {
      const auto radius =
          static_cast<std::ptrdiff_t>(config.smooth_half_window + 1);
      std::vector<double>& block_max = scratch.blockMax(history.size());
      for (std::ptrdiff_t i = 0;
           i < static_cast<std::ptrdiff_t>(history.size()); ++i) {
        double peak = 0.0;
        const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - radius);
        const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(history.size()) - 1, i + radius);
        for (std::ptrdiff_t j = lo; j <= hi; ++j) {
          peak = std::max(peak, history[static_cast<std::size_t>(j)]);
        }
        block_max[static_cast<std::size_t>(i)] = peak;
      }
      const double window_adjusted_pct =
          100.0 * (1.0 - 2.0 / static_cast<double>(raw_size));
      error_floor = fchain::percentileInPlace(
          block_max,
          std::max(config.history_error_percentile, window_adjusted_pct));
    }
  }
  return error_floor;
}

std::optional<MetricFinding> analyzeMetric(const FChainConfig& config,
                                           MetricKind kind,
                                           const TimeSeries& series,
                                           const TimeSeries& errors,
                                           TimeSec violation_time) {
  signal::SignalScratch& scratch = signal::threadScratch();
  const TimeSec window_start =
      std::max(series.startTime(), violation_time - config.lookback_sec);
  const TimeSec window_end = std::min(series.endTime(), violation_time + 1);
  const auto raw = series.window(window_start, window_end);
  if (raw.size() < config.cusum.min_segment * 2) return std::nullopt;

  // 1. Smooth + detect change points.
  const std::size_t smooth_half = smoothHalf(config, raw);
  const std::vector<double>& smoothed = signal::movingAverageInto(
      raw, smooth_half, scratch.smoothed(raw.size()));
  const std::vector<signal::ChangePoint>& points =
      signal::detectChangePointsInto(smoothed, config.cusum, scratch,
                                     scratch.points());
  if (points.empty()) return std::nullopt;

  // 2. Keep change-magnitude outliers.
  const std::vector<signal::ChangePoint>& outliers =
      signal::outlierChangePointsInto(points, config.outlier, scratch,
                                      scratch.outliers());
  if (outliers.empty()) return std::nullopt;

  const double error_floor =
      errorFloor(config, errors, window_start, raw.size());

  const double window_scale =
      config.fixed_error_threshold >= 0.0
          ? std::max(1e-9, fchain::medianAbsDeviation(raw, scratch.statsA(),
                                                      scratch.statsB()) *
                               1.4826)
          : 0.0;

  // 3. Predictability test.
  std::optional<signal::ChangePoint> selected;
  double selected_observed = 0.0;
  double selected_expected = 0.0;
  double best_ratio = 0.0;
  for (const auto& candidate : outliers) {
    const TimeSec cp_time =
        window_start + static_cast<TimeSec>(candidate.index);
    if (!changePersists(smoothed, candidate, config.persistence_fraction,
                        config.persistence_probe_sec)) {
      continue;
    }
    if (!config.use_predictability) {
      selected = candidate;
      selected_observed = observedError(errors, cp_time, smooth_half);
      selected_expected = 0.0;
      break;
    }
    const double observed = observedError(errors, cp_time, smooth_half);
    double expected;
    if (config.fixed_error_threshold >= 0.0) {
      expected = config.fixed_error_threshold * window_scale;
    } else {
      const auto burst_window =
          series.window(cp_time - config.burst_half_window_sec,
                        cp_time + config.burst_half_window_sec + 1);
      expected =
          config.error_margin *
          std::max(error_floor, signal::expectedPredictionError(
                                    burst_window, config.burst, scratch));
    }
    if (observed > expected) {
      const double ratio = observed / std::max(1e-12, expected);
      if (!selected.has_value() || ratio > best_ratio) {
        selected = candidate;
        selected_observed = observed;
        selected_expected = expected;
        best_ratio = ratio;
      }
      if (!config.select_strongest) break;
    }
  }
  if (!selected.has_value()) return std::nullopt;

  // 4. Tangent-based rollback.
  std::size_t selected_pos = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].index == selected->index) {
      selected_pos = i;
      break;
    }
  }
  std::size_t onset_pos = selected_pos;
  if (config.use_rollback) {
    onset_pos = signal::rollbackOnset(smoothed, points, selected_pos,
                                      config.rollback, scratch);
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

}  // namespace fchain::core::reference
