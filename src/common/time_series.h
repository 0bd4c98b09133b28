// A 1 Hz time series of metric samples.
//
// The series starts at startTime() and holds one sample per second. All of
// FChain's analysis (change point detection, burst extraction, prediction
// error bookkeeping) operates on windows of such series.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace fchain {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(TimeSec start_time) : start_(start_time) {}
  TimeSeries(TimeSec start_time, std::vector<double> values)
      : start_(start_time), values_(std::move(values)) {}

  /// Timestamp of the first sample.
  TimeSec startTime() const { return start_; }

  /// Timestamp one past the last sample (== startTime() when empty).
  TimeSec endTime() const {
    return start_ + static_cast<TimeSec>(values_.size());
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Appends the sample for time endTime().
  void append(double value) { values_.push_back(value); }

  /// True when the series has a sample for time t.
  bool contains(TimeSec t) const { return t >= start_ && t < endTime(); }

  /// Value at absolute time t. Precondition: contains(t).
  double at(TimeSec t) const {
    return values_[static_cast<std::size_t>(t - start_)];
  }

  /// Mutable value at absolute time t. Precondition: contains(t).
  double& at(TimeSec t) {
    return values_[static_cast<std::size_t>(t - start_)];
  }

  /// All values, oldest first.
  std::span<const double> values() const { return values_; }

  /// Values in the absolute-time window [from, to); both ends are clamped to
  /// the available range, so the result may be shorter than requested.
  std::span<const double> window(TimeSec from, TimeSec to) const;

  /// Drops samples older than `keep` seconds before endTime(); startTime()
  /// advances accordingly. FChainSlave::ingestAt bounds each VM's state with
  /// it.
  void trimFront(std::size_t keep);

 private:
  TimeSec start_ = 0;
  std::vector<double> values_;
};

/// Dense per-metric bundle of series for one component.
class MetricSeries {
 public:
  MetricSeries() = default;
  explicit MetricSeries(TimeSec start_time) {
    for (auto& series : series_) series = TimeSeries(start_time);
  }

  TimeSeries& of(MetricKind kind) { return series_[metricIndex(kind)]; }
  const TimeSeries& of(MetricKind kind) const {
    return series_[metricIndex(kind)];
  }

  /// Appends one sample per metric; `sample` is indexed by metricIndex().
  void append(const std::array<double, kMetricCount>& sample) {
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      series_[i].append(sample[i]);
    }
  }

  TimeSec endTime() const { return series_[0].endTime(); }
  std::size_t size() const { return series_[0].size(); }

  /// TimeSeries::trimFront on all six metrics, so they stay aligned.
  void trimFront(std::size_t keep) {
    for (auto& series : series_) series.trimFront(keep);
  }

 private:
  std::array<TimeSeries, kMetricCount> series_{};
};

}  // namespace fchain
