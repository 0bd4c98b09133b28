// Abnormal change point selection (paper §II-B).
//
// Inside the look-back window [tv - W, tv] the selector:
//   0. pre-screens the metric: when no prediction error near the window
//      exceeds error_margin x the history error floor, no candidate can
//      pass step 3, so the metric has no finding and steps 1-4 are skipped
//      (exact; DESIGN.md §6 item 2);
//   1. smooths the raw samples and runs CUSUM + bootstrap change point
//      detection — this finds *many* change points on a fluctuating metric;
//   2. keeps only change-magnitude outliers (the PAL pre-filter);
//   3. keeps only outliers whose observed prediction error exceeds the
//      *expected* prediction error — the burstiness of the +-Q window around
//      the point, synthesized by FFT high-pass filtering (the predictability
//      test that distinguishes fault manifestation from normal workload
//      fluctuation);
//   4. rolls the earliest surviving point back through preceding change
//      points with similar tangents to land on the onset of the
//      manifestation;
//   5. reports, per component, the earliest onset across metrics plus the
//      trend direction and the set of fault-related metrics.
#pragma once

#include <optional>
#include <vector>

#include "common/time_series.h"
#include "fchain/config.h"
#include "fchain/fluctuation_model.h"

namespace fchain::core {

struct MetricFinding {
  MetricKind metric = MetricKind::CpuUsage;
  TimeSec onset = 0;          ///< rolled-back start of the abnormal change
  TimeSec change_point = 0;   ///< the selected abnormal change point itself
  Trend trend = Trend::Flat;  ///< direction of the level shift
  double prediction_error = 0.0;
  double expected_error = 0.0;
};

struct ComponentFinding {
  ComponentId component = kNoComponent;
  TimeSec onset = 0;          ///< earliest abnormal onset across metrics
  Trend trend = Trend::Flat;  ///< trend of the earliest metric finding
  std::vector<MetricFinding> metrics;
};

class AbnormalChangeSelector {
 public:
  explicit AbnormalChangeSelector(FChainConfig config = {})
      : config_(std::move(config)) {}

  const FChainConfig& config() const { return config_; }

  /// Analyzes one metric of one component. `errors` is the slave's online
  /// prediction error series for the same metric. Returns the finding when
  /// an abnormal change survives all filters.
  std::optional<MetricFinding> analyzeMetric(MetricKind kind,
                                             const TimeSeries& series,
                                             const TimeSeries& errors,
                                             TimeSec violation_time) const;

  /// Analyzes all metrics of a component; empty optional when the component
  /// shows no abnormal change in the look-back window.
  std::optional<ComponentFinding> analyzeComponent(
      ComponentId id, const MetricSeries& series,
      const NormalFluctuationModel& model, TimeSec violation_time) const;

 private:
  FChainConfig config_;
};

}  // namespace fchain::core
