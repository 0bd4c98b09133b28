// Slave-side normal fluctuation modeling (paper §II-A).
//
// One online Markov-chain predictor per monitored metric, updated every
// second from Domain 0. Normal workload fluctuations are transitions the
// model has seen and learned, so their prediction errors stay small; fault-
// induced fluctuations are novel and predict poorly. The per-second absolute
// prediction error series is the input to the abnormal change point
// selector's predictability test.
#pragma once

#include <array>

#include "common/time_series.h"
#include "markov/predictor.h"

namespace fchain::persist {
struct StateAccess;
}

namespace fchain::core {

class NormalFluctuationModel {
 public:
  explicit NormalFluctuationModel(TimeSec start_time,
                                  const markov::PredictorConfig& config = {});

  /// Feeds one 1 Hz sample bundle (all six metrics of one VM).
  void observe(const std::array<double, kMetricCount>& sample);

  /// Absolute prediction error per second for one metric.
  const TimeSeries& errorsOf(MetricKind kind) const {
    return predictors_[metricIndex(kind)].errors();
  }

  const markov::OnlinePredictor& predictorOf(MetricKind kind) const {
    return predictors_[metricIndex(kind)];
  }

  TimeSec endTime() const { return predictors_[0].errors().endTime(); }

  /// Keeps the newest `keep` seconds of all six error series.
  void trimFront(std::size_t keep) {
    for (markov::OnlinePredictor& predictor : predictors_) {
      predictor.trimErrors(keep);
    }
  }

 private:
  /// Snapshot/restore bridge (persist/state_access.h).
  friend struct ::fchain::persist::StateAccess;

  std::array<markov::OnlinePredictor, kMetricCount> predictors_;
};

/// Replays a recorded metric series through a fresh model up to (excluding)
/// `until`; the offline-evaluation path uses this to reconstruct what a
/// continuously running slave would have had at violation time.
NormalFluctuationModel replayModel(const MetricSeries& series, TimeSec until,
                                   const markov::PredictorConfig& config = {});

}  // namespace fchain::core
