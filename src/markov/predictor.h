// Online value predictor with per-sample error tracking.
//
// This is the slave-side "normal fluctuation modeling" building block: for
// every new sample it (1) scores how well the previous prediction matched,
// (2) updates the Markov model, and (3) predicts the next value. The per-
// sample absolute prediction error series is what the abnormal change point
// selector compares against the burstiness-derived expected error.
#pragma once

#include <optional>

#include "common/time_series.h"
#include "markov/discretizer.h"
#include "markov/markov_model.h"

namespace fchain::persist {
struct StateAccess;
}

namespace fchain::markov {

struct PredictorConfig {
  std::size_t bins = 40;
  std::size_t calibration_samples = 60;
  double range_padding = 0.25;
  double decay = 0.999;
  double laplace = 0.05;
};

class OnlinePredictor {
 public:
  explicit OnlinePredictor(TimeSec start_time,
                           const PredictorConfig& config = {});

  /// Feeds the sample for the next second. Returns the absolute prediction
  /// error for this sample (0 while the discretizer is still calibrating —
  /// the model has no opinion yet).
  double observe(double value);

  /// Prediction for the next (not yet observed) sample, when available.
  std::optional<double> predictNext() const;

  /// Absolute prediction error per second, aligned with the sample times.
  const TimeSeries& errors() const { return errors_; }

  /// Keeps the newest `keep` seconds of the error series. The Markov model
  /// needs no trim: its decay already bounds the transition mass.
  void trimErrors(std::size_t keep) { errors_.trimFront(keep); }

  bool ready() const { return discretizer_.calibrated(); }

  const MarkovModel& model() const { return model_; }
  const Discretizer& discretizer() const { return discretizer_; }

 private:
  /// Snapshot/restore bridge (persist/state_access.h).
  friend struct ::fchain::persist::StateAccess;

  Discretizer discretizer_;
  MarkovModel model_;
  TimeSeries errors_;
  std::optional<std::size_t> last_state_;
  std::optional<double> predicted_next_;
};

}  // namespace fchain::markov
