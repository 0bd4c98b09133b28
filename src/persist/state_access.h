// Capture/restore bridge between the markov layer's private state and the
// persist layer's PredictorState value type.
//
// The predictor classes deliberately expose no mutable state — their
// invariants (counts.size() == bins^2, incrementally maintained row mass)
// are what make online prediction correct. Persistence needs the raw fields
// anyway, so instead of widening the public API, this single friend struct
// is the only door. It is header-only: fchain_persist itself still links
// only fchain_common; the code here is compiled into whatever higher layer
// (fchain_core) includes it.
//
// Restore constructs a predictor through its real constructor first (so all
// derived invariants are established the normal way) and then overwrites the
// learned state field by field with the exact persisted bits.
#pragma once

#include <utility>

#include "fchain/fluctuation_model.h"
#include "markov/predictor.h"
#include "persist/snapshot.h"

namespace fchain::persist {

struct StateAccess {
  /// Reads every private field of one predictor into the snapshot value.
  static PredictorState capture(const markov::OnlinePredictor& p) {
    PredictorState s;
    const markov::Discretizer& d = p.discretizer_;
    s.bins = d.bins_;
    s.calibration_samples = d.calibration_samples_;
    s.padding = d.padding_;
    s.calibration_buffer = d.buffer_;
    s.calibrated = d.calibrated_;
    s.lo = d.lo_;
    s.hi = d.hi_;
    s.width = d.width_;

    const markov::MarkovModel& m = p.model_;
    s.decay = m.decay_;
    s.laplace = m.laplace_;
    s.counts = m.counts_;
    s.row_mass = m.row_mass_;

    s.errors.start = p.errors_.startTime();
    s.errors.values.assign(p.errors_.values().begin(),
                           p.errors_.values().end());
    s.has_last_state = p.last_state_.has_value();
    s.last_state = p.last_state_.value_or(0);
    s.has_predicted_next = p.predicted_next_.has_value();
    s.predicted_next = p.predicted_next_.value_or(0.0);
    return s;
  }

  /// Rebuilds a predictor whose observable behaviour is bit-identical to the
  /// captured one, moving the state's vectors into it. Precondition: `s`
  /// passed decodeSlaveSnapshot's structural validation (bins > 0,
  /// counts.size() == bins^2, row_mass.size() == bins).
  static markov::OnlinePredictor restore(PredictorState s) {
    markov::PredictorConfig config;
    config.bins = static_cast<std::size_t>(s.bins);
    config.calibration_samples =
        static_cast<std::size_t>(s.calibration_samples);
    config.range_padding = s.padding;
    config.decay = s.decay;
    config.laplace = s.laplace;
    markov::OnlinePredictor p(s.errors.start, config);

    markov::Discretizer& d = p.discretizer_;
    d.buffer_ = std::move(s.calibration_buffer);
    d.calibrated_ = s.calibrated;
    d.lo_ = s.lo;
    d.hi_ = s.hi;
    d.width_ = s.width;

    markov::MarkovModel& m = p.model_;
    m.counts_ = std::move(s.counts);
    m.row_mass_ = std::move(s.row_mass);

    p.errors_ = TimeSeries(s.errors.start, std::move(s.errors.values));
    p.last_state_ = s.has_last_state
                        ? std::optional<std::size_t>(
                              static_cast<std::size_t>(s.last_state))
                        : std::nullopt;
    p.predicted_next_ = s.has_predicted_next
                            ? std::optional<double>(s.predicted_next)
                            : std::nullopt;
    return p;
  }

  static std::array<markov::OnlinePredictor, kMetricCount>& predictors(
      core::NormalFluctuationModel& model) {
    return model.predictors_;
  }
  static const std::array<markov::OnlinePredictor, kMetricCount>& predictors(
      const core::NormalFluctuationModel& model) {
    return model.predictors_;
  }
};

}  // namespace fchain::persist
