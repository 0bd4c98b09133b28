// Bit-for-bit equality of localization results.
//
// renderPinpoint (pinpoint_render.h) leaves out the prediction-error doubles
// and rounds coverage to four digits, which suits the checked-in goldens but
// is too loose for the determinism guarantees: a pooled, parallel or remote
// localize must return the inline result with every field equal, doubles
// compared exactly. This header is the single definition of that equality
// (it used to be copied into each suite that pins such a guarantee).
#pragma once

#include <cstddef>

#include "fchain/pinpoint.h"

namespace fchain::core {

inline bool sameMetricFinding(const MetricFinding& a, const MetricFinding& b) {
  return a.metric == b.metric && a.onset == b.onset &&
         a.change_point == b.change_point && a.trend == b.trend &&
         a.prediction_error == b.prediction_error &&
         a.expected_error == b.expected_error;
}

inline bool sameFinding(const ComponentFinding& a, const ComponentFinding& b) {
  if (a.component != b.component || a.onset != b.onset || a.trend != b.trend ||
      a.metrics.size() != b.metrics.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (!sameMetricFinding(a.metrics[i], b.metrics[i])) return false;
  }
  return true;
}

/// Byte-level equality of every PinpointResult field.
inline bool samePinpoint(const PinpointResult& a, const PinpointResult& b) {
  if (a.pinpointed != b.pinpointed || a.external_factor != b.external_factor ||
      a.external_trend != b.external_trend || a.coverage != b.coverage ||
      a.unanalyzed != b.unanalyzed || a.chain.size() != b.chain.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    if (!sameFinding(a.chain[i], b.chain[i])) return false;
  }
  return true;
}

}  // namespace fchain::core
