// Frozen unpruned change selector.
//
// AbnormalChangeSelector::analyzeMetric as it stood before the error-floor
// pre-screen and the sliding-max floor: every metric is smoothed, run
// through CUSUM, the outlier filter and persistence before the
// predictability test, and the history floor is a direct block-max scan.
// It is the oracle of test_fchain_selector's pre-screen identity suite: the
// production selector must return the same finding, doubles bit for bit, or
// the same "no finding", on every window.
//
// Do not "improve" this code — its value is that it never changes. It calls
// the production signal kernels, which test_signal_engine pins against the
// frozen signal engine separately.
#pragma once

#include <optional>
#include <span>

#include "fchain/change_selector.h"

namespace fchain::core::reference {

std::optional<MetricFinding> analyzeMetric(const FChainConfig& config,
                                           MetricKind kind,
                                           const TimeSeries& series,
                                           const TimeSeries& errors,
                                           TimeSec violation_time);

/// The smoothing half-width analyzeMetric uses on the look-back window
/// `raw` (the jitter-adaptive width when config.adaptive_smoothing is set).
std::size_t smoothHalf(const FChainConfig& config,
                       std::span<const double> raw);

/// The history error floor analyzeMetric compares candidates against, for
/// a look-back window that starts at `window_start` and holds `raw_size`
/// samples (0 when there are fewer than 100 history samples).
double errorFloor(const FChainConfig& config, const TimeSeries& errors,
                  TimeSec window_start, std::size_t raw_size);

}  // namespace fchain::core::reference
