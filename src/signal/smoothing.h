// Moving-average smoothing.
//
// PAL [13] (and FChain on top of it) smooths raw 1 Hz samples before change
// point detection to remove sampling noise. The paper's §III-C documents a
// side effect we reproduce: smoothing can shift the apparent onset of a
// propagated anomaly *earlier* than the true culprit's onset, which is why
// the concurrent-CpuHog System S case is hard. The window is therefore a
// config knob rather than a constant.
#pragma once

#include <span>
#include <vector>

namespace fchain::signal {

/// Centered moving average with window `2 * half + 1`, edges clamped.
/// half == 0 returns the input unchanged.
std::vector<double> movingAverage(std::span<const double> xs, std::size_t half);

/// Zero-allocation variant: writes into `out` (resized to xs.size(); no
/// allocation once its capacity is reached). `out` must not alias `xs`.
/// Returns `out` for convenience.
std::vector<double>& movingAverageInto(std::span<const double> xs,
                                       std::size_t half,
                                       std::vector<double>& out);

}  // namespace fchain::signal
