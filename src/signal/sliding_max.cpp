#include "signal/sliding_max.h"

#include <algorithm>

namespace fchain::signal {

std::span<double> slidingMaxInto(std::span<const double> xs,
                                 std::size_t radius,
                                 std::vector<double>& lane) {
  const std::size_t n = xs.size();
  // Zero pads on both sides stand in for the clipped edges: every value is
  // clamped to >= +0.0 below, so a pad never wins over a real sample.
  lane.resize(n + 2 * radius);
  std::fill_n(lane.begin(), radius, 0.0);
  std::fill(lane.begin() + static_cast<std::ptrdiff_t>(radius + n),
            lane.end(), 0.0);
  // std::max(0.0, x) drops NaN and maps -0.0 to +0.0, so the lane holds only
  // ordered, non-negative doubles and max is exact under any grouping.
  for (std::size_t i = 0; i < n; ++i) lane[radius + i] = std::max(0.0, xs[i]);

  // Doubling passes: before a pass lane[i] is the max of `width` inputs
  // starting at i; max(lane[i], lane[i + step]) with step <= width makes it
  // width + step (overlap is harmless, max is idempotent). Ascending order
  // reads lane[i + step] before this pass overwrites it. Each pass leaves
  // `step` fewer entries whose window fits in the lane; after 2r in total
  // exactly the first n remain, lane[i] covering xs[i - r, i + r].
  const std::size_t target = 2 * radius + 1;
  std::size_t width = 1;
  std::size_t live = lane.size();
  double* a = lane.data();
  while (width < target) {
    const std::size_t step = std::min(width, target - width);
    live -= step;
    for (std::size_t i = 0; i < live; ++i) a[i] = std::max(a[i], a[i + step]);
    width += step;
  }
  return std::span<double>(lane).first(n);
}

}  // namespace fchain::signal
