#include "signal/outlier.h"

#include <cmath>

#include "common/stats.h"
#include "signal/scratch.h"

namespace fchain::signal {

std::vector<ChangePoint>& outlierChangePointsInto(
    std::span<const ChangePoint> points, const OutlierConfig& config,
    SignalScratch& scratch, std::vector<ChangePoint>& out) {
  out.clear();
  if (points.size() < 3) {
    out.assign(points.begin(), points.end());
    return out;
  }

  // The magnitudes are only consumed through their order statistics, so they
  // go straight into the stats lanes: statsA is reordered by the median's
  // selection, then statsB holds |magnitude - median| for the MAD.
  // Reordering first does not change either multiset, so this matches the
  // allocating path bit for bit.
  std::vector<double>& magnitudes = scratch.statsA();
  magnitudes.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    magnitudes[i] = std::fabs(points[i].shift);
  }
  const double med = fchain::medianInPlace(magnitudes);
  std::vector<double>& deviations = scratch.statsB();
  deviations.resize(magnitudes.size());
  for (std::size_t i = 0; i < magnitudes.size(); ++i) {
    deviations[i] = std::fabs(magnitudes[i] - med);
  }
  const double mad = fchain::medianInPlace(deviations);
  // 1.4826 scales MAD to the stddev of a normal distribution.
  const double robust_sigma = 1.4826 * mad;

  for (const auto& p : points) {
    const double magnitude = std::fabs(p.shift);
    bool is_outlier;
    if (robust_sigma > 1e-12) {
      is_outlier = (magnitude - med) / robust_sigma > config.mad_zscore;
    } else {
      // All shifts nearly identical: only flag clear multiples of the median.
      is_outlier = med > 1e-12 && magnitude > config.degenerate_ratio * med;
    }
    if (is_outlier) out.push_back(p);
  }
  return out;
}

std::vector<ChangePoint> outlierChangePoints(
    std::span<const ChangePoint> points, const OutlierConfig& config) {
  std::vector<ChangePoint> out;
  outlierChangePointsInto(points, config, threadScratch(), out);
  return out;
}

}  // namespace fchain::signal
