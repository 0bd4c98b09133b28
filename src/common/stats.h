// Small numerically careful statistics helpers used across FChain: moments,
// order statistics, robust scale (MAD), histograms and Kullback-Leibler
// divergence (the Histogram baseline's anomaly score).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fchain {

double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(std::span<const double> xs);

double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100] (out-of-range p is clamped;
/// a NaN p throws std::invalid_argument — there is no meaningful rank for
/// it). Boundary semantics: p = 0 returns the minimum and p = 100 the
/// maximum exactly, with no interpolation arithmetic that could overflow or
/// produce NaN on infinite extremes. Precondition: !xs.empty() (throws
/// std::invalid_argument otherwise — an empty window has no order
/// statistics, and silently returning 0 would hand callers a fake
/// threshold).
double percentile(std::span<const double> xs, double p);

/// percentile() over a caller-owned buffer that is partially reordered in
/// place by selection — the zero-allocation variant the signal hot path
/// uses. The span keeps its multiset, but its element order is clobbered
/// (it is not left sorted).
double percentileInPlace(std::span<double> xs, double p);

double median(std::span<const double> xs);

/// median() over a caller-owned buffer, reordered in place like
/// percentileInPlace() (zero-allocation).
double medianInPlace(std::span<double> xs);

/// Median absolute deviation (robust scale estimate).
double medianAbsDeviation(std::span<const double> xs);

/// medianAbsDeviation() using caller-provided work buffers so the hot path
/// never allocates once the buffers reach steady-state capacity. `work` and
/// `deviations` must be distinct vectors, and distinct from the storage
/// backing `xs`; their contents are clobbered.
double medianAbsDeviation(std::span<const double> xs,
                          std::vector<double>& work,
                          std::vector<double>& deviations);

double minValue(std::span<const double> xs);
double maxValue(std::span<const double> xs);

/// Ordinary least squares slope of xs against sample index 0..n-1.
/// Used as the "tangent" in FChain's tangent-based rollback and as the trend
/// direction estimator. Returns 0 for n < 2.
double slope(std::span<const double> xs);

/// An equi-width histogram over a fixed [lo, hi] range with `bins` buckets.
/// Out-of-range samples are clamped into the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void addAll(std::span<const double> xs);

  std::size_t binCount() const { return counts_.size(); }
  std::size_t totalCount() const { return total_; }

  /// Probability mass of bucket i with add-one (Laplace) smoothing so KL
  /// divergence is always finite.
  double probability(std::size_t i) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// KL(p || q) over two histograms with identical binning (checked).
double klDivergence(const Histogram& p, const Histogram& q);

/// Pearson correlation coefficient; 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace fchain
