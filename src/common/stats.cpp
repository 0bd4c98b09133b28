#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fchain {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) {
    const double d = x - m;
    sum += d * d;
  }
  return sum / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {

/// Linear-interpolated percentile by selection. Only two order statistics
/// are read: nth_element places rank lo, and when the rank interpolates,
/// rank lo + 1 is the smallest element after it. Same values and the same
/// arithmetic as indexing a fully sorted buffer, without the full sort.
double selectPercentile(std::span<double> xs, double p) {
  if (xs.size() == 1) return xs[0];
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  // frac == 0 covers both exact ranks and the p = 100 endpoint (rank lands
  // on the last element). Returning the element directly keeps the result
  // exact and avoids `inf * 0 = NaN` when an extreme element is infinite.
  if (frac == 0.0) return *lo_it;
  // frac > 0 implies lo < size - 1, so the tail after lo is non-empty.
  const double next = *std::min_element(lo_it + 1, xs.end());
  return *lo_it * (1.0 - frac) + next * frac;
}

void checkPercentileArgs(bool empty, double p) {
  if (empty) throw std::invalid_argument("percentile of empty span");
  if (std::isnan(p)) throw std::invalid_argument("percentile rank is NaN");
}

}  // namespace

double percentile(std::span<const double> xs, double p) {
  checkPercentileArgs(xs.empty(), p);
  std::vector<double> work(xs.begin(), xs.end());
  return selectPercentile(work, p);
}

double percentileInPlace(std::span<double> xs, double p) {
  checkPercentileArgs(xs.empty(), p);
  return selectPercentile(xs, p);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double medianInPlace(std::span<double> xs) {
  return percentileInPlace(xs, 50.0);
}

double medianAbsDeviation(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = median(xs);
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (double x : xs) deviations.push_back(std::fabs(x - m));
  return median(deviations);
}

double medianAbsDeviation(std::span<const double> xs,
                          std::vector<double>& work,
                          std::vector<double>& deviations) {
  if (xs.empty()) return 0.0;
  work.assign(xs.begin(), xs.end());
  const double m = medianInPlace(work);
  deviations.resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    deviations[i] = std::fabs(xs[i] - m);
  }
  return medianInPlace(deviations);
}

double minValue(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double maxValue(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double slope(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  // OLS against index: slope = cov(i, x) / var(i).
  const double nf = static_cast<double>(n);
  const double mean_i = (nf - 1.0) / 2.0;
  const double mean_x = mean(xs);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double di = static_cast<double>(i) - mean_i;
    num += di * (xs[i] - mean_x);
    den += di * di;
  }
  return den == 0.0 ? 0.0 : num / den;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
}

void Histogram::add(double x) {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::addAll(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::probability(std::size_t i) const {
  // Laplace smoothing keeps KL finite when a bucket is empty on one side.
  return (static_cast<double>(counts_[i]) + 1.0) /
         (static_cast<double>(total_) + static_cast<double>(counts_.size()));
}

double klDivergence(const Histogram& p, const Histogram& q) {
  if (p.binCount() != q.binCount()) {
    throw std::invalid_argument("klDivergence: histogram bin mismatch");
  }
  double kl = 0.0;
  for (std::size_t i = 0; i < p.binCount(); ++i) {
    const double pi = p.probability(i);
    kl += pi * std::log(pi / q.probability(i));
  }
  return kl;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double num = 0.0, dx = 0.0, dy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = xs[i] - mx;
    const double b = ys[i] - my;
    num += a * b;
    dx += a * a;
    dy += b * b;
  }
  if (dx == 0.0 || dy == 0.0) return 0.0;
  return num / std::sqrt(dx * dy);
}

}  // namespace fchain
