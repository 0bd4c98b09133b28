// Property-style sweeps over the statistics helpers: invariances that must
// hold for arbitrary inputs (TEST_P over seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"

namespace fchain {
namespace {

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<double> randomData(std::size_t n) {
    Rng rng(GetParam());
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.uniform(-100.0, 100.0);
    return xs;
  }
};

// --- Percentile boundary contract (exhaustive edge cases) ------------------

TEST(PercentileBoundary, EmptyInputThrows) {
  EXPECT_THROW(percentile(std::span<const double>{}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(percentileInPlace(std::span<double>{}, 50.0),
               std::invalid_argument);
  EXPECT_THROW(median(std::span<const double>{}), std::invalid_argument);
}

TEST(PercentileBoundary, NanRankThrowsInsteadOfUndefinedCast) {
  // A NaN p used to be cast straight to size_t (undefined behaviour and a
  // garbage rank). It must throw for every input size.
  const std::vector<double> one{3.0};
  const std::vector<double> many{1.0, 2.0, 3.0, 4.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(percentile(many, nan), std::invalid_argument);
  EXPECT_THROW(percentile(one, nan), std::invalid_argument);
  std::vector<double> buf = many;
  EXPECT_THROW(percentileInPlace(buf, nan), std::invalid_argument);
}

TEST(PercentileBoundary, SingleElementReturnsItForEveryRank) {
  const std::vector<double> xs{42.5};
  for (double p : {0.0, 0.001, 50.0, 99.999, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile(xs, p), 42.5) << "p=" << p;
  }
}

TEST(PercentileBoundary, EndpointsAreExactMinAndMax) {
  const std::vector<double> xs{7.0, -3.0, 5.0, 11.0, 0.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), -3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 11.0);
  // Out-of-range ranks clamp to the endpoints.
  EXPECT_DOUBLE_EQ(percentile(xs, -10.0), -3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 250.0), 11.0);
}

TEST(PercentileBoundary, InfiniteExtremesDoNotPoisonExactRanks) {
  // With interpolation arithmetic at exact ranks, an infinite neighbour
  // produced inf * 0 = NaN. Exact ranks must return the element directly.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs{1.0, 2.0, inf};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.0);
  EXPECT_EQ(percentile(xs, 100.0), inf);
  const std::vector<double> neg{-inf, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(percentile(neg, 50.0), 5.0);
  EXPECT_EQ(percentile(neg, 0.0), -inf);
}

TEST(PercentileBoundary, TwoElementInterpolation) {
  const std::vector<double> xs{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 12.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 20.0);
}

TEST(PercentileBoundary, InPlaceVariantMatchesAllocatingVariant) {
  // Oracle: sort the whole buffer, then interpolate between the two ranks
  // it straddles. Both variants find those ranks by selection and must
  // match it bit for bit.
  const auto sorted_oracle = [](std::vector<double> xs, double p) {
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1) return xs[0];
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    if (frac == 0.0) return xs[lo];
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
  };

  std::vector<std::vector<double>> inputs;
  Rng rng(5);
  std::vector<double> uniform(37);
  for (double& x : uniform) x = rng.uniform(-50.0, 50.0);
  inputs.push_back(uniform);
  // Shaped like the history error floor's input: block maxima of a 7-wide
  // running max, so nearly every value repeats in a run of ties.
  std::vector<double> errors(900);
  for (double& e : errors) e = std::fabs(rng.gaussian(0.0, 2.0));
  std::vector<double> block_max(errors.size());
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const std::size_t lo = i >= 3 ? i - 3 : 0;
    const std::size_t hi = std::min(errors.size() - 1, i + 3);
    block_max[i] =
        *std::max_element(errors.begin() + lo, errors.begin() + hi + 1);
  }
  inputs.push_back(block_max);
  inputs.push_back({4.25});
  inputs.push_back({9.5, -1.75});

  std::vector<double> ranks;
  for (double p = 0.0; p <= 100.0; p += 2.5) ranks.push_back(p);
  ranks.push_back(97.8);
  ranks.push_back(98.0);

  for (const auto& xs : inputs) {
    SCOPED_TRACE(::testing::Message() << "n=" << xs.size());
    for (double p : ranks) {
      const double expected = sorted_oracle(xs, p);
      std::vector<double> buf = xs;
      EXPECT_EQ(percentileInPlace(buf, p), expected) << "p=" << p;
      EXPECT_EQ(percentile(xs, p), expected) << "p=" << p;
    }
    std::vector<double> buf = xs;
    EXPECT_EQ(medianInPlace(buf), median(xs));
  }
}

TEST(PercentileBoundary, BufferedMadMatchesAllocatingMad) {
  Rng rng(6);
  std::vector<double> xs(41);
  for (double& x : xs) x = rng.uniform(-50.0, 50.0);
  std::vector<double> work, deviations;
  EXPECT_EQ(medianAbsDeviation(xs, work, deviations), medianAbsDeviation(xs));
  // And with warm (over-sized) buffers, which must be resized down.
  work.assign(500, 0.0);
  deviations.assign(500, 0.0);
  EXPECT_EQ(medianAbsDeviation(xs, work, deviations), medianAbsDeviation(xs));
}

TEST_P(StatsProperty, PercentileIsMonotoneInP) {
  const auto xs = randomData(73);
  double previous = percentile(xs, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double current = percentile(xs, p);
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST_P(StatsProperty, PercentileIsPermutationInvariant) {
  auto xs = randomData(50);
  const double p90 = percentile(xs, 90.0);
  Rng rng(GetParam() ^ 0xabc);
  for (std::size_t i = xs.size() - 1; i > 0; --i) {
    std::swap(xs[i], xs[rng.below(i + 1)]);
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), p90);
}

TEST_P(StatsProperty, MeanAndMedianAreTranslationEquivariant) {
  const auto xs = randomData(41);
  std::vector<double> shifted(xs);
  for (double& x : shifted) x += 1234.5;
  EXPECT_NEAR(mean(shifted), mean(xs) + 1234.5, 1e-9);
  EXPECT_NEAR(median(shifted), median(xs) + 1234.5, 1e-9);
  // MAD is translation invariant.
  EXPECT_NEAR(medianAbsDeviation(shifted), medianAbsDeviation(xs), 1e-9);
}

TEST_P(StatsProperty, ScaleEquivariance) {
  const auto xs = randomData(41);
  std::vector<double> scaled(xs);
  for (double& x : scaled) x *= 3.0;
  EXPECT_NEAR(stddev(scaled), 3.0 * stddev(xs), 1e-9);
  EXPECT_NEAR(medianAbsDeviation(scaled), 3.0 * medianAbsDeviation(xs), 1e-9);
  EXPECT_NEAR(slope(scaled), 3.0 * slope(xs), 1e-9);
}

TEST_P(StatsProperty, VarianceMatchesDefinition) {
  const auto xs = randomData(29);
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  EXPECT_NEAR(variance(xs), sum / static_cast<double>(xs.size() - 1), 1e-9);
}

TEST_P(StatsProperty, KlDivergenceIsNonNegativeAndZeroOnSelf) {
  Rng rng(GetParam());
  Histogram p(0, 1, 12);
  Histogram q(0, 1, 12);
  for (int i = 0; i < 500; ++i) {
    p.add(rng.uniform());
    q.add(std::pow(rng.uniform(), 2.0));  // different shape
  }
  EXPECT_GE(klDivergence(p, q), 0.0);
  EXPECT_NEAR(klDivergence(p, p), 0.0, 1e-12);
}

TEST_P(StatsProperty, HistogramProbabilitiesFormADistribution) {
  Rng rng(GetParam());
  Histogram h(-5, 5, 17);
  for (int i = 0; i < 200; ++i) h.add(rng.gaussian());
  double total = 0.0;
  for (std::size_t i = 0; i < h.binCount(); ++i) {
    const double pi = h.probability(i);
    EXPECT_GT(pi, 0.0);  // Laplace smoothing keeps every bin positive
    total += pi;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(StatsProperty, PearsonIsBoundedAndSymmetric) {
  Rng rng(GetParam());
  std::vector<double> xs(60), ys(60);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.gaussian();
    ys[i] = 0.4 * xs[i] + rng.gaussian();
  }
  const double r = pearson(xs, ys);
  EXPECT_GE(r, -1.0 - 1e-12);
  EXPECT_LE(r, 1.0 + 1e-12);
  EXPECT_NEAR(pearson(ys, xs), r, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace fchain
