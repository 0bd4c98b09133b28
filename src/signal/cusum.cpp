#include "signal/cusum.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/stats.h"
#include "obs/trace.h"
#include "signal/scratch.h"

namespace fchain::signal {

namespace {

/// CUSUM range (max - min of the cumulative mean-centered sum) and the index
/// where |S| peaks, which estimates the change location.
struct CusumResult {
  double range = 0.0;
  std::size_t peak = 0;
  double mean = 0.0;  ///< segment mean (reused by the pooled bootstrap)
};

CusumResult cusumRange(std::span<const double> xs) {
  const double m = fchain::mean(xs);
  double s = 0.0;
  double lo = 0.0, hi = 0.0;
  double best_abs = 0.0;
  CusumResult result;
  result.mean = m;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    s += xs[i] - m;
    lo = std::min(lo, s);
    hi = std::max(hi, s);
    if (std::fabs(s) > best_abs) {
      best_abs = std::fabs(s);
      result.peak = i;
    }
  }
  result.range = hi - lo;
  return result;
}

/// Two bootstrap rounds side by side: a GCC/Clang generic vector, which is
/// baseline SSE2 on x86-64 and plain scalar code where no vector unit is
/// assumed. No intrinsics, no -march.
using RoundPair = double __attribute__((vector_size(16)));

/// Running CUSUM state of two rounds. Each lane is one round's scalar loop:
/// the same terms added in the same order, and min/max spelled exactly as
/// std::min(lo, s) and std::max(hi, s) evaluate them, so every lane's range
/// is bit-identical to running that round alone.
struct PairCusum {
  RoundPair sum{};
  RoundPair lo{};
  RoundPair hi{};

  void add(double a, double b) {
    sum += RoundPair{a, b};
    lo = sum < lo ? sum : lo;
    hi = hi < sum ? sum : hi;
  }
};

/// Rounds evaluated per pass over the segment. Eight rounds are four
/// independent add/min/max chains, which hides the add latency that bounds
/// a single round; sixteen would need 24 vector accumulators, more than
/// SSE2's 16 registers.
constexpr std::size_t kRoundGroup = 8;

/// CUSUM ranges of the kRoundGroup rounds whose permutation rows start at
/// `rows` (round-major, n entries each), over the mean-centred segment
/// `centred` of length n. Only the first `valid` rounds exist; the other
/// lanes repeat the last valid row, and the caller never reads their ranges.
std::array<double, kRoundGroup> cusumRanges8(const double* centred,
                                             std::size_t n,
                                             const std::uint32_t* rows,
                                             std::size_t valid) {
  const auto row = [&](std::size_t k) {
    return rows + std::min(k, valid - 1) * n;
  };
  const std::uint32_t* r0 = row(0);
  const std::uint32_t* r1 = row(1);
  const std::uint32_t* r2 = row(2);
  const std::uint32_t* r3 = row(3);
  const std::uint32_t* r4 = row(4);
  const std::uint32_t* r5 = row(5);
  const std::uint32_t* r6 = row(6);
  const std::uint32_t* r7 = row(7);
  PairCusum a, b, c, d;
  for (std::size_t i = 0; i < n; ++i) {
    a.add(centred[r0[i]], centred[r1[i]]);
    b.add(centred[r2[i]], centred[r3[i]]);
    c.add(centred[r4[i]], centred[r5[i]]);
    d.add(centred[r6[i]], centred[r7[i]]);
  }
  const RoundPair range_a = a.hi - a.lo;
  const RoundPair range_b = b.hi - b.lo;
  const RoundPair range_c = c.hi - c.lo;
  const RoundPair range_d = d.hi - d.lo;
  return {range_a[0], range_a[1], range_b[0], range_b[1],
          range_c[0], range_c[1], range_d[0], range_d[1]};
}

/// Pooled bootstrap: does a random reordering produce as large a range at
/// least (1 - confidence) of the time? The segment is mean-centred once
/// (the pooled bootstrap defines the mean as the unpermuted segment's, and
/// `xs[j] - mean` is the very term a single round adds), then the rounds run
/// in groups of eight. After each group the per-round reject test is
/// replayed in round order, so the loop returns at the same round with the
/// same value as running one round at a time: it aborts as soon as the
/// answer can no longer be "no", and an accepted segment (which by
/// definition never hits the abort condition) gets the exact full-round
/// confidence.
double pooledBootstrapConfidence(std::span<const double> xs,
                                 double observed_range, double segment_mean,
                                 const CusumConfig& config,
                                 SignalScratch& scratch) {
  const std::size_t rounds = config.bootstrap_rounds;
  if (rounds == 0) return 1.0;
  const std::size_t n = xs.size();
  const auto perms = scratch.permutations(config.seed, rounds, n);
  std::vector<double>& centred = scratch.shuffle(n);
  for (std::size_t j = 0; j < n; ++j) centred[j] = xs[j] - segment_mean;
  const auto rounds_f = static_cast<double>(rounds);
  std::size_t below = 0;
  for (std::size_t first = 0; first < rounds; first += kRoundGroup) {
    const std::size_t valid = std::min(kRoundGroup, rounds - first);
    const std::array<double, kRoundGroup> ranges =
        cusumRanges8(centred.data(), n, perms.data() + first * n, valid);
    for (std::size_t k = 0; k < valid; ++k) {
      if (ranges[k] < observed_range) ++below;
      // Even if every remaining round lands below the observed range, the
      // final fraction cannot reach the significance bar: reject now.
      const std::size_t remaining = rounds - (first + k) - 1;
      if (static_cast<double>(below + remaining) / rounds_f <
          config.confidence) {
        return static_cast<double>(below) / rounds_f;
      }
    }
  }
  return static_cast<double>(below) / rounds_f;
}

void detectRecursive(std::span<const double> xs, std::size_t offset,
                     const CusumConfig& config, SignalScratch& scratch,
                     std::vector<ChangePoint>& out) {
  if (xs.size() < config.min_segment * 2) return;
  if (out.size() >= config.max_change_points) return;

  const CusumResult observed = cusumRange(xs);
  if (observed.range <= 0.0) return;

  const double confidence = pooledBootstrapConfidence(
      xs, observed.range, observed.mean, config, scratch);
  if (confidence < config.confidence) return;

  // Change starts at the sample *after* the |S| peak.
  const std::size_t split = observed.peak + 1;
  if (split < config.min_segment || xs.size() - split < config.min_segment) {
    return;
  }

  const double before = fchain::mean(xs.subspan(0, split));
  const double after = fchain::mean(xs.subspan(split));
  out.push_back(ChangePoint{offset + split, confidence, after - before});

  detectRecursive(xs.subspan(0, split), offset, config, scratch, out);
  detectRecursive(xs.subspan(split), offset + split, config, scratch, out);
}

}  // namespace

std::vector<ChangePoint>& detectChangePointsInto(
    std::span<const double> xs, const CusumConfig& config,
    SignalScratch& scratch, std::vector<ChangePoint>& out) {
  // One span for the whole bootstrap/segmentation recursion — per-segment
  // spans would swamp the trace without adding signal.
  FCHAIN_SPAN_VAR(span, "signal.cusum");
  span.arg("n", static_cast<std::int64_t>(xs.size()));
  out.clear();
  detectRecursive(xs, 0, config, scratch, out);
  std::sort(out.begin(), out.end(),
            [](const ChangePoint& a, const ChangePoint& b) {
              return a.index < b.index;
            });
  return out;
}

std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config) {
  std::vector<ChangePoint> points;
  detectChangePointsInto(xs, config, threadScratch(), points);
  return points;
}

}  // namespace fchain::signal
