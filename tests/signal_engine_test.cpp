// Serial ≡ optimized identity suite for the scratch-arena signal engine.
//
// The optimized engine must be provably equivalent to the frozen reference
// engine (signal/reference.h, a test-only library):
//   - Smoothing, burst, outlier and rollback kernels: bit-identical.
//   - The history floor's sliding max: bit-identical to the direct
//     block-max scan it replaced, on NaN, infinities, -0.0 and denormals.
//   - CUSUM bootstrap: deterministic (scratch reuse, fresh arenas, a change
//     of seed or round count, and thread count must not matter), and its
//     early exit must make exactly the accept/reject decisions a full-round
//     run makes, with the exact confidence on accepted segments.
//   - Steady state allocates nothing: after one warm-up pass, the whole
//     per-VM kernel chain runs without touching operator new.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fchain/slave.h"
#include "pinpoint_equal.h"
#include "scoped_trace.h"
#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/reference.h"
#include "signal/scratch.h"
#include "signal/sliding_max.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fchain::signal {
namespace {

/// Noisy random walk with two injected level shifts — enough structure for
/// every pipeline stage (CUSUM accepts, outliers exist, rollback walks).
std::vector<double> faultyStream(std::uint64_t seed, std::size_t n) {
  fchain::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  double level = 50.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == n / 3) level += 25.0;
    if (i == (2 * n) / 3) level += 40.0;
    level += rng.gaussian(0.0, 0.4);
    xs.push_back(level + rng.gaussian(0.0, 2.0));
  }
  return xs;
}

bool samePoints(const std::vector<ChangePoint>& a,
                const std::vector<ChangePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].confidence != b[i].confidence ||
        a[i].shift != b[i].shift) {
      return false;
    }
  }
  return true;
}

TEST(EngineIdentity, StatelessKernelsMatchReferenceBitExact) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    const auto xs = faultyStream(seed, 200);
    for (std::size_t half : {0u, 1u, 2u, 3u}) {
      const auto ref = reference::movingAverage(xs, half);
      const auto opt = movingAverage(xs, half);
      ASSERT_EQ(ref.size(), opt.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], opt[i]) << "half=" << half << " i=" << i;
      }
    }

    // Planned FFT path vs the reference's unplanned transform.
    const auto window = std::span<const double>(xs).subspan(0, 41);
    const auto ref_burst = reference::burstSignal(window);
    const auto opt_burst = burstSignal(window);
    ASSERT_EQ(ref_burst.size(), opt_burst.size());
    for (std::size_t i = 0; i < ref_burst.size(); ++i) {
      ASSERT_EQ(ref_burst[i], opt_burst[i]) << "i=" << i;
    }
    EXPECT_EQ(reference::expectedPredictionError(window),
              expectedPredictionError(window));

    const auto points = reference::detectChangePoints(xs);
    EXPECT_TRUE(samePoints(reference::outlierChangePoints(points),
                           outlierChangePoints(points)));
    for (std::size_t selected = 0; selected < points.size(); ++selected) {
      EXPECT_EQ(reference::rollbackOnset(xs, points, selected),
                rollbackOnset(xs, points, selected));
    }
  }
}

/// The history floor's block maxima as the selector computed them before
/// the sliding-max kernel: a direct scan whose peak starts at +0.0 and whose
/// std::max(peak, x) drops NaN.
std::vector<double> directBlockMax(std::span<const double> xs,
                                   std::size_t radius) {
  const auto n = static_cast<std::ptrdiff_t>(xs.size());
  const auto r = static_cast<std::ptrdiff_t>(radius);
  std::vector<double> out(xs.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double peak = 0.0;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - r);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(n - 1, i + r);
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      peak = std::max(peak, xs[static_cast<std::size_t>(j)]);
    }
    out[static_cast<std::size_t>(i)] = peak;
  }
  return out;
}

TEST(EngineIdentity, SlidingMaxMatchesDirectScanBitExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  // Specials the floor can meet in a prediction-error history; the repeated
  // values make ties, the negatives and -0.0 must all read as +0.0.
  const std::array<double, 12> palette{
      0.0, -0.0, nan, inf, tiny, 3 * tiny, -tiny, -2.5, 0.5, 0.5, 1.0, -inf};
  // Capacity past every n + 2r: the lane's spare capacity is then poisoned
  // under _GLIBCXX_SANITIZE_VECTOR, so a read past size() fails the build
  // that defines it instead of silently reading a stale value.
  std::vector<double> lane;
  lane.reserve(2048);
  std::size_t zero_outputs = 0, inf_outputs = 0, tiny_outputs = 0;
  for (std::size_t n : {100u, 101u, 899u, 900u, 901u}) {
    fchain::Rng rng(n);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Runs of specials with gaussian stretches in between, so windows of
      // only NaN / negatives / denormals occur as well as mixed ones.
      const std::size_t run = (i / 9) % 3;
      xs[i] = run == 0 ? rng.gaussian(0.0, 1.0)
              : run == 1 ? palette[rng.below(palette.size())]
                         : palette[rng.below(5)];
    }
    for (std::size_t radius = 0; radius <= 4; ++radius) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " r=" << radius);
      const std::span<double> out = slidingMaxInto(xs, radius, lane);
      ASSERT_EQ(lane.size(), n + 2 * radius);
      ASSERT_EQ(out.data(), lane.data());
      ASSERT_EQ(out.size(), n);
      const std::vector<double> want = directBlockMax(xs, radius);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "i=" << i << " got " << out[i] << " want " << want[i];
        zero_outputs += want[i] == 0.0;
        inf_outputs += want[i] == inf;
        tiny_outputs += want[i] > 0.0 && want[i] < 1e-300;
      }
    }
  }
  // The sweep must reach the edge cases it is about.
  EXPECT_GT(zero_outputs, 0u);
  EXPECT_GT(inf_outputs, 0u);
  EXPECT_GT(tiny_outputs, 0u);
}

TEST(EngineIdentity, PooledModeIsDeterministicAcrossArenasAndReuse) {
  const CusumConfig config;
  // n = 500 exercises both pool paths: the top segments exceed
  // PermutationPool::kMaxPooledLength (regenerated into the overflow
  // buffer), deep recursion segments are cached.
  const auto xs = faultyStream(11, 500);

  SignalScratch fresh_a;
  std::vector<ChangePoint> out_a;
  detectChangePointsInto(xs, config, fresh_a, out_a);

  // Same arena again: warm pool, warm lanes.
  std::vector<ChangePoint> out_b;
  detectChangePointsInto(xs, config, fresh_a, out_b);
  EXPECT_TRUE(samePoints(out_a, out_b));

  // A different arena (cold pool), and the thread-local entry point.
  SignalScratch fresh_c;
  std::vector<ChangePoint> out_c;
  detectChangePointsInto(xs, config, fresh_c, out_c);
  EXPECT_TRUE(samePoints(out_a, out_c));
  EXPECT_TRUE(samePoints(out_a, detectChangePoints(xs, config)));

  // One arena alternating between two seeds and two round counts: a new
  // (seed, rounds) must drop every cached permutation block, so each call
  // matches a fresh arena's result.
  std::array<CusumConfig, 4> variants{config, config, config, config};
  variants[1].seed = config.seed + 1;
  variants[2].bootstrap_rounds = 120;
  variants[3].seed = variants[1].seed;
  variants[3].bootstrap_rounds = variants[2].bootstrap_rounds;
  std::size_t changed_points = 0;
  for (std::size_t v : {0u, 1u, 0u, 2u, 3u, 2u, 1u, 3u, 0u}) {
    const CusumConfig& variant = variants[v];
    SCOPED_TRACE(::testing::Message() << "seed=" << variant.seed
                                      << " rounds="
                                      << variant.bootstrap_rounds);
    SignalScratch fresh;
    std::vector<ChangePoint> expected;
    detectChangePointsInto(xs, variant, fresh, expected);
    std::vector<ChangePoint> reused;
    detectChangePointsInto(xs, variant, fresh_a, reused);
    EXPECT_TRUE(samePoints(expected, reused));
    if (!samePoints(expected, out_a)) ++changed_points;
  }
  // The variants must actually draw different resamples, or the
  // alternation proves nothing.
  EXPECT_GT(changed_points, 0u);
}

TEST(EngineIdentity, PooledEarlyExitMatchesFullRoundOracle) {
  // The early exit must be invisible: same accept/reject decision as
  // running every bootstrap round, and the exact full-round confidence on
  // accepted segments. Oracle: recompute the top-level segment's decision
  // from the same permutation pool, one round at a time with no early exit.
  // The engine runs rounds in groups of eight, so the sweep covers round
  // counts below, at and just past a group, plus a short last group; 129
  // samples exceeds PermutationPool::kMaxPooledLength and takes the
  // overflow block.
  SignalScratch scratch;
  std::size_t accepts = 0, rejects = 0;
  for (std::size_t rounds : {1u, 7u, 8u, 9u, 199u, 200u}) {
    for (std::size_t length : {60u, 129u}) {
      CusumConfig config;
      config.bootstrap_rounds = rounds;
      config.max_change_points = 1;  // stop after the top-level decision
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(::testing::Message() << "rounds=" << rounds
                                          << " n=" << length
                                          << " seed=" << seed);
        // Mix faulty and fault-free streams so both decisions occur.
        std::vector<double> xs;
        if (seed % 2 == 0) {
          fchain::Rng rng(seed);
          for (std::size_t i = 0; i < length; ++i) {
            xs.push_back(rng.gaussian(10.0, 3.0));
          }
        } else {
          xs = faultyStream(seed, length);
        }

        // Full-round oracle over the whole series as one segment.
        const double m = fchain::mean(xs);
        double s = 0.0, lo = 0.0, hi = 0.0, best_abs = 0.0;
        std::size_t peak = 0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          s += xs[i] - m;
          lo = std::min(lo, s);
          hi = std::max(hi, s);
          if (std::fabs(s) > best_abs) {
            best_abs = std::fabs(s);
            peak = i;
          }
        }
        const double observed = hi - lo;
        const auto perms = scratch.permutations(
            config.seed, config.bootstrap_rounds, xs.size());
        std::size_t below = 0;
        for (std::size_t r = 0; r < config.bootstrap_rounds; ++r) {
          const std::uint32_t* perm = perms.data() + r * xs.size();
          double ps = 0.0, plo = 0.0, phi = 0.0;
          for (std::size_t i = 0; i < xs.size(); ++i) {
            ps += xs[perm[i]] - m;
            plo = std::min(plo, ps);
            phi = std::max(phi, ps);
          }
          if (phi - plo < observed) ++below;
        }
        const double full_confidence =
            static_cast<double>(below) /
            static_cast<double>(config.bootstrap_rounds);
        const std::size_t split = peak + 1;
        const bool split_legal = split >= config.min_segment &&
                                 xs.size() - split >= config.min_segment;

        std::vector<ChangePoint> out;
        detectChangePointsInto(xs, config, scratch, out);
        if (full_confidence >= config.confidence && split_legal &&
            observed > 0.0) {
          ++accepts;
          ASSERT_EQ(out.size(), 1u);
          EXPECT_EQ(out[0].index, split);
          EXPECT_EQ(out[0].confidence, full_confidence);
        } else {
          ++rejects;
          EXPECT_TRUE(out.empty());
        }
      }
    }
  }
  // The sweep must actually exercise both outcomes to prove anything.
  EXPECT_GE(accepts, 5u);
  EXPECT_GE(rejects, 5u);
}

TEST(EngineIdentity, SteadyStateKernelChainAllocatesNothing) {
  const auto xs = faultyStream(21, 300);
  SignalScratch scratch;

  const auto run_chain = [&] {
    std::vector<double>& smoothed =
        movingAverageInto(xs, 2, scratch.smoothed(xs.size()));
    std::vector<ChangePoint>& points = detectChangePointsInto(
        smoothed, CusumConfig{}, scratch, scratch.points());
    std::vector<ChangePoint>& outliers = outlierChangePointsInto(
        points, OutlierConfig{}, scratch, scratch.outliers());
    double acc = static_cast<double>(outliers.size());
    acc += expectedPredictionError(
        std::span<const double>(xs).subspan(0, 41), BurstConfig{}, scratch);
    if (!points.empty()) {
      acc += static_cast<double>(
          rollbackOnset(smoothed, points, points.size() - 1, RollbackConfig{},
                        scratch));
    }
    return acc;
  };

  const double warm = run_chain();  // sizes every lane, fills pool + plan
  scratch.accountGrowth();
  const std::uint64_t grow_before = scratch.stats().grow_events;

  // gtest assertions may themselves allocate, so collect inside the counted
  // window and assert outside it. The claim is about the kernels: a span
  // recorded by the global tracer (a FCHAIN_TRACE=1 run) allocates, so the
  // counted window runs untraced. The warm-up above ran with tracing as the
  // environment set it, so the equality check still compares against it.
  std::array<double, 5> repeats{};
  std::size_t before = 0;
  std::size_t after = 0;
  {
    const obs::ScopedGlobalTrace untraced(false);
    before = g_allocations.load(std::memory_order_relaxed);
    for (double& r : repeats) r = run_chain();
    after = g_allocations.load(std::memory_order_relaxed);
  }
  for (double r : repeats) {
    EXPECT_EQ(r, warm);  // reuse must not change results either
  }

  EXPECT_EQ(after - before, 0u) << "steady-state kernel chain allocated";
  scratch.accountGrowth();
  EXPECT_EQ(scratch.stats().grow_events, grow_before);
}

// --- Slave-level identity: all six metric kinds, serial vs parallel -------

/// Builds a slave with four VMs whose six metric streams are random walks
/// with per-metric level shifts on two of the VMs.
core::FChainSlave buildSlave() {
  core::FChainSlave slave(0);
  for (ComponentId id = 0; id < 4; ++id) slave.addComponent(id, 0);
  fchain::Rng rng(2024);
  std::array<double, kMetricCount> level{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    level[m] = 40.0 + 10.0 * static_cast<double>(m);
  }
  for (TimeSec t = 0; t < 1400; ++t) {
    for (ComponentId id = 0; id < 4; ++id) {
      std::array<double, kMetricCount> sample{};
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        double v = level[m] + rng.gaussian(0.0, 2.0);
        // Fault signature: VM 1 ramps metric m after t=1200, VM 3 steps.
        if (id == 1 && t > 1200) {
          v += 0.15 * static_cast<double>(t - 1200);
        }
        if (id == 3 && t > 1250) v += 30.0;
        sample[m] = v;
      }
      slave.ingest(id, sample);
    }
  }
  return slave;
}

TEST(EngineIdentity, ParallelAnalysisMatchesSerialAcrossAllMetrics) {
  core::FChainSlave slave = buildSlave();
  const std::vector<ComponentId> ids{0, 1, 2, 3};
  const TimeSec tv = 1399;

  const auto serial = slave.analyzeBatch(ids, tv);
  // Every VM analysis covers all six metric kinds (analyzeComponent sweeps
  // kAllMetrics), and at least one fault signature must have been found for
  // the comparison to be meaningful.
  ASSERT_TRUE(serial[1].has_value() || serial[3].has_value());

  slave.setAnalysisThreads(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    // Repeats reuse each worker thread's scratch arena — results must not
    // depend on which worker (with whatever warm lane sizes) gets which VM.
    const auto parallel = slave.analyzeBatch(ids, tv);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].has_value(), parallel[i].has_value()) << i;
      if (serial[i].has_value()) {
        EXPECT_TRUE(core::sameFinding(*serial[i], *parallel[i])) << i;
      }
    }
  }
  slave.setAnalysisThreads(0);
  const auto serial_again = slave.analyzeBatch(ids, tv);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].has_value(), serial_again[i].has_value()) << i;
    if (serial[i].has_value()) {
      EXPECT_TRUE(core::sameFinding(*serial[i], *serial_again[i])) << i;
    }
  }
}

TEST(EngineIdentity, ColdStartBurstThresholdIsInfiniteNotZero) {
  BurstConfig config;
  SignalScratch scratch;
  const std::vector<double> short_window{1.0, 5.0, 2.0};
  EXPECT_EQ(expectedPredictionError(short_window, config, scratch),
            std::numeric_limits<double>::infinity());
  // Reference engine documents the old defect for contrast.
  EXPECT_EQ(reference::expectedPredictionError(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace fchain::signal
