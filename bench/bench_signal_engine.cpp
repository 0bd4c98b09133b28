// Signal-engine gate: what the per-VM analysis kernels cost against the
// frozen pre-optimization engine, and whether they allocate.
//
// The kernel chain the selector runs per metric (smooth -> CUSUM+bootstrap
// -> magnitude outlier -> burst threshold -> tangent rollback) runs
// single-threaded over a fleet of 48 look-back windows, once with the frozen
// reference engine (tests/reference/signal/) and once with the scratch-arena
// engine. Each of 41 rounds times one reference pass and one optimized pass
// over the 48 windows on this thread's CPU clock (CLOCK_THREAD_CPUTIME_ID),
// and alternates which engine runs first. A preempted thread is not billed
// for the time it did not run, both passes of a round see the same machine,
// and the gate reads the median of the per-round optimized/reference ratios,
// so a burst of noise moves only the rounds it lands in.
//
// Exit status is the gate: nonzero when the median ratio is under 3.0x (a
// self-relative floor, so it holds on any hardware) or when the optimized
// passes allocate at all (counted with this binary's operator new).
//
// Usage: bench_signal_engine [seed]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/reference.h"
#include "signal/scratch.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Allocation counter for the zero-allocation gate (same pattern as the
// signal test suites).
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

namespace {

using namespace fchain;

constexpr std::size_t kRounds = 41;
constexpr double kMinRatio = 3.0;

/// Keeps the chains' results observable, so the optimizer cannot drop them.
volatile double g_sink = 0.0;

double threadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The per-VM kernel chain the selector runs per metric. Returns a cheap
/// checksum of its outputs.
double chainOptimized(std::span<const double> window,
                      signal::SignalScratch& scratch) {
  const std::vector<double>& smoothed = signal::movingAverageInto(
      window, 2, scratch.smoothed(window.size()));
  const std::vector<signal::ChangePoint>& points = signal::detectChangePointsInto(
      smoothed, signal::CusumConfig{}, scratch, scratch.points());
  const std::vector<signal::ChangePoint>& outliers = signal::outlierChangePointsInto(
      points, signal::OutlierConfig{}, scratch, scratch.outliers());
  double acc = static_cast<double>(points.size() + outliers.size());
  const std::size_t start = window.size() > 41 ? window.size() - 41 : 0;
  acc += signal::expectedPredictionError(window.subspan(start),
                                         signal::BurstConfig{}, scratch);
  if (!outliers.empty()) {
    acc += static_cast<double>(signal::rollbackOnset(
        smoothed, outliers, outliers.size() - 1, signal::RollbackConfig{},
        scratch));
  }
  return acc;
}

/// Same chain through the frozen pre-optimization kernels.
double chainReference(std::span<const double> window) {
  const std::vector<double> smoothed =
      signal::reference::movingAverage(window, 2);
  const std::vector<signal::ChangePoint> points =
      signal::reference::detectChangePoints(smoothed, signal::CusumConfig{});
  const std::vector<signal::ChangePoint> outliers =
      signal::reference::outlierChangePoints(points, signal::OutlierConfig{});
  double acc = static_cast<double>(points.size() + outliers.size());
  const std::size_t start = window.size() > 41 ? window.size() - 41 : 0;
  acc += signal::reference::expectedPredictionError(window.subspan(start),
                                                    signal::BurstConfig{});
  if (!outliers.empty()) {
    acc += static_cast<double>(signal::reference::rollbackOnset(
        smoothed, outliers, outliers.size() - 1, signal::RollbackConfig{}));
  }
  return acc;
}

/// A fleet's worth of look-back windows: 8 VMs x 6 metrics, 101 samples
/// each. Three quarters are healthy (noise around a level — the common case
/// the early-exit bootstrap feeds on), one quarter carry an injected level
/// shift so the accept path is exercised too.
std::vector<std::vector<double>> engineWindows(std::uint64_t seed) {
  constexpr std::size_t kWindows = 48;
  constexpr std::size_t kSamples = 101;
  std::vector<std::vector<double>> windows;
  windows.reserve(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    Rng rng(mixSeed(seed, 0x516e, w));
    std::vector<double> xs(kSamples);
    const double level = 40.0 + rng.uniform(0.0, 20.0);
    for (std::size_t i = 0; i < kSamples; ++i) {
      xs[i] = level + rng.gaussian() * 2.0;
      if (w % 4 == 0 && i >= 2 * kSamples / 3) xs[i] += 25.0;  // faulty VM
    }
    windows.push_back(std::move(xs));
  }
  return windows;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  const std::vector<std::vector<double>> windows = engineWindows(seed);
  std::size_t samples_per_pass = 0;
  for (const auto& w : windows) samples_per_pass += w.size();

  double checksum = 0.0;
  signal::SignalScratch scratch;
  // Warm passes: size every lane, fill the permutation pool and FFT plans.
  for (const auto& w : windows) checksum += chainOptimized(w, scratch);
  for (const auto& w : windows) checksum += chainReference(w);
  scratch.accountGrowth();
  const std::uint64_t grow_before = scratch.stats().grow_events;

  std::vector<double> reference_ms(kRounds), optimized_ms(kRounds),
      ratios(kRounds);
  std::size_t steady_allocs = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool optimized = (pass == 0) == (round % 2 == 0);
      const std::size_t allocs_before =
          g_allocations.load(std::memory_order_relaxed);
      const double t0 = threadCpuMs();
      if (optimized) {
        for (const auto& w : windows) checksum += chainOptimized(w, scratch);
      } else {
        for (const auto& w : windows) checksum += chainReference(w);
      }
      const double elapsed = threadCpuMs() - t0;
      if (optimized) {
        optimized_ms[round] = elapsed;
        steady_allocs +=
            g_allocations.load(std::memory_order_relaxed) - allocs_before;
      } else {
        reference_ms[round] = elapsed;
      }
    }
    ratios[round] = reference_ms[round] / optimized_ms[round];
  }
  scratch.accountGrowth();
  const std::uint64_t grow_events = scratch.stats().grow_events - grow_before;
  g_sink = checksum;

  const double ratio = median(ratios);
  const double samples = static_cast<double>(samples_per_pass);
  std::printf("Signal engine: optimized vs frozen reference\n");
  std::printf("(48 windows x 101 samples, 1 thread, %zu rounds of one pass "
              "each on thread CPU time, seed %llu)\n\n",
              kRounds, static_cast<unsigned long long>(seed));
  std::printf("  %-26s %10.0f samples/CPU-s (median pass %.3f ms)\n",
              "reference engine", samples / median(reference_ms) * 1e3,
              median(reference_ms));
  std::printf("  %-26s %10.0f samples/CPU-s (median pass %.3f ms)\n",
              "optimized engine", samples / median(optimized_ms) * 1e3,
              median(optimized_ms));
  std::printf("  %-26s %10.2fx median, %.2f-%.2fx over rounds "
              "(gate: median >= %.1fx)\n",
              "optimized / reference", ratio,
              *std::min_element(ratios.begin(), ratios.end()),
              *std::max_element(ratios.begin(), ratios.end()), kMinRatio);
  std::printf("  %-26s %10zu allocs in %zu samples (gate: 0)\n",
              "steady-state heap allocs", steady_allocs,
              kRounds * samples_per_pass);
  std::printf("  %-26s %10llu events in the timed rounds\n", "scratch growth",
              static_cast<unsigned long long>(grow_events));

  if (ratio < kMinRatio) {
    std::printf("FAIL: optimized signal engine is %.2fx the reference engine "
                "(floor: %.1fx)\n",
                ratio, kMinRatio);
    return 1;
  }
  if (steady_allocs != 0) {
    std::printf("FAIL: signal hot path allocated %zu times in steady state "
                "(gate: 0)\n",
                steady_allocs);
    return 1;
  }
  return 0;
}
