// SignalScratch: the reusable per-thread arena behind the zero-allocation
// signal hot path.
//
// Every per-VM analysis (smooth → CUSUM+bootstrap → outlier filter → burst
// threshold → tangent rollback) used to allocate dozens of short-lived
// vectors per metric. SignalScratch owns all of those buffers plus the two
// expensive-to-build caches — the bootstrap permutation pool and the FFT
// plans — so that in steady state the signal kernels touch no allocator at
// all: buffers are sized once per thread and reused across metrics, VMs and
// triggers.
//
// Ownership rules (see DESIGN.md "Incremental signal engine"):
//   - One scratch per thread. The kernels never share a scratch across
//     threads; FChainSlave's analysis pool gives each worker its own via
//     thread_local storage.
//   - Each lane (named buffer) has exactly one producer at a time. The
//     kernels document which lanes they clobber; nested helpers use the
//     statsA/statsB lanes, which no kernel passes as input.
//   - Lane contents are invalidated by the next kernel call; callers that
//     need results across calls copy them out (the selector copies nothing:
//     it consumes each lane before the next kernel runs).
//
// The arena counts its own growth: every capacity increase bumps the
// process-wide `signal.scratch.grow_events` counter and the
// `signal.scratch.bytes` gauge in obs::metrics(), which is how the
// allocation-per-sample bench and tests observe "zero steady-state
// allocation" directly.
#pragma once

#include <complex>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "signal/cusum.h"
#include "signal/fft.h"

namespace fchain::signal {

/// Deterministic bootstrap permutation pool, keyed by segment length.
///
/// The CUSUM bootstrap draws its resampling permutations from a stream that
/// depends only on (seed, rounds, segment length) — *not* on how many
/// segments were analyzed before, which is what makes per-segment early exit
/// and cross-thread determinism possible. The pool is a pure cache: entries for lengths up to
/// kMaxPooledLength are kept, longer segments are regenerated into a reused
/// overflow buffer on every call, and both paths produce byte-identical
/// permutations.
class PermutationPool {
 public:
  /// Lengths above this are not retained (the pool would grow without bound
  /// on long look-back windows); they are regenerated into `overflow_`.
  static constexpr std::size_t kMaxPooledLength = 128;

  /// Round-major block of `rounds` permutations of [0, n): entry
  /// r * n + i is the source index of position i in resample round r.
  /// The returned span is valid until the next call.
  std::span<const std::uint32_t> permutations(std::uint64_t seed,
                                              std::size_t rounds,
                                              std::size_t n);

  /// Bytes retained by the cache (for the scratch gauge).
  std::size_t retainedBytes() const;

 private:
  std::uint64_t seed_ = 0;
  std::size_t rounds_ = 0;
  std::map<std::size_t, std::vector<std::uint32_t>> pool_;
  std::vector<std::uint32_t> overflow_;
};

/// Totals for one scratch arena (all thread-local arenas also aggregate into
/// obs::metrics()).
struct ScratchStats {
  std::uint64_t grow_events = 0;  ///< buffer capacity increases
  std::uint64_t bytes = 0;        ///< current retained buffer bytes
};

class SignalScratch {
 public:
  SignalScratch();

  // Named double lanes, each returned resized to n (values unspecified).
  // Lane assignments — one producer at a time:
  //   smoothed   moving-average output / rollback input
  //   shuffle    bootstrap buffer: the mean-centred segment that the
  //              bootstrap's 8-round groups gather from
  //   burst      burst-signal magnitudes
  //   blockMax   history-error block maxima (slidingMaxInto's padded lane)
  //   diffs      adaptive-smoothing first differences
  //   statsA/B   work buffers for percentileInPlace / medianAbsDeviation;
  //              reserved for the stats helpers, never a kernel input.
  std::vector<double>& smoothed(std::size_t n) { return prep(smoothed_, n); }
  std::vector<double>& shuffle(std::size_t n) { return prep(shuffle_, n); }
  std::vector<double>& burst(std::size_t n) { return prep(burst_, n); }
  std::vector<double>& blockMax(std::size_t n) { return prep(block_max_, n); }
  std::vector<double>& diffs(std::size_t n) { return prep(diffs_, n); }
  std::vector<double>& statsA() { return stats_a_; }
  std::vector<double>& statsB() { return stats_b_; }

  /// Complex spectrum lane for the planned FFT (resized by the kernel).
  std::vector<std::complex<double>>& spectrum() { return spectrum_; }

  /// Change-point lanes; returned cleared, capacity retained.
  std::vector<ChangePoint>& points() { return cleared(points_); }
  std::vector<ChangePoint>& outliers() { return cleared(outliers_); }

  /// Bootstrap permutations (see PermutationPool).
  std::span<const std::uint32_t> permutations(std::uint64_t seed,
                                              std::size_t rounds,
                                              std::size_t n) {
    return pool_.permutations(seed, rounds, n);
  }

  /// Cached FFT plan for size n (power of two).
  const FftPlan& plan(std::size_t n);

  /// Growth accounting for this arena. Steady state means grow_events stops
  /// moving; the throughput bench gates on exactly that.
  ScratchStats stats() const;

  /// Re-measures retained bytes and publishes deltas to obs::metrics().
  /// Called internally after kernels run; cheap (no allocation, a handful
  /// of atomic adds only when something grew).
  void accountGrowth();

 private:
  template <typename T>
  std::vector<T>& prep(std::vector<T>& lane, std::size_t n) {
    lane.resize(n);
    return lane;
  }

  std::uint64_t retainedBytes() const;

  std::vector<ChangePoint>& cleared(std::vector<ChangePoint>& lane) {
    lane.clear();
    return lane;
  }

  std::vector<double> smoothed_;
  std::vector<double> shuffle_;
  std::vector<double> burst_;
  std::vector<double> block_max_;
  std::vector<double> diffs_;
  std::vector<double> stats_a_;
  std::vector<double> stats_b_;
  std::vector<std::complex<double>> spectrum_;
  std::vector<ChangePoint> points_;
  std::vector<ChangePoint> outliers_;
  PermutationPool pool_;
  std::map<std::size_t, FftPlan> plans_;

  std::uint64_t grow_events_ = 0;
  std::uint64_t published_grow_events_ = 0;
  std::uint64_t published_bytes_ = 0;
};

/// The calling thread's scratch arena. One per thread, constructed on first
/// use; this is what the public (scratch-less) signal entry points and the
/// change selector use, so parallel per-VM analysis never shares buffers.
SignalScratch& threadScratch();

}  // namespace fchain::signal
