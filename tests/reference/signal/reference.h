// Frozen reference signal engine.
//
// These are the pre-optimization implementations of the signal kernels,
// kept verbatim (allocations, per-round means, RNG threading and all) for
// two jobs:
//
//   1. Oracle for the serial ≡ optimized identity tests: the scratch-arena
//      engine's smoothing, burst, outlier and rollback kernels must
//      reproduce these outputs bit for bit. (The engine's permutation-pool
//      bootstrap draws different resamples than the threaded RNG below.)
//   2. In-binary baseline for the throughput bench: the CI speedup gate is
//      the ratio of the optimized engine to this engine measured in the
//      same run on the same machine, so the floor is hardware-independent.
//
// Do not "improve" this code — its value is that it never changes. It is
// deliberately not wired into any production path: only test and bench
// binaries link it.
#pragma once

#include <span>
#include <vector>

#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/tangent.h"

namespace fchain::signal::reference {

/// Pre-optimization percentile (no NaN guard, interpolation arithmetic at
/// the endpoints — see fchain::percentile for the fixed contract).
double percentile(std::span<const double> xs, double p);

std::vector<double> movingAverage(std::span<const double> xs,
                                  std::size_t half);

/// Original CUSUM + bootstrap: one RNG threaded through the segmentation
/// recursion, a fresh shuffle buffer per segment, the segment mean
/// recomputed inside every bootstrap round.
std::vector<ChangePoint> detectChangePoints(std::span<const double> xs,
                                            const CusumConfig& config = {});

std::vector<ChangePoint> outlierChangePoints(
    std::span<const ChangePoint> points, const OutlierConfig& config = {});

std::vector<double> burstSignal(std::span<const double> xs,
                                const BurstConfig& config = {});

/// Original cold-start semantic: returns 0.0 for windows shorter than 2
/// samples. Ignores config.min_window.
double expectedPredictionError(std::span<const double> xs,
                               const BurstConfig& config = {});

std::size_t rollbackOnset(std::span<const double> xs,
                          std::span<const ChangePoint> points,
                          std::size_t selected,
                          const RollbackConfig& config = {});

}  // namespace fchain::signal::reference
