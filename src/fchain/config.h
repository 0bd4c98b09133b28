// All FChain tuning knobs in one place, with the paper's defaults
// (§III-A "we configure the FChain system as follows").
#pragma once

#include <cstddef>

#include "common/time_series.h"
#include "common/types.h"
#include "markov/predictor.h"
#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/tangent.h"

namespace fchain::core {

struct FChainConfig {
  /// Look-back window W: seconds of history before the SLO violation that
  /// are searched for abnormal change points (paper default: 100 s; 500 s
  /// for the slowly manifesting Hadoop DiskHog).
  TimeSec lookback_sec = 100;

  /// Burst extraction half-window Q around each candidate change point.
  TimeSec burst_half_window_sec = 20;

  /// Two components whose abnormal onsets differ by at most this much are
  /// treated as *concurrent* faults (paper default: 2 s).
  TimeSec concurrency_threshold_sec = 2;

  /// Moving-average half-width applied before change point detection
  /// (PAL-style smoothing; §III-C documents its side effect).
  std::size_t smooth_half_window = 2;

  /// Adaptive smoothing (the paper's §III-C ongoing work): pick the
  /// smoothing width per metric from its jitter level — heavy smoothing
  /// only where sample-to-sample noise dominates, none where the signal is
  /// already smooth (which is where smoothing distorts onset times and can
  /// flip the propagation order).
  bool adaptive_smoothing = false;

  /// Burst threshold parameters (top-90 % frequencies, 90th percentile).
  signal::BurstConfig burst;

  /// Safety margin on the dynamic threshold: a change point is abnormal only
  /// when its observed prediction error exceeds `error_margin x expected`.
  /// Normal change points routinely exceed the raw burst magnitude by a few
  /// percent (the predictor also carries quantization error); genuine fault
  /// manifestations exceed it severalfold.
  double error_margin = 1.5;

  /// Floor under the dynamic threshold taken from the predictor's own
  /// recent track record: the given percentile of the prediction errors over
  /// `history_error_window_sec` seconds *before* the look-back window. A
  /// smoothly wandering metric has almost no high-frequency burst energy yet
  /// still mispredicts routinely; errors below what the model produces on a
  /// normal day cannot indicate a fault. Set the window to 0 to disable.
  TimeSec history_error_window_sec = 900;
  double history_error_percentile = 98.0;

  /// Persistence check: FChain is invoked while the SLO is *being* violated,
  /// so a genuine fault manifestation must still hold at tv. A candidate
  /// abnormal change point is discarded when the window's final seconds have
  /// drifted back toward the pre-change level (a decayed transient such as a
  /// flash crowd). The deviation at tv must keep the change's sign and at
  /// least this fraction of its magnitude. Set to 0 to disable.
  double persistence_fraction = 0.5;
  /// Seconds at the window tail / before the change point that are averaged
  /// for the persistence comparison.
  std::size_t persistence_probe_sec = 10;

  /// When several change points pass the predictability test, anchor on the
  /// one with the highest observed/expected error ratio (the clearest fault
  /// signature) and let the tangent rollback recover the onset. When false,
  /// the earliest passing point is used directly.
  bool select_strongest = true;

  /// Change point detection and outlier filtering.
  signal::CusumConfig cusum;
  signal::OutlierConfig outlier;

  /// Tangent-based rollback of the onset time.
  signal::RollbackConfig rollback;

  /// Normal fluctuation model (PRESS-style predictor).
  markov::PredictorConfig predictor;

  // --- Telemetry hardening (unreliable monitoring streams) ---------------

  /// A sample whose timestamp jumps more than this far past the end of the
  /// series is treated as clock corruption and discarded instead of
  /// synthesizing an absurd number of fill samples.
  TimeSec max_gap_fill_sec = 3600;

  // --- Ablation / baseline switches -------------------------------------

  /// Disable to skip the tangent rollback (ablation).
  bool use_rollback = true;

  /// Disable to ignore dependency information in pinpointing (ablation;
  /// PAL behaves this way).
  bool use_dependency = true;

  /// Disable the predictability (prediction-error) filter entirely; outlier
  /// change points pass straight through (PAL behaves this way).
  bool use_predictability = true;

  /// When >= 0, replaces the dynamic burst threshold with a *fixed*
  /// prediction error threshold expressed as a multiple of the look-back
  /// window's robust scale (the Fixed-Filtering baseline sweeps this).
  double fixed_error_threshold = -1.0;

  /// Enable the external-factor (workload change vs fault) classifier.
  bool detect_external_factor = true;

  /// External events (workload surges, shared-service failures) hit every
  /// component near-simultaneously; fault propagation is staggered. The
  /// external verdict therefore also requires the abnormal onsets to span at
  /// most this many seconds.
  TimeSec external_max_spread_sec = 20;
};

}  // namespace fchain::core
