// Versioned, checksummed binary snapshots of a slave's learned state.
//
// A FChain slave's value is its *online* state: hours of per-VM Markov
// transition mass, calibrated discretizer ranges, prediction-error history,
// and telemetry-repair counters. This module defines the snapshot as a plain
// value type (`SlaveSnapshot`, built from fchain_common types only — the
// capture/restore logic lives with core::FChainSlave, which owns the
// invariants) plus its framed binary codec and rename-on-write file I/O.
//
// Doubles round-trip bit-exactly (std::bit_cast), which is what makes a
// restored slave's analysis results bit-identical to an uncrashed one; any
// torn or bit-rotted file is rejected by decode with a CorruptDataError
// carrying the byte offset, never read as garbage state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "persist/codec.h"

namespace fchain::persist {

/// One 1 Hz series: start timestamp + samples (oldest first).
struct SeriesState {
  TimeSec start = 0;
  std::vector<double> values;
};

/// Full state of one markov::OnlinePredictor (discretizer + Markov model +
/// error series + prediction carry-over).
struct PredictorState {
  // Discretizer.
  std::uint64_t bins = 0;
  std::uint64_t calibration_samples = 0;
  double padding = 0.0;
  std::vector<double> calibration_buffer;  ///< pre-calibration samples
  bool calibrated = false;
  double lo = 0.0;
  double hi = 1.0;
  double width = 1.0;
  // Markov model. `row_mass` is persisted (not recomputed) because it is
  // maintained incrementally under decay — a recomputed sum would differ in
  // the last bits and break warm-restart equivalence.
  double decay = 0.0;
  double laplace = 0.0;
  std::vector<double> counts;    ///< row-major bins x bins
  std::vector<double> row_mass;  ///< per-row totals, size bins
  // Predictor.
  SeriesState errors;
  bool has_last_state = false;
  std::uint64_t last_state = 0;
  bool has_predicted_next = false;
  double predicted_next = 0.0;
};

/// Everything FChainSlave holds for one monitored VM.
struct VmSnapshotState {
  ComponentId component = kNoComponent;
  std::array<SeriesState, kMetricCount> series;
  std::array<PredictorState, kMetricCount> predictors;
  // IngestStats counters.
  std::uint64_t gaps_filled = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t future_dropped = 0;
};

struct SlaveSnapshot {
  HostId host = 0;
  /// Checkpoint counter; a sample journal carrying a different epoch was
  /// written against a different snapshot (see core::SlaveCheckpointer).
  std::uint64_t epoch = 0;
  std::vector<VmSnapshotState> vms;
};

/// Frame magic "FCSN" and current format version.
inline constexpr std::uint32_t kSnapshotMagic = 0x4e534346u;
inline constexpr std::uint32_t kSnapshotVersion = 1;

std::vector<std::uint8_t> encodeSlaveSnapshot(const SlaveSnapshot& snapshot);

/// Decodes and structurally validates a snapshot (per-predictor matrix and
/// row-mass sizes must agree with the bin count; series must be aligned).
/// Throws CorruptDataError on any damage.
SlaveSnapshot decodeSlaveSnapshot(std::span<const std::uint8_t> bytes);

/// encode + writeFileAtomic: a crash mid-save leaves the previous snapshot
/// intact under `path`.
void saveSlaveSnapshot(const std::string& path, const SlaveSnapshot& snapshot);

/// readFileBytes + decode.
SlaveSnapshot loadSlaveSnapshot(const std::string& path);

/// The epoch of the snapshot at `path`, read from the frame header and the
/// host and epoch fields behind it (32 bytes): the rest of the file is not
/// read. Checks magic, version and that the header's payload length matches
/// the file size, and throws CorruptDataError otherwise; it does not check
/// the payload CRC, so a bit flip past the epoch field goes unseen. For a
/// caller about to replace the payload (see core::SlaveCheckpointer).
std::uint64_t readSnapshotEpoch(const std::string& path);

}  // namespace fchain::persist
