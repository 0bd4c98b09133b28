// Trace-driven workload replay at million-user scale.
//
// The diurnal generators in src/trace produce one double per second — fine
// for hour-long runs, but a million-user replay wants a *compact* recorded
// artifact: a seeded event trace (flash crowds, regional load shifts) over a
// closed-form diurnal baseline. A WorkloadTrace is a few hundred bytes of
// config plus one record per event; intensityAt(t) is a pure function of
// (config, events, t), so live generation and file replay produce bit-equal
// intensities — which is what makes replayed telemetry byte-identical to
// live telemetry at the same seed (tests/trace_replay_test.cpp pins this).
//
// The file format follows the persist conventions: CRC-framed little-endian
// records (one header frame + one frame per event), rejected with the byte
// offset of the damage on truncation or corruption. TraceCursor streams the
// file frame by frame and keeps only the events whose effect window covers
// the current tick, so replay memory stays bounded no matter how long the
// trace — and its folded arithmetic is ordered exactly like the in-memory
// evaluation, so cursor replay is bit-equal too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace fchain::sim {

struct TraceConfig {
  std::uint64_t seed = 1;
  /// Length of the replay window (seconds; intensityAt clamps above it).
  std::size_t duration_sec = 7200;
  /// Mean external request rate (users/s) around which everything moves.
  double base_users_per_sec = 300.0;
  double diurnal_amplitude = 0.5;
  double diurnal_period_sec = 7200.0;
  /// Per-tick multiplicative noise (counter-hashed: stateless, replayable).
  double noise_level = 0.05;
  /// Flash crowds: sudden spike, exponential decay.
  double flash_per_hour = 2.0;
  double flash_magnitude = 0.9;   ///< peak relative increase per event
  double flash_duration_sec = 60; ///< decay constant
  /// Regional shifts: ramped, permanent steps (traffic moving between
  /// regions) — signed, so load can shift away as well as in.
  double shift_per_hour = 0.6;
  double shift_magnitude = 0.25;  ///< absolute relative step per event
  double shift_ramp_sec = 120.0;
};

struct TraceEvent {
  enum class Kind : std::uint8_t { FlashCrowd = 1, RegionalShift = 2 };
  Kind kind = Kind::FlashCrowd;
  TimeSec start = 0;
  /// Relative intensity delta: peak for flashes, step for shifts (signed).
  double magnitude = 0.0;
  /// Decay constant (flash) or ramp length (shift), seconds.
  double duration_sec = 0.0;
};

/// Flash contributions are defined as exactly zero past this many decay
/// constants, so pruning an expired event never changes a single bit.
inline constexpr double kFlashWindowFactor = 8.0;

/// One event's relative contribution at time t (0 outside its window).
double traceEventContribution(const TraceEvent& event, TimeSec t);
/// True once the event can no longer change intensityAt for any t' >= t
/// (flash window elapsed / shift ramp complete).
bool traceEventExpired(const TraceEvent& event, TimeSec t);

class WorkloadTrace {
 public:
  TraceConfig config;
  /// Sorted by (start, kind, magnitude); generateWorkloadTrace guarantees it.
  std::vector<TraceEvent> events;

  /// Intensity (users/s, >= 0) at tick t. Pure and stateless: the same
  /// (config, events, t) always produces the same bits.
  double intensityAt(TimeSec t) const;

  /// Total simulated users over the configured duration (the bench's >= 1M
  /// assertion integrates this at 1 Hz).
  double totalUsers() const;
};

/// Draws the event schedule from config.seed (byte-deterministic).
WorkloadTrace generateWorkloadTrace(const TraceConfig& config);

// --- File format (persist-framed records) ---------------------------------

/// Serializes header + events; written with persist::writeFileAtomic.
std::vector<std::uint8_t> encodeTrace(const WorkloadTrace& trace);
/// Parses a full buffer; throws persist::CorruptDataError with the absolute
/// byte offset on truncation, bit rot, count mismatch, or trailing bytes.
WorkloadTrace decodeTrace(const std::vector<std::uint8_t>& bytes);

void writeTraceFile(const std::string& path, const WorkloadTrace& trace);
WorkloadTrace readTraceFile(const std::string& path);

/// Streaming reader + evaluator over a trace file: reads one frame at a
/// time, admits events as their start approaches, folds completed regional
/// shifts into a scalar, and drops expired flashes — memory stays O(active
/// events) regardless of trace length. intensityAt must be called with
/// non-decreasing t and is bit-equal to WorkloadTrace::intensityAt.
class TraceCursor {
 public:
  explicit TraceCursor(const std::string& path);

  const TraceConfig& config() const { return config_; }
  double intensityAt(TimeSec t);
  std::size_t maxActiveEvents() const { return max_active_; }

 private:
  void admitUpTo(TimeSec t);

  std::ifstream in_;
  std::string path_;
  TraceConfig config_;
  std::uint64_t events_total_ = 0;
  std::uint64_t events_read_ = 0;
  std::size_t file_offset_ = 0;
  std::vector<TraceEvent> active_;
  /// The next event in file order when it has been read but is not yet due
  /// (its start is in the future) — admitted into active_ once t reaches it.
  std::optional<TraceEvent> pending_;
  /// Folded magnitudes of completed regional shifts (prefix of the shift
  /// subsequence in event order, so the sum is bit-equal to the full scan).
  double folded_shift_ = 0.0;
  std::size_t max_active_ = 0;
};

}  // namespace fchain::sim
