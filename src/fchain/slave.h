// FChain slave (paper Fig. 1): runs in Domain 0 of one cloud node, samples
// the six system metrics of every local guest VM each second, and keeps the
// per-metric normal fluctuation models up to date. When the master asks, it
// runs the abnormal change point selector over its local components'
// look-back windows and returns the findings — the compute-heavy selection
// work thereby stays distributed across hosts (paper §III-G).
//
// Ingestion is hardened against unreliable monitoring streams: missing
// seconds are filled with the last value, duplicate and out-of-order
// timestamps are tolerated, and non-finite samples are quarantined before
// they can reach the Markov model or CUSUM. Per-VM IngestStats count every
// such repair.
//
// State is bounded by what analysis can read, not by uptime. An analysis at
// tv reads the look-back window [tv - W, tv] and the prediction-error
// history of history_error_window_sec before it. retentionSec() adds the
// burst and concurrency margins, 8 s of slack and a 600 s allowance for late
// analyses (a queued incident is analysed at its original tv after the
// slaves kept ingesting). Once a VM's series grows past R + R/4 samples,
// ingestAt drops the oldest so that it keeps the newest R, the six metric
// series and the six prediction-error series in lockstep; trimming in
// chunks keeps the front erase amortized O(1) per sample. The Markov
// transition mass is not trimmed: its decay already bounds it. The trim
// depends only on the VM's own state, so a slave rebuilt by snapshot +
// journal replay trims at the same samples as the live one. Two
// consequences:
//   - an analysis at most 600 s behind the VM's newest sample reads exactly
//     what an unbounded slave would; one further behind reads a shorter
//     error history, as a young slave does;
//   - a sample older than the retained start counts as stale
//     (IngestStats::stale_dropped), not as a duplicate.
#pragma once

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "fchain/change_selector.h"
#include "persist/snapshot.h"

namespace fchain::core {

/// Per-VM telemetry repair counters. A duplicate or out-of-order timestamp
/// inside the retained series overwrites its second and counts in
/// `duplicates`; one before the retained start (the registration time, or
/// the start after a retention trim) is dropped and counts in
/// `stale_dropped`.
struct IngestStats {
  std::size_t gaps_filled = 0;     ///< synthesized samples (missing seconds)
  std::size_t quarantined = 0;     ///< non-finite metric values replaced
  std::size_t duplicates = 0;      ///< duplicate/out-of-order timestamps
  std::size_t stale_dropped = 0;   ///< samples older than the retained start
  std::size_t future_dropped = 0;  ///< timestamps past max_gap_fill_sec
};

/// Seconds of history each VM keeps (R in the header comment): look-back +
/// history error window + 2 x burst half-window + concurrency threshold +
/// 8 s for the selector's +1 clamps + 600 s for late analyses. 1 650 s at
/// the FChainConfig defaults, 2 050 s with a 500 s look-back.
TimeSec retentionSec(const FChainConfig& config);

class FChainSlave {
 public:
  explicit FChainSlave(HostId host, FChainConfig config = {})
      : host_(host), selector_(std::move(config)) {}

  HostId host() const { return host_; }

  /// Registers a guest VM hosted on this node. `start_time` is the first
  /// sample's timestamp. Register every component before handing the slave
  /// to FChainMaster: the master snapshots the component list then.
  void addComponent(ComponentId id, TimeSec start_time);

  bool monitors(ComponentId id) const { return findVm(id) != nullptr; }
  std::vector<ComponentId> components() const;

  /// Feeds one second of samples for one local VM at the series' endTime().
  void ingest(ComponentId id, const std::array<double, kMetricCount>& sample);

  /// Timestamped ingest for unreliable streams: tolerates gaps (the last
  /// value is held across them, a gap before the first sample is
  /// back-filled with that sample, and both are counted),
  /// duplicate/out-of-order timestamps (latest value wins, the model is
  /// untouched), stale samples before the retained start (dropped), wild
  /// future timestamps (dropped) and non-finite values (quarantined — the
  /// metric's last good value is substituted so neither the Markov model
  /// nor CUSUM ever sees a NaN/inf).
  /// Every ingest path ends here, so this is where the VM's state is trimmed
  /// to its retention (see the header comment).
  void ingestAt(ComponentId id, TimeSec t,
                const std::array<double, kMetricCount>& sample);

  /// Telemetry repair counters for one VM; nullptr when unknown.
  const IngestStats* ingestStatsOf(ComponentId id) const;

  /// Read-only view of one VM's repaired, retained metric series; nullptr
  /// when unknown.
  const MetricSeries* seriesOf(ComponentId id) const;

  /// Master RPC: analyze one local component's look-back window.
  std::optional<ComponentFinding> analyze(ComponentId id,
                                          TimeSec violation_time) const;

  /// Batched master RPC: analyze every listed component against the same
  /// violation time. Returns one slot per requested id, aligned with `ids`
  /// (nullopt = unknown component or no abnormal change).
  std::vector<std::optional<ComponentFinding>> analyzeBatch(
      const std::vector<ComponentId>& ids, TimeSec violation_time) const;

  /// Captures the slave's complete learned state — every VM's repaired
  /// metric series, the six per-metric predictors (discretizer calibration,
  /// Markov transition mass, error history, prediction carry-over) and the
  /// ingest-repair counters — as a persistable value. `epoch` tags the
  /// checkpoint generation (see SlaveCheckpointer).
  persist::SlaveSnapshot snapshot(std::uint64_t epoch = 0) const;

  /// Rebuilds a slave from a snapshot. The restored slave's analyze() /
  /// analyzeBatch() results are bit-identical to the slave that produced the
  /// snapshot, and further ingest continues the models deterministically.
  /// `config` supplies the non-persisted analysis parameters (thresholds,
  /// gap-fill mode) and must match the original slave's config for
  /// equivalence to hold. The snapshot is taken by value and its vectors
  /// become the slave's state: pass an rvalue to move them in, an lvalue to
  /// copy.
  static FChainSlave fromSnapshot(persist::SlaveSnapshot snapshot,
                                  FChainConfig config = {});

 private:
  struct VmState {
    MetricSeries series;
    NormalFluctuationModel model;
    IngestStats stats;
  };

  /// One monitored VM. The fleet lives in a flat vector sorted by id rather
  /// than a node-per-VM map: the per-second ingest path and the analyze
  /// fan-out walk VMs constantly, and a contiguous id-sorted array gives
  /// them a binary-search lookup over one cache-resident id sequence and a
  /// linear scan for iteration. Id order is also the snapshot order, so
  /// serialized state stays byte-identical to the old map layout. (The six
  /// metric streams inside MetricSeries are already
  /// structure-of-arrays: one dense TimeSeries per metric.)
  struct VmEntry {
    ComponentId id;
    VmState state;
  };

  VmState* findVm(ComponentId id);
  const VmState* findVm(ComponentId id) const;

  HostId host_;
  AbnormalChangeSelector selector_;
  std::vector<VmEntry> vms_;  ///< sorted by id
};

}  // namespace fchain::core
