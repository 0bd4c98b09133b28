// Warm restart for FChain processes (slave checkpointing + master incident
// replay).
//
// A slave's learned state is hours of online history; losing it to a crash
// means a blind re-calibration window during which faults pinpoint poorly
// (the paper's models must have "seen and learned" normal behaviour first).
// SlaveCheckpointer bounds that loss to zero: it journals every raw sample
// *before* it reaches the in-memory slave and periodically collapses the
// journal into a snapshot. recover() = load snapshot + replay journal
// through the same deterministic ingestAt path, so the rebuilt slave is
// bit-identical to one that never crashed.
//
// The crash-ordering invariants:
//   - journal-then-ingest, per batch: a batch of samples is written and
//     flushed with one journal append before any of it mutates state, and
//     the auto-checkpoint rule runs only after the whole batch is applied
//     (a checkpoint between the two would truncate journaled samples the
//     models have not consumed). A crash can lose at most the batch being
//     written — the one whose ingest RPC was not acknowledged — never a
//     sample the models already consumed;
//   - snapshot-then-truncate: checkpointNow() renames the new snapshot into
//     place before truncating the journal. A crash between the two leaves a
//     journal whose records are already inside the snapshot — replaying
//     them is value-safe (the duplicate path overwrites with equal values
//     and leaves the models untouched; a record the retention already
//     trimmed is dropped as stale), never state-corrupting.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "fchain/master.h"
#include "fchain/slave.h"
#include "persist/journal.h"

namespace fchain::core {

struct CheckpointPolicy {
  /// Auto-checkpoint cadence in *sample* time (deterministic, unlike wall
  /// time): when an ingested timestamp is this far past the last checkpoint,
  /// the journal is collapsed into a fresh snapshot.
  TimeSec snapshot_interval_sec = 600;
  /// Construction immediately checkpoints the wrapped slave, replacing any
  /// snapshot + journal already in the directory. When that persisted state
  /// extends further in sample time than the wrapped slave — i.e. the slave
  /// was NOT rebuilt from it via recover() — the overwrite would permanently
  /// destroy a crashed slave's learned history, so the constructor throws
  /// instead. Set true to discard the old state deliberately (e.g. a
  /// config change that invalidates it).
  bool discard_unrecovered_state = false;
};

class SlaveCheckpointer {
 public:
  /// Wraps a live slave (components already registered). Immediately writes
  /// a checkpoint, so `dir` always holds a consistent snapshot + journal
  /// pair from construction on. Epoch numbering continues from any snapshot
  /// already in `dir`. Throws std::runtime_error when `dir` holds persisted
  /// state the wrapped slave does not carry — wrap the result of recover()
  /// (or set CheckpointPolicy::discard_unrecovered_state) instead of
  /// silently destroying a crashed slave's learned history.
  SlaveCheckpointer(FChainSlave& slave, std::string dir,
                    CheckpointPolicy policy = {});

  /// Journals the batch with one write and one flush, feeds its samples to
  /// the slave in order, then auto-checkpoints per CheckpointPolicy against
  /// the batch's latest timestamp (see the ordering invariants above).
  void ingestBatch(std::span<const persist::SampleRecord> batch);

  /// The one-sample batch.
  void ingestAt(ComponentId id, TimeSec t,
                const std::array<double, kMetricCount>& sample);

  /// Convenience: ingest at the component's current series end.
  void ingest(ComponentId id, const std::array<double, kMetricCount>& sample);

  /// Snapshots the slave's current state (atomic rename) and truncates the
  /// journal to start a new epoch.
  void checkpointNow();

  std::uint64_t epoch() const { return epoch_; }
  std::size_t journaledSinceSnapshot() const;
  std::string snapshotPath() const;
  std::string journalPath() const;

  /// True when `dir` holds persisted state for `host` (snapshot or journal).
  static bool hasState(const std::string& dir, HostId host);

  struct Recovered {
    FChainSlave slave;
    /// Epoch of the snapshot that was restored (0 = no snapshot, journal
    /// replayed into a fresh slave).
    std::uint64_t epoch = 0;
    /// Journal records replayed on top of the snapshot.
    std::size_t replayed = 0;
    /// False when the journal ended in a torn record (the expected crash
    /// signature) — the valid prefix was still replayed.
    bool journal_clean = true;
  };

  /// Rebuilds the slave persisted in `dir`: snapshot restore + full journal
  /// replay. `config` must match the crashed slave's config. Throws
  /// persist::CorruptDataError when the snapshot or a journal header is
  /// damaged (a torn journal *tail* is tolerated, not an error).
  static Recovered recover(const std::string& dir, HostId host,
                           FChainConfig config = {});

 private:
  TimeSec sampleClock() const;

  FChainSlave& slave_;
  std::string dir_;
  CheckpointPolicy policy_;
  std::uint64_t epoch_ = 0;
  std::optional<persist::SampleJournalWriter> journal_;
  TimeSec last_checkpoint_end_ = 0;
};

/// One incident re-run after a master restart.
struct RerunIncident {
  std::uint64_t id = 0;  ///< original journal id of the interrupted incident
  std::vector<ComponentId> components;
  TimeSec violation_time = 0;
  PinpointResult result;
};

/// Re-runs every localization the journal recorded as started but never
/// completed (a master crash mid-incident), in original start order, and
/// marks each done. The master's slaves must be registered and recovered
/// first. Safe when the same journal is attached to the master via
/// setIncidentJournal(): each re-run then also journals its own complete
/// start/done pair.
std::vector<RerunIncident> rerunPendingIncidents(
    FChainMaster& master, persist::IncidentJournal& journal);

}  // namespace fchain::core
