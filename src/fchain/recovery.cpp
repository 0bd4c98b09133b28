#include "fchain/recovery.h"

#include <algorithm>

#include "persist/snapshot.h"

namespace fchain::core {

namespace {

std::string snapshotPathFor(const std::string& dir, HostId host) {
  return dir + "/slave_" + std::to_string(host) + ".snap";
}

std::string journalPathFor(const std::string& dir, HostId host) {
  return dir + "/slave_" + std::to_string(host) + ".journal";
}

}  // namespace

SlaveCheckpointer::SlaveCheckpointer(FChainSlave& slave, std::string dir,
                                     CheckpointPolicy policy)
    : slave_(slave), dir_(std::move(dir)), policy_(policy) {
  // Sample-time extent of whatever state is already persisted in dir_. The
  // first checkpointNow() below replaces that state with the wrapped
  // slave's; if the slave does not carry it (it was not built via
  // recover()), the overwrite would destroy a crashed slave's history —
  // refuse, loudly, unless the policy opts in.
  TimeSec persisted_end = 0;
  if (persist::fileExists(snapshotPath())) {
    const persist::SlaveSnapshot snap =
        persist::loadSlaveSnapshot(snapshotPath());
    // Continue the epoch sequence of whatever generation is already there.
    epoch_ = snap.epoch;
    for (const persist::VmSnapshotState& vm : snap.vms) {
      for (const persist::SeriesState& series : vm.series) {
        persisted_end = std::max(
            persisted_end,
            series.start + static_cast<TimeSec>(series.values.size()));
      }
    }
  }
  if (persist::fileExists(journalPath())) {
    const persist::SampleJournalReplay replay =
        persist::readSampleJournal(journalPath());
    for (const persist::SampleRecord& record : replay.records) {
      persisted_end = std::max(persisted_end, record.t + 1);
    }
  }
  // A slave rebuilt via recover() always carries samples when the persisted
  // state does (it may trail persisted_end when replay deterministically
  // *dropped* tail records — corrupt timestamps, over-wide gaps — so an
  // exact-extent comparison would reject legitimate recoveries). A slave
  // with an empty clock over sampled state is the unambiguous footgun.
  if (persisted_end > 0 && sampleClock() == 0 &&
      !policy_.discard_unrecovered_state) {
    throw std::runtime_error(
        "checkpoint dir " + dir_ + " holds learned state for host " +
        std::to_string(slave_.host()) + " through t=" +
        std::to_string(persisted_end) +
        " but the wrapped slave is fresh; wrap "
        "SlaveCheckpointer::recover()'s slave or set "
        "CheckpointPolicy::discard_unrecovered_state to overwrite it");
  }
  checkpointNow();
}

std::string SlaveCheckpointer::snapshotPath() const {
  return snapshotPathFor(dir_, slave_.host());
}

std::string SlaveCheckpointer::journalPath() const {
  return journalPathFor(dir_, slave_.host());
}

std::size_t SlaveCheckpointer::journaledSinceSnapshot() const {
  return journal_ ? journal_->recordsWritten() : 0;
}

TimeSec SlaveCheckpointer::sampleClock() const {
  TimeSec now = 0;
  for (ComponentId id : slave_.components()) {
    if (const MetricSeries* series = slave_.seriesOf(id)) {
      now = std::max(now, series->endTime());
    }
  }
  return now;
}

void SlaveCheckpointer::checkpointNow() {
  ++epoch_;
  // Snapshot first (atomic rename), truncate the journal after: a crash in
  // between leaves journal records the snapshot already contains, and
  // replaying those is value-safe (see header).
  persist::saveSlaveSnapshot(snapshotPath(), slave_.snapshot(epoch_));
  journal_.emplace(journalPath(), epoch_, /*truncate=*/true);
  last_checkpoint_end_ = sampleClock();
}

void SlaveCheckpointer::ingestBatch(
    std::span<const persist::SampleRecord> batch) {
  if (batch.empty()) return;
  journal_->append(batch);
  TimeSec latest = batch.front().t;
  for (const persist::SampleRecord& record : batch) {
    slave_.ingestAt(record.component, record.t, record.sample);
    latest = std::max(latest, record.t);
  }
  // Only after the whole batch is applied: the checkpoint truncates the
  // journal, so checking mid-batch would drop journaled, unapplied samples.
  if (latest >= last_checkpoint_end_ + policy_.snapshot_interval_sec) {
    checkpointNow();
  }
}

void SlaveCheckpointer::ingestAt(
    ComponentId id, TimeSec t,
    const std::array<double, kMetricCount>& sample) {
  const persist::SampleRecord record{id, t, sample};
  ingestBatch(std::span<const persist::SampleRecord>(&record, 1));
}

void SlaveCheckpointer::ingest(
    ComponentId id, const std::array<double, kMetricCount>& sample) {
  const MetricSeries* series = slave_.seriesOf(id);
  if (series == nullptr) return;
  ingestAt(id, series->endTime(), sample);
}

bool SlaveCheckpointer::hasState(const std::string& dir, HostId host) {
  return persist::fileExists(snapshotPathFor(dir, host)) ||
         persist::fileExists(journalPathFor(dir, host));
}

SlaveCheckpointer::Recovered SlaveCheckpointer::recover(
    const std::string& dir, HostId host, FChainConfig config) {
  Recovered result{FChainSlave(host, config)};
  const std::string snapshot_path = snapshotPathFor(dir, host);
  if (persist::fileExists(snapshot_path)) {
    const persist::SlaveSnapshot snap =
        persist::loadSlaveSnapshot(snapshot_path);
    if (snap.host != host) {
      throw std::runtime_error("snapshot " + snapshot_path + " is for host " +
                               std::to_string(snap.host) + ", not " +
                               std::to_string(host));
    }
    result.slave = FChainSlave::fromSnapshot(snap, std::move(config));
    result.epoch = snap.epoch;
  }
  const std::string journal_path = journalPathFor(dir, host);
  if (persist::fileExists(journal_path)) {
    const persist::SampleJournalReplay replay =
        persist::readSampleJournal(journal_path);
    result.journal_clean = replay.clean;
    // Replay everything unconditionally. Records the snapshot already
    // contains hit the duplicate path (equal values overwritten, models
    // untouched); skipping by timestamp would wrongly drop legitimate
    // out-of-order overwrites.
    for (const persist::SampleRecord& record : replay.records) {
      result.slave.ingestAt(record.component, record.t, record.sample);
      ++result.replayed;
    }
  }
  return result;
}

std::vector<RerunIncident> rerunPendingIncidents(
    FChainMaster& master, persist::IncidentJournal& journal) {
  std::vector<RerunIncident> reruns;
  for (persist::IncidentJournal::Pending& pending :
       persist::IncidentJournal::pending(journal.path())) {
    RerunIncident rerun;
    rerun.id = pending.id;
    rerun.components = std::move(pending.components);
    rerun.violation_time = pending.violation_time;
    rerun.result = master.localize(rerun.components, rerun.violation_time);
    journal.logDone(rerun.id);
    reruns.push_back(std::move(rerun));
  }
  return reruns;
}

}  // namespace fchain::core
