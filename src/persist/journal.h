// Append-only journals: per-slave sample journal + master incident journal.
//
// Both use the same record framing — u32 payload length, u32 CRC-32, payload
// — so a crash mid-append leaves at worst one torn record at the tail, which
// replay detects by checksum and drops cleanly (`clean = false`). Reopening
// a journal for append first *truncates* any torn tail (appending behind a
// corrupt frame would hide every later record from all future scans); a file
// cut short inside the header (a crash during creation) is recreated from
// scratch. A damaged *header* on a full-length file is a different story:
// the whole file is untrustworthy and both read and reopen throw
// CorruptDataError with the byte offset.
//
// Durability scope: append() flushes each batch of records to the OS — one
// write and one flush per batch, however many records it holds — so a
// record survives the *process* dying once its append returns; fsync per
// batch would dominate ingest cost, so power loss or a kernel crash may
// still drop the tail — which replay then treats exactly like a torn
// record. Snapshots (see codec.h writeFileAtomic) are fsync'd and survive
// power loss once written.
//
// The sample journal records the raw samples a slave ingested since its last
// snapshot. Recovery = restore the snapshot, then replay the journal through
// the same ingestAt path — deterministic, so the rebuilt slave is
// bit-identical to one that never crashed (see core::SlaveCheckpointer).
//
// The incident journal records each localization's *input* (the SLO
// violation's component set and time) before the master starts working and
// marks it done afterwards; after a master restart, `pending()` returns the
// incidents that were in flight so they can be re-run from the recorded
// input instead of silently lost.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "persist/codec.h"

namespace fchain::persist {

// --- Sample journal -------------------------------------------------------

/// One ingested sample exactly as it arrived (pre-repair: gaps, duplicates,
/// and non-finite values are re-handled identically on replay).
struct SampleRecord {
  ComponentId component = kNoComponent;
  TimeSec t = 0;
  std::array<double, kMetricCount> sample{};
};

/// Frame magics ("FCJL" / "FCIJ") and versions.
inline constexpr std::uint32_t kSampleJournalMagic = 0x4c4a4346u;
inline constexpr std::uint32_t kIncidentJournalMagic = 0x4a494346u;
inline constexpr std::uint32_t kJournalVersion = 1;

class SampleJournalWriter {
 public:
  /// Opens the journal. `truncate` starts a fresh journal (after a snapshot);
  /// otherwise appends to an existing one, first truncating any torn tail
  /// record left by a crash mid-append (see the header comment). A
  /// fresh/empty file gets a header carrying `epoch` — the snapshot
  /// generation this journal follows.
  SampleJournalWriter(std::string path, std::uint64_t epoch, bool truncate);

  /// Appends a batch of records with one write and one flush (the journal
  /// is the crash-safety net; an unflushed record is a lost record). The
  /// bytes are those of one append per record, so replay cannot tell a
  /// batch from single appends; a crash mid-write leaves a valid prefix of
  /// the batch and at most one torn record.
  void append(std::span<const SampleRecord> records);
  void append(const SampleRecord& record) {
    append(std::span<const SampleRecord>(&record, 1));
  }

  std::size_t recordsWritten() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t records_ = 0;
};

struct SampleJournalReplay {
  std::uint64_t epoch = 0;
  std::vector<SampleRecord> records;
  /// False when a torn/truncated tail record was detected and dropped — the
  /// expected signature of a crash mid-append.
  bool clean = true;
  std::size_t bytes_consumed = 0;
};

/// Reads a sample journal. Tolerates a torn tail (valid prefix is returned,
/// clean = false); throws CorruptDataError on a damaged header and
/// std::runtime_error when the file cannot be opened.
SampleJournalReplay readSampleJournal(const std::string& path);

// --- Incident journal -----------------------------------------------------

/// logStart/logDone are internally synchronized: FChainMaster::localize is
/// documented as safe for concurrent calls, and an attached journal must not
/// weaken that (unsynchronized appends would interleave record bytes and a
/// racy id counter would hand out duplicate incident ids).
class IncidentJournal {
 public:
  /// Opens (appending) or creates the journal. A torn tail record left by a
  /// crash mid-append is truncated away first (see the header comment).
  /// Incident ids continue from the highest id already recorded in the file.
  explicit IncidentJournal(std::string path);

  /// Records a localization's input before work starts; returns its id.
  std::uint64_t logStart(const std::vector<ComponentId>& components,
                         TimeSec violation_time);

  /// Marks the incident completed.
  void logDone(std::uint64_t id);

  struct Pending {
    std::uint64_t id = 0;
    std::vector<ComponentId> components;
    TimeSec violation_time = 0;
  };

  /// Incidents recorded as started but never completed, in start order.
  /// Tolerates a torn tail; throws CorruptDataError on a damaged header.
  static std::vector<Pending> pending(const std::string& path);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mu_;  ///< guards out_ and next_id_ (see class comment)
  std::ofstream out_;
  std::uint64_t next_id_ = 1;
};

}  // namespace fchain::persist
