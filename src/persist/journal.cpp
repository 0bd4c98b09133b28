#include "persist/journal.h"

#include <algorithm>
#include <filesystem>

namespace fchain::persist {

namespace {

/// Journal file header: magic u32 | version u32 | epoch u64.
constexpr std::size_t kJournalHeaderSize = 4 + 4 + 8;

void writeHeader(std::ofstream& out, std::uint32_t magic,
                 std::uint64_t epoch) {
  Encoder header;
  header.u32(magic);
  header.u32(kJournalVersion);
  header.u64(epoch);
  out.write(reinterpret_cast<const char*>(header.buffer().data()),
            static_cast<std::streamsize>(header.size()));
}

/// Record header: u32 payload length | u32 payload crc.
constexpr std::size_t kRecordHeaderSize = 4 + 4;

/// Sample record payload: u32 component | i64 t | the metric doubles.
constexpr std::size_t kSamplePayloadSize = 4 + 8 + 8 * kMetricCount;

/// Starts a record at the end of `records`, like beginFrame: appends a
/// blank record header and returns its offset. Encode the payload behind
/// it, then sealRecord.
std::size_t beginRecord(Encoder& records) {
  const std::size_t header = records.size();
  records.skip(kRecordHeaderSize);
  return header;
}

/// Patches the length and CRC of the last record, whose header is at
/// `header`.
void sealRecord(Encoder& records, std::size_t header) {
  const std::span<const std::uint8_t> payload =
      records.bytesFrom(header + kRecordHeaderSize);
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t checksum = crc32(payload);
  records.patchU32(header, length);
  records.patchU32(header + 4, checksum);
}

/// Writes sealed records with one write and one flush.
void writeRecords(std::ofstream& out, const Encoder& records) {
  out.write(reinterpret_cast<const char*>(records.buffer().data()),
            static_cast<std::streamsize>(records.size()));
  out.flush();
}

std::uint64_t checkHeader(Decoder& in, std::uint32_t magic) {
  const std::uint32_t got = in.u32();
  if (got != magic) {
    throw CorruptDataError("journal header: bad magic", 0);
  }
  const std::uint32_t version = in.u32();
  if (version == 0 || version > kJournalVersion) {
    throw CorruptDataError(
        "journal header: unsupported version " + std::to_string(version), 4);
  }
  return in.u64();  // epoch
}

/// Walks the framed records, handing each valid payload to `visit`.
/// Returns false when a torn tail was detected (and stops there).
template <typename Visit>
bool walkRecords(Decoder& in, std::size_t base_offset, Visit visit,
                 std::size_t* bytes_consumed) {
  while (!in.done()) {
    *bytes_consumed = base_offset + in.offset();
    if (in.remaining() < 8) return false;  // torn frame header
    const std::uint32_t length = in.u32();
    const std::uint32_t checksum = in.u32();
    if (in.remaining() < length) return false;  // torn payload
    const std::span<const std::uint8_t> payload = in.bytes(length);
    if (crc32(payload) != checksum) return false;  // torn / corrupt tail
    visit(payload);
  }
  *bytes_consumed = base_offset + in.offset();
  return true;
}

/// Repairs a journal about to be reopened for append: drops a torn tail
/// record (the crash-mid-append signature) by truncating the file to its
/// clean prefix. Appending *behind* a torn frame would hide every later
/// record from all future scans. Returns false when the file is shorter
/// than a full header (a crash during creation) and must be recreated;
/// throws CorruptDataError when the header itself is damaged.
bool repairTailForAppend(const std::string& path, std::uint32_t magic) {
  const std::vector<std::uint8_t> bytes = readFileBytes(path);
  if (bytes.size() < kJournalHeaderSize) return false;
  Decoder in(bytes);
  checkHeader(in, magic);
  Decoder body(std::span<const std::uint8_t>(bytes).subspan(in.offset()));
  std::size_t consumed = 0;
  const bool clean = walkRecords(
      body, kJournalHeaderSize, [](std::span<const std::uint8_t>) {},
      &consumed);
  if (!clean) std::filesystem::resize_file(path, consumed);
  return true;
}

}  // namespace

// --- Sample journal -------------------------------------------------------

SampleJournalWriter::SampleJournalWriter(std::string path, std::uint64_t epoch,
                                         bool truncate)
    : path_(std::move(path)) {
  bool fresh = true;
  if (!truncate && fileExists(path_) &&
      repairTailForAppend(path_, kSampleJournalMagic)) {
    fresh = false;
  }
  auto mode = std::ios::binary | (fresh ? std::ios::trunc : std::ios::app);
  out_.open(path_, mode);
  if (!out_) {
    throw std::runtime_error("cannot open sample journal: " + path_);
  }
  if (fresh) {
    writeHeader(out_, kSampleJournalMagic, epoch);
    out_.flush();
  }
  if (!out_) {
    throw std::runtime_error("write failure on sample journal: " + path_);
  }
}

void SampleJournalWriter::append(std::span<const SampleRecord> records) {
  if (records.empty()) return;
  Encoder framed;
  framed.reserve(records.size() * (kRecordHeaderSize + kSamplePayloadSize));
  for (const SampleRecord& record : records) {
    const std::size_t header = beginRecord(framed);
    framed.u32(record.component);
    framed.i64(record.t);
    for (double v : record.sample) framed.f64(v);
    sealRecord(framed, header);
  }
  writeRecords(out_, framed);
  if (!out_) {
    throw std::runtime_error("write failure on sample journal: " + path_);
  }
  records_ += records.size();
}

SampleJournalReplay readSampleJournal(const std::string& path) {
  const std::vector<std::uint8_t> bytes = readFileBytes(path);
  Decoder in(bytes);
  SampleJournalReplay replay;
  replay.epoch = checkHeader(in, kSampleJournalMagic);

  Decoder body(std::span<const std::uint8_t>(bytes).subspan(in.offset()));
  replay.clean = walkRecords(
      body, kJournalHeaderSize,
      [&](std::span<const std::uint8_t> payload) {
        Decoder rec(payload);
        SampleRecord record;
        record.component = rec.u32();
        record.t = rec.i64();
        for (double& v : record.sample) v = rec.f64();
        if (!rec.done()) rec.fail("sample record: trailing bytes");
        replay.records.push_back(record);
      },
      &replay.bytes_consumed);
  return replay;
}

// --- Incident journal -----------------------------------------------------

namespace {

constexpr std::uint8_t kIncidentStart = 0;
constexpr std::uint8_t kIncidentDone = 1;

struct IncidentScan {
  std::vector<IncidentJournal::Pending> pending;
  std::uint64_t max_id = 0;
};

IncidentScan scanIncidents(const std::string& path) {
  const std::vector<std::uint8_t> bytes = readFileBytes(path);
  Decoder in(bytes);
  checkHeader(in, kIncidentJournalMagic);

  IncidentScan scan;
  Decoder body(std::span<const std::uint8_t>(bytes).subspan(in.offset()));
  std::size_t consumed = 0;
  walkRecords(
      body, kJournalHeaderSize,
      [&](std::span<const std::uint8_t> payload) {
        Decoder rec(payload);
        const std::uint8_t kind = rec.u8();
        const std::uint64_t id = rec.u64();
        scan.max_id = std::max(scan.max_id, id);
        if (kind == kIncidentStart) {
          IncidentJournal::Pending incident;
          incident.id = id;
          incident.violation_time = rec.i64();
          const std::uint64_t count = rec.u64();
          if (count > rec.remaining() / 4) {
            rec.fail("incident record: component count exceeds payload");
          }
          incident.components.reserve(static_cast<std::size_t>(count));
          for (std::uint64_t i = 0; i < count; ++i) {
            incident.components.push_back(rec.u32());
          }
          scan.pending.push_back(std::move(incident));
        } else if (kind == kIncidentDone) {
          std::erase_if(scan.pending, [id](const auto& p) {
            return p.id == id;
          });
        } else {
          rec.fail("incident record: unknown kind");
        }
      },
      &consumed);
  return scan;
}

}  // namespace

IncidentJournal::IncidentJournal(std::string path) : path_(std::move(path)) {
  bool fresh = true;
  if (fileExists(path_) &&
      repairTailForAppend(path_, kIncidentJournalMagic)) {
    // Continue the id sequence across restarts (the torn tail, if any, was
    // just truncated away, so the scan sees the whole surviving journal).
    next_id_ = scanIncidents(path_).max_id + 1;
    fresh = false;
  }
  auto mode = std::ios::binary | (fresh ? std::ios::trunc : std::ios::app);
  out_.open(path_, mode);
  if (!out_) {
    throw std::runtime_error("cannot open incident journal: " + path_);
  }
  if (fresh) {
    writeHeader(out_, kIncidentJournalMagic, 0);
    out_.flush();
  }
  if (!out_) {
    throw std::runtime_error("write failure on incident journal: " + path_);
  }
}

std::uint64_t IncidentJournal::logStart(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  Encoder framed;
  framed.reserve(kRecordHeaderSize + 1 + 8 + 8 + 8 + 4 * components.size());
  const std::size_t header = beginRecord(framed);
  framed.u8(kIncidentStart);
  framed.u64(id);
  framed.i64(violation_time);
  framed.u64(components.size());
  for (ComponentId component : components) framed.u32(component);
  sealRecord(framed, header);
  writeRecords(out_, framed);
  if (!out_) {
    throw std::runtime_error("write failure on incident journal: " + path_);
  }
  return id;
}

void IncidentJournal::logDone(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  Encoder framed;
  framed.reserve(kRecordHeaderSize + 1 + 8);
  const std::size_t header = beginRecord(framed);
  framed.u8(kIncidentDone);
  framed.u64(id);
  sealRecord(framed, header);
  writeRecords(out_, framed);
  if (!out_) {
    throw std::runtime_error("write failure on incident journal: " + path_);
  }
}

std::vector<IncidentJournal::Pending> IncidentJournal::pending(
    const std::string& path) {
  // No journal yet (fresh deployment) means nothing was in flight.
  if (!fileExists(path)) return {};
  return scanIncidents(path).pending;
}

}  // namespace fchain::persist
