// Tests for the binary persistence layer: codec primitives, framed
// container, snapshot encode/decode validation, and the append-only
// journals (torn-tail tolerance, incident pending scan, epoch handling).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "persist/codec.h"
#include "persist/journal.h"
#include "persist/snapshot.h"

namespace fchain::persist {
namespace {

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Codec primitives -----------------------------------------------------

TEST(Codec, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
}

TEST(Codec, Crc32ChunkedEqualsWhole) {
  const char* text = "crash-tolerant state";
  const std::size_t len = 20;
  const std::uint32_t whole = crc32(text, len);
  std::uint32_t chunked = crc32(text, 7);
  chunked = crc32(text + 7, len - 7, chunked);
  EXPECT_EQ(chunked, whole);
}

/// The byte-at-a-time CRC-32 that slice-by-8 replaced: one table lookup per
/// byte. crc32 must return exactly what this returns.
std::uint32_t bytewiseCrc32(std::span<const std::uint8_t> bytes,
                            std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::uint8_t byte : bytes) c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> randomBytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> bytes(size);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 8 == 0) word = rng();
    bytes[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
  }
  return bytes;
}

TEST(Codec, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  // Every length through 64 covers the 8-byte steps, the byte-wise tail and
  // their every mix; every start offset 0-7 covers every alignment.
  const std::vector<std::uint8_t> buffer = randomBytes(64 + 7, 17);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                length);
      ASSERT_EQ(crc32(bytes), bytewiseCrc32(bytes))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Codec, Crc32SeedChainsAtEveryTwoChunkSplit) {
  const std::vector<std::uint8_t> buffer = randomBytes(64, 23);
  const std::span<const std::uint8_t> bytes(buffer);
  const std::uint32_t whole = bytewiseCrc32(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.first(split));
    EXPECT_EQ(crc32(bytes.subspan(split), head), whole)
        << "split at byte " << split;
  }
}

TEST(Codec, Crc32MatchesBytewiseAcrossTheLaneSplit) {
  // From 8 bytes below the first laned length to 40 above it, every count
  // of tail bytes behind the three lanes; 65 537 and 1 000 003 bytes give
  // lanes far longer than their tail. Every start offset 0-7 covers every
  // alignment of each lane.
  const std::vector<std::uint8_t> buffer = randomBytes(1'000'003 + 7, 31);
  std::vector<std::size_t> lengths;
  for (std::size_t length = kCrc32LanedSize - 8;
       length <= kCrc32LanedSize + 40; ++length) {
    lengths.push_back(length);
  }
  lengths.push_back(65'537);
  lengths.push_back(1'000'003);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length : lengths) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                length);
      ASSERT_EQ(crc32(bytes), bytewiseCrc32(bytes))
          << "offset " << offset << ", length " << length;
    }
  }

  // A seed chains through the lanes: each split puts the head and the tail
  // below, at or above the laned length, so a laned chunk starts from a
  // seeded register as well as from the initial one.
  const std::span<const std::uint8_t> whole(buffer.data(), 100 * 1024);
  const std::uint32_t expected = bytewiseCrc32(whole);
  const std::size_t n = whole.size();
  const std::size_t laned = kCrc32LanedSize;
  for (std::size_t split : {std::size_t{1}, laned - 1, laned, laned + 5,
                            n / 2, n - laned - 5, n - laned, n - laned + 1,
                            n - 1}) {
    const std::uint32_t head = crc32(whole.first(split));
    EXPECT_EQ(crc32(whole.subspan(split), head), expected)
        << "split at byte " << split;
  }
}

TEST(Codec, Crc32MatchesBytewiseOnA16MiBBuffer) {
  const std::vector<std::uint8_t> buffer = randomBytes(std::size_t{16} << 20,
                                                       29);
  EXPECT_EQ(crc32(buffer), bytewiseCrc32(buffer));
}

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.u8(0xAB);
  enc.u32(0xDEADBEEFu);
  enc.u64(0x0123456789ABCDEFull);
  enc.i64(-42);
  enc.f64(3.14159);
  const auto bytes = enc.take();

  Decoder dec(bytes);
  EXPECT_EQ(dec.u8(), 0xAB);
  EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.i64(), -42);
  EXPECT_EQ(dec.f64(), 3.14159);
  EXPECT_TRUE(dec.done());
}

TEST(Codec, DoublesRoundTripBitExactly) {
  // Values chosen to break any text round-trip: subnormal, NaN payload,
  // signed zero, extreme exponents. The codec must restore exact bits.
  const std::vector<double> values = {
      0.1 + 0.2,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff4000000000123}),  // sNaN
  };
  Encoder enc;
  enc.doubles(values);
  Decoder dec(enc.buffer());
  const auto restored = dec.doubles();
  ASSERT_EQ(restored.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value index " << i;
  }

  // The bulk copy writes the format, a u64 count then each double's bits,
  // both little-endian, at every length and behind every alignment, and
  // decodes from those unaligned offsets. The expected bytes are built by
  // shifts, independent of the codec.
  const auto appendLe64 = [](std::vector<std::uint8_t>& out,
                             std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  std::mt19937_64 rng(31);
  for (std::size_t n = 0; n <= 130; ++n) {
    std::vector<double> array(n);
    for (std::size_t i = 0; i < n; ++i) {
      array[i] = i < values.size() ? values[i] : std::bit_cast<double>(rng());
    }
    for (std::size_t lead = 0; lead < 8; ++lead) {
      Encoder out;
      std::vector<std::uint8_t> expected(lead, 0xa5);
      for (std::size_t i = 0; i < lead; ++i) out.u8(0xa5);
      out.doubles(array);
      appendLe64(expected, n);
      for (double v : array) {
        appendLe64(expected, std::bit_cast<std::uint64_t>(v));
      }
      ASSERT_EQ(out.buffer(), expected) << "length " << n << ", lead " << lead;

      Decoder in(out.buffer());
      for (std::size_t i = 0; i < lead; ++i) in.u8();
      const std::vector<double> decoded = in.doubles();
      EXPECT_TRUE(in.done());
      ASSERT_EQ(decoded.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(decoded[i]),
                  std::bit_cast<std::uint64_t>(array[i]))
            << "length " << n << ", lead " << lead << ", index " << i;
      }
    }
  }
}

TEST(Codec, DecoderBytesIsABoundsCheckedView) {
  Encoder enc;
  enc.u32(0x04030201u);
  enc.u8(9);
  Decoder dec(enc.buffer());
  const std::span<const std::uint8_t> view = dec.bytes(4);
  EXPECT_EQ(view.data(), enc.buffer().data());  // a view, not a copy
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(dec.offset(), 4u);
  try {
    dec.bytes(2);
    FAIL() << "read past end was accepted";
  } catch (const CorruptDataError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
  EXPECT_EQ(dec.bytes(1).front(), 9);
  EXPECT_TRUE(dec.done());
}

TEST(Codec, DecoderRejectsReadPastEnd) {
  Encoder enc;
  enc.u32(7);
  Decoder dec(enc.buffer());
  dec.u32();
  try {
    dec.u32();
    FAIL() << "read past end was accepted";
  } catch (const CorruptDataError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(Codec, DoublesCountGuardBlocksHugeAllocation) {
  // A corrupt u64 count far beyond the remaining bytes must throw, not
  // attempt the allocation.
  Encoder enc;
  enc.u64(std::uint64_t{1} << 60);
  Decoder dec(enc.buffer());
  EXPECT_THROW(dec.doubles(), CorruptDataError);
}

// --- Framed container -----------------------------------------------------

TEST(Codec, FrameRoundTrip) {
  Encoder payload;
  payload.u64(1234);
  const auto framed = frame(0x54534554u, 3, payload.buffer());
  EXPECT_EQ(framed.size(), kFrameHeaderSize + payload.size());
  const FrameView view = unframe(framed, 0x54534554u, 3);
  EXPECT_EQ(view.version, 3u);
  Decoder dec(view.payload);
  EXPECT_EQ(dec.u64(), 1234u);

  // Framing in place writes the same bytes as framing a copy.
  Encoder in_place = beginFrame();
  in_place.u64(1234);
  EXPECT_EQ(sealFrame(std::move(in_place), 0x54534554u, 3), framed);
}

TEST(Codec, UnframeRejectsEachCorruption) {
  Encoder payload;
  payload.u64(99);
  auto framed = frame(0x54534554u, 1, payload.buffer());

  {  // wrong magic — offset 0
    auto bad = framed;
    bad[0] ^= 0xFF;
    try {
      unframe(bad, 0x54534554u, 1);
      FAIL();
    } catch (const CorruptDataError& e) {
      EXPECT_EQ(e.offset(), 0u);
    }
  }
  {  // future version — offset 4
    try {
      unframe(framed, 0x54534554u, 0);
      FAIL();
    } catch (const CorruptDataError& e) {
      EXPECT_EQ(e.offset(), 4u);
    }
  }
  {  // truncated payload — offset 8 (length field disagrees with the bytes)
    auto bad = framed;
    bad.pop_back();
    try {
      unframe(bad, 0x54534554u, 1);
      FAIL();
    } catch (const CorruptDataError& e) {
      EXPECT_EQ(e.offset(), 8u);
    }
  }
  {  // flipped payload bit — checksum failure, anchored at the payload
    auto bad = framed;
    bad[kFrameHeaderSize] ^= 0x01;
    try {
      unframe(bad, 0x54534554u, 1);
      FAIL();
    } catch (const CorruptDataError& e) {
      EXPECT_EQ(e.offset(), kFrameHeaderSize);
    }
  }
}

// --- File I/O -------------------------------------------------------------

TEST(Codec, WriteFileAtomicRoundTrip) {
  const std::string path = tempPath("persist_atomic.bin");
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  writeFileAtomic(path, bytes);
  EXPECT_TRUE(fileExists(path));
  EXPECT_FALSE(fileExists(path + ".tmp"));
  EXPECT_EQ(readFileBytes(path), bytes);
  // Overwrite: the old content is fully replaced, never blended.
  const std::vector<std::uint8_t> next = {9, 8};
  writeFileAtomic(path, next);
  EXPECT_EQ(readFileBytes(path), next);
  std::remove(path.c_str());
}

TEST(Codec, ReadMissingFileThrows) {
  EXPECT_THROW(readFileBytes("/nonexistent/state.bin"), std::runtime_error);
  // A directory opens as a stream but is not a file to read.
  EXPECT_THROW(readFileBytes(::testing::TempDir()), std::runtime_error);
}

// --- Snapshot codec -------------------------------------------------------

SlaveSnapshot sampleSnapshot() {
  SlaveSnapshot snapshot;
  snapshot.host = 7;
  snapshot.epoch = 3;
  VmSnapshotState vm;
  vm.component = 2;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    vm.series[m].start = 100;
    vm.series[m].values = {0.5, 0.25, 0.75};
    auto& p = vm.predictors[m];
    p.bins = 2;
    p.calibration_samples = 4;
    p.padding = 0.05;
    p.calibrated = true;
    p.lo = 0.0;
    p.hi = 1.0;
    p.width = 0.5;
    p.decay = 0.98;
    p.laplace = 1.0;
    p.counts = {1.0, 2.0, 3.0, 4.0};
    p.row_mass = {3.0, 7.0};
    p.errors.start = 100;
    p.errors.values = {0.01, 0.02, 0.03};
    p.has_last_state = true;
    p.last_state = 1;
    p.has_predicted_next = true;
    p.predicted_next = 0.6;
  }
  vm.gaps_filled = 5;
  vm.quarantined = 1;
  snapshot.vms.push_back(vm);
  return snapshot;
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const SlaveSnapshot original = sampleSnapshot();
  const auto bytes = encodeSlaveSnapshot(original);
  const SlaveSnapshot decoded = decodeSlaveSnapshot(bytes);
  EXPECT_EQ(decoded.host, original.host);
  EXPECT_EQ(decoded.epoch, original.epoch);
  ASSERT_EQ(decoded.vms.size(), 1u);
  const auto& vm = decoded.vms[0];
  EXPECT_EQ(vm.component, 2);
  EXPECT_EQ(vm.gaps_filled, 5u);
  EXPECT_EQ(vm.quarantined, 1u);
  const auto& p = vm.predictors[0];
  EXPECT_EQ(p.bins, 2u);
  EXPECT_TRUE(p.calibrated);
  EXPECT_EQ(p.counts, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(p.row_mass, (std::vector<double>{3.0, 7.0}));
  EXPECT_TRUE(p.has_last_state);
  EXPECT_EQ(p.last_state, 1u);
  EXPECT_EQ(p.predicted_next, 0.6);
  EXPECT_EQ(vm.series[0].values, (std::vector<double>{0.5, 0.25, 0.75}));
}

TEST(Snapshot, EncodeReservesItsBufferOnce) {
  // The encoder reserves an upper bound of its size up front. Had it
  // regrown, the capacity would be about twice the size; the bound's slack
  // is the 7 spare bytes of each one-byte field, plus the 4-byte ids.
  const auto bytes = encodeSlaveSnapshot(sampleSnapshot());
  EXPECT_GE(bytes.capacity(), bytes.size());
  EXPECT_LE(bytes.capacity(), bytes.size() + 3 * 7 * kMetricCount + 4 + 4);
}

TEST(Snapshot, DecodeRejectsBitRotAnywhere) {
  const auto bytes = encodeSlaveSnapshot(sampleSnapshot());
  // Flip one bit in every 7th byte position, one at a time; every single
  // corruption must be caught (checksum covers the whole payload).
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    auto bad = bytes;
    bad[i] ^= 0x10;
    EXPECT_THROW(decodeSlaveSnapshot(bad), CorruptDataError)
        << "flip at byte " << i << " was accepted";
  }
}

TEST(Snapshot, DecodeRejectsTruncation) {
  const auto bytes = encodeSlaveSnapshot(sampleSnapshot());
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, kFrameHeaderSize,
                           bytes.size() - 1}) {
    std::vector<std::uint8_t> bad(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(decodeSlaveSnapshot(bad), CorruptDataError)
        << "truncation to " << keep << " bytes was accepted";
  }
}

TEST(Snapshot, DecodeRejectsInconsistentModelShape) {
  // A payload that frames correctly but violates structural invariants
  // (counts size != bins^2) must be rejected by validation, not trusted.
  SlaveSnapshot snapshot = sampleSnapshot();
  snapshot.vms[0].predictors[3].counts.pop_back();
  const auto bytes = encodeSlaveSnapshot(snapshot);
  EXPECT_THROW(decodeSlaveSnapshot(bytes), CorruptDataError);
}

TEST(Snapshot, SaveLoadFileRoundTrip) {
  const std::string path = tempPath("persist_snapshot.snap");
  saveSlaveSnapshot(path, sampleSnapshot());
  const SlaveSnapshot loaded = loadSlaveSnapshot(path);
  EXPECT_EQ(loaded.host, 7);
  EXPECT_EQ(loaded.epoch, 3u);
  std::remove(path.c_str());
}

TEST(Snapshot, ReadEpochChecksTheHeaderNotThePayload) {
  const std::string path = tempPath("persist_epoch.snap");
  const std::vector<std::uint8_t> bytes = encodeSlaveSnapshot(sampleSnapshot());
  writeFileAtomic(path, bytes);
  EXPECT_EQ(readSnapshotEpoch(path), 3u);

  // A bit flip past the epoch field: the epoch still reads, the full load
  // still refuses.
  std::vector<std::uint8_t> flipped = bytes;
  flipped.back() ^= 0x10;
  writeFileAtomic(path, flipped);
  EXPECT_EQ(readSnapshotEpoch(path), 3u);
  EXPECT_THROW(loadSlaveSnapshot(path), CorruptDataError);

  // Each header check throws: a file cut inside the header, one cut inside
  // the epoch field, a bad magic, a future version, and a file whose size
  // disagrees with the length field.
  std::vector<std::vector<std::uint8_t>> damaged;
  damaged.emplace_back(bytes.begin(), bytes.begin() + 12);
  damaged.emplace_back(bytes.begin(), bytes.begin() + kFrameHeaderSize + 6);
  damaged.push_back(bytes);
  damaged.back()[0] ^= 0x01;
  damaged.push_back(bytes);
  damaged.back()[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  damaged.push_back(bytes);
  damaged.back().push_back(0);
  for (std::size_t i = 0; i < damaged.size(); ++i) {
    writeFileAtomic(path, damaged[i]);
    EXPECT_THROW(readSnapshotEpoch(path), CorruptDataError) << "damage " << i;
  }
  std::remove(path.c_str());
}

// --- Sample journal -------------------------------------------------------

SampleRecord makeRecord(ComponentId id, TimeSec t, double base) {
  SampleRecord record;
  record.component = id;
  record.t = t;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    record.sample[m] = base + static_cast<double>(m);
  }
  return record;
}

TEST(SampleJournal, AppendAndReplay) {
  const std::string path = tempPath("persist_journal.journal");
  std::remove(path.c_str());
  {
    SampleJournalWriter writer(path, /*epoch=*/5, /*truncate=*/true);
    writer.append(makeRecord(0, 100, 1.5));
    writer.append(makeRecord(1, 101, 2.5));
    EXPECT_EQ(writer.recordsWritten(), 2u);
  }
  const auto replay = readSampleJournal(path);
  EXPECT_EQ(replay.epoch, 5u);
  EXPECT_TRUE(replay.clean);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].component, 0);
  EXPECT_EQ(replay.records[0].t, 100);
  EXPECT_EQ(replay.records[0].sample[0], 1.5);
  EXPECT_EQ(replay.records[1].component, 1);
  std::remove(path.c_str());
}

// One batch append is one write and one flush, but the bytes are those of
// one append per record, so replay cannot tell the two apart.
TEST(SampleJournal, BatchAppendWritesTheBytesOfSingleAppends) {
  const std::string single_path = tempPath("persist_journal_single.journal");
  const std::string batch_path = tempPath("persist_journal_batch.journal");
  const std::vector<SampleRecord> records = {
      makeRecord(0, 100, 1.5), makeRecord(1, 100, 2.5),
      makeRecord(2, 100, 3.5)};
  {
    SampleJournalWriter single(single_path, 4, /*truncate=*/true);
    for (const SampleRecord& record : records) single.append(record);
    SampleJournalWriter batch(batch_path, 4, /*truncate=*/true);
    batch.append(records);
    EXPECT_EQ(batch.recordsWritten(), 3u);
  }
  EXPECT_EQ(readFileBytes(batch_path), readFileBytes(single_path));
  EXPECT_EQ(readSampleJournal(batch_path).records.size(), 3u);
  std::remove(single_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(SampleJournal, AppendModeContinuesExistingFile) {
  const std::string path = tempPath("persist_journal_append.journal");
  std::remove(path.c_str());
  {
    SampleJournalWriter writer(path, 1, /*truncate=*/true);
    writer.append(makeRecord(0, 10, 1.0));
  }
  {
    // Re-open without truncating (a checkpointer restart mid-epoch).
    SampleJournalWriter writer(path, 1, /*truncate=*/false);
    writer.append(makeRecord(0, 11, 2.0));
  }
  const auto replay = readSampleJournal(path);
  EXPECT_EQ(replay.epoch, 1u);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].t, 11);
  std::remove(path.c_str());
}

/// Simulates a crash mid-append: chops `bytes` off the end of the file.
void chopTail(const std::string& path, std::size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - bytes));
}

TEST(SampleJournal, TornTailDroppedNotFatal) {
  const std::string path = tempPath("persist_journal_torn.journal");
  std::remove(path.c_str());
  {
    SampleJournalWriter writer(path, 2, /*truncate=*/true);
    writer.append(makeRecord(0, 100, 1.0));
    writer.append(makeRecord(0, 101, 2.0));
  }
  chopTail(path, 5);

  const auto replay = readSampleJournal(path);
  EXPECT_FALSE(replay.clean);
  ASSERT_EQ(replay.records.size(), 1u);  // valid prefix survives
  EXPECT_EQ(replay.records[0].t, 100);
  std::remove(path.c_str());
}

TEST(SampleJournal, ReopenAfterTornTailTruncatesBeforeAppending) {
  const std::string path = tempPath("persist_journal_torn_reopen.journal");
  std::remove(path.c_str());
  {
    SampleJournalWriter writer(path, 3, /*truncate=*/true);
    writer.append(makeRecord(0, 100, 1.0));
    writer.append(makeRecord(0, 101, 2.0));
  }
  chopTail(path, 5);  // crash mid-append tears the t=101 record
  {
    // Restart mid-epoch: the writer must drop the torn record, or every
    // record it appends lands behind a corrupt frame and is lost to replay.
    SampleJournalWriter writer(path, 3, /*truncate=*/false);
    writer.append(makeRecord(0, 102, 3.0));
  }
  const auto replay = readSampleJournal(path);
  EXPECT_TRUE(replay.clean);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].t, 100);
  EXPECT_EQ(replay.records[1].t, 102);
  std::remove(path.c_str());
}

TEST(SampleJournal, ReopenAfterCrashDuringCreationStartsFresh) {
  const std::string path = tempPath("persist_journal_short.journal");
  std::remove(path.c_str());
  {
    // Crash mid-header: the file exists but is shorter than a header.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("FCJL", 4);
  }
  {
    SampleJournalWriter writer(path, 9, /*truncate=*/false);
    writer.append(makeRecord(0, 50, 1.0));
  }
  const auto replay = readSampleJournal(path);
  EXPECT_EQ(replay.epoch, 9u);
  EXPECT_TRUE(replay.clean);
  ASSERT_EQ(replay.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(SampleJournal, DamagedHeaderIsFatal) {
  const std::string path = tempPath("persist_journal_header.journal");
  std::remove(path.c_str());
  {
    SampleJournalWriter writer(path, 2, /*truncate=*/true);
    writer.append(makeRecord(0, 100, 1.0));
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(0);
  file.put('\x00');  // clobber the magic
  file.close();
  EXPECT_THROW(readSampleJournal(path), CorruptDataError);
  std::remove(path.c_str());
}

// --- Incident journal -----------------------------------------------------

TEST(IncidentJournal, PendingTracksUnfinishedIncidents) {
  const std::string path = tempPath("persist_incidents.journal");
  std::remove(path.c_str());
  {
    IncidentJournal journal(path);
    const auto a = journal.logStart({0, 1, 2}, 1000);
    const auto b = journal.logStart({3}, 1100);
    journal.logDone(a);
    EXPECT_NE(a, b);
  }
  const auto pending = IncidentJournal::pending(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].components, (std::vector<ComponentId>{3}));
  EXPECT_EQ(pending[0].violation_time, 1100);
  std::remove(path.c_str());
}

TEST(IncidentJournal, IdsContinueAcrossReopen) {
  const std::string path = tempPath("persist_incidents_reopen.journal");
  std::remove(path.c_str());
  std::uint64_t first = 0;
  {
    IncidentJournal journal(path);
    first = journal.logStart({0}, 500);
    journal.logDone(first);
  }
  {
    IncidentJournal journal(path);  // master restart
    const auto next = journal.logStart({1}, 600);
    EXPECT_GT(next, first);
  }
  const auto pending = IncidentJournal::pending(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].components, (std::vector<ComponentId>{1}));
  std::remove(path.c_str());
}

TEST(IncidentJournal, PendingOnMissingFileIsEmpty) {
  EXPECT_TRUE(IncidentJournal::pending(tempPath("never_written.journal"))
                  .empty());
}

TEST(IncidentJournal, ReopenAfterTornTailKeepsLaterRecordsVisible) {
  const std::string path = tempPath("persist_incidents_torn.journal");
  std::remove(path.c_str());
  std::uint64_t a = 0;
  {
    IncidentJournal journal(path);
    a = journal.logStart({0}, 100);
    journal.logStart({1}, 200);  // torn by the "crash" below
  }
  chopTail(path, 3);

  // Reopening must truncate the torn start record; appending behind it
  // would hide the done-marker and the new incident from every future scan
  // (incident a re-run forever, incident c lost from crash tolerance).
  std::uint64_t c = 0;
  {
    IncidentJournal journal(path);
    journal.logDone(a);
    c = journal.logStart({2}, 300);
  }
  const auto pending = IncidentJournal::pending(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, c);
  EXPECT_EQ(pending[0].components, (std::vector<ComponentId>{2}));
  EXPECT_EQ(pending[0].violation_time, 300);
  std::remove(path.c_str());
}

TEST(IncidentJournal, ReopenAfterCrashDuringCreationStartsFresh) {
  const std::string path = tempPath("persist_incidents_short.journal");
  std::remove(path.c_str());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("FCIJ", 4);  // crash mid-header
  }
  IncidentJournal journal(path);
  const auto id = journal.logStart({4}, 700);
  const auto pending = IncidentJournal::pending(path);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, id);
  std::remove(path.c_str());
}

TEST(IncidentJournal, ConcurrentLogCallsNeitherCorruptNorReuseIds) {
  // FChainMaster::localize is documented safe for concurrent calls and
  // drives logStart/logDone; interleaved record bytes or a racy id counter
  // would corrupt the journal. Runs under the TSan CI job.
  const std::string path = tempPath("persist_incidents_threads.journal");
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    IncidentJournal journal(path);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&journal, i] {
        for (int k = 0; k < kPerThread; ++k) {
          const auto id = journal.logStart(
              {static_cast<ComponentId>(i)}, 1000 + k);
          journal.logDone(id);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  // Every record framed intact (a torn/corrupt record would stop the scan
  // early and strand incidents as pending)...
  EXPECT_TRUE(IncidentJournal::pending(path).empty());
  // ...and all 100 ids were distinct: the reopened sequence continues past
  // the highest one.
  IncidentJournal reopened(path);
  EXPECT_EQ(reopened.logStart({0}, 2000),
            static_cast<std::uint64_t>(kThreads * kPerThread) + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fchain::persist
