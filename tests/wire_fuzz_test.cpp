// Deterministic fuzz-style corpus tests for the wire protocol.
//
// The multi-process transport (runtime/wire.h) inherits the persistence
// codec's damage contract: a truncated or bit-flipped frame is rejected
// with persist::CorruptDataError carrying the byte offset of the damage —
// never crashed on, never decoded as a garbage message. These tests grind
// that contract with a corpus of valid frames (handshake both directions,
// analyze request/reply with real findings, streaming ingest as one sample
// and as a multi-sample batch — checked into tests/fixtures/wire_frames/ so
// the wire format itself is pinned in version control) mutated by
//   - exhaustive truncation: every proper prefix of every frame;
//   - exhaustive single-bit flips over every frame in the corpus;
//   - seeded random multi-bit flips (fixed seeds, replayable);
// plus the two header-level rejections the socket layer depends on:
// version-mismatch frames and frames announcing an oversized payload.
//
// Regenerate the corpus after an intentional format change:
//   FCHAIN_UPDATE_FIXTURES=1 ./build/tests/test_wire_fuzz
// then review the binary diff like any other code change.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "persist/codec.h"
#include "runtime/wire.h"

namespace fchain::runtime::wire {
namespace {

using persist::CorruptDataError;

// --- Corpus construction (fully deterministic) ----------------------------

std::vector<std::uint8_t> buildHello() { return encodeHello(Hello{}); }

std::vector<std::uint8_t> buildHelloReply() {
  HelloReply msg;
  msg.host = 1;
  msg.components = {2, 3};
  msg.identity_hash = slaveIdentityHash(msg.host, msg.components);
  return encodeHelloReply(msg);
}

std::vector<std::uint8_t> buildAnalyzeRequest() {
  AnalyzeBatchRequest msg;
  msg.components = {0, 1, 2, 3};
  msg.violation_time = 2029;
  msg.deadline_ms = 250.0;
  return encodeAnalyzeBatchRequest(msg);
}

/// A realistic batch reply: one rich finding, one absent slot, one finding
/// with awkward doubles (negative zero, subnormal) so the f64 bit-cast path
/// is part of the pinned bytes.
std::vector<std::uint8_t> buildAnalyzeReply() {
  AnalyzeBatchReply msg;
  msg.status = EndpointStatus::Ok;
  msg.latency_ms = 12.25;
  core::ComponentFinding finding;
  finding.component = 3;
  finding.onset = 1999;
  finding.trend = Trend::Up;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    core::MetricFinding m;
    m.metric = static_cast<MetricKind>(i);
    m.onset = 1999 + static_cast<TimeSec>(i);
    m.change_point = 2001 + static_cast<TimeSec>(i);
    m.trend = i % 2 == 0 ? Trend::Up : Trend::Down;
    m.prediction_error = 61.913879003039398 + 0.125 * static_cast<double>(i);
    m.expected_error = 23.781063591909241;
    finding.metrics.push_back(m);
  }
  msg.findings.push_back(finding);
  msg.findings.push_back(std::nullopt);
  core::ComponentFinding awkward;
  awkward.component = 1;
  awkward.onset = 2017;
  awkward.trend = Trend::Down;
  core::MetricFinding m;
  m.metric = static_cast<MetricKind>(0);
  m.onset = 2017;
  m.change_point = 2017;
  m.trend = Trend::Flat;
  m.prediction_error = -0.0;
  m.expected_error = 4.9406564584124654e-324;  // smallest subnormal
  awkward.metrics.push_back(m);
  msg.findings.push_back(awkward);
  return encodeAnalyzeBatchReply(msg);
}

std::vector<std::uint8_t> buildIngestRequest() {
  IngestRequest msg;
  msg.component = 2;
  msg.t = 1234;
  msg.deadline_ms = 50.0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    msg.sample[i] = 10.0 * static_cast<double>(i + 1) + 0.25;
  }
  return encodeIngestRequest(msg);
}

/// One slave's tick as the online monitor sends it: the first sample in the
/// request's own fields, two more behind the count, one with awkward
/// doubles (negative zero, subnormal, infinity).
IngestRequest ingestBatch() {
  IngestRequest msg;
  msg.component = 4;
  msg.t = 1800;
  msg.deadline_ms = 1000.0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    msg.sample[i] = 1.5 * static_cast<double>(i) + 0.0625;
  }
  persist::SampleRecord second;
  second.component = 5;
  second.t = 1800;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    second.sample[i] = 100.0 - 3.25 * static_cast<double>(i);
  }
  persist::SampleRecord awkward;
  awkward.component = 7;
  awkward.t = 1800;
  awkward.sample.fill(0.5);
  awkward.sample[0] = -0.0;
  awkward.sample[1] = 4.9406564584124654e-324;  // smallest subnormal
  awkward.sample[2] = std::numeric_limits<double>::infinity();
  msg.more = {second, awkward};
  return msg;
}

std::vector<std::uint8_t> buildIngestBatch() {
  return encodeIngestRequest(ingestBatch());
}

// --- Fixture management ---------------------------------------------------

std::string fixturePath(const std::string& name) {
  return std::string(FCHAIN_FIXTURE_DIR) + "/" + name;
}

bool updateFixturesRequested() {
  const char* update = std::getenv("FCHAIN_UPDATE_FIXTURES");
  return update != nullptr && update[0] != '\0' &&
         !(update[0] == '0' && update[1] == '\0');
}

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

void writeBytes(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

struct CorpusEntry {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::vector<CorpusEntry> corpus() {
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
      builders = {{"hello.bin", buildHello()},
                  {"hello_reply.bin", buildHelloReply()},
                  {"analyze_request.bin", buildAnalyzeRequest()},
                  {"analyze_reply.bin", buildAnalyzeReply()},
                  {"ingest_request.bin", buildIngestRequest()},
                  {"ingest_batch.bin", buildIngestBatch()}};
  if (updateFixturesRequested()) {
    std::filesystem::create_directories(FCHAIN_FIXTURE_DIR);
    for (const auto& [name, bytes] : builders) {
      writeBytes(fixturePath(name), bytes);
    }
  }
  std::vector<CorpusEntry> entries;
  for (const auto& [name, bytes] : builders) {
    entries.push_back({name, readBytes(fixturePath(name))});
  }
  return entries;
}

void expectByteOffsetError(const CorruptDataError& error, std::size_t size) {
  EXPECT_LE(error.offset(), size);
  EXPECT_NE(std::string(error.what()).find("byte offset"), std::string::npos)
      << error.what();
}

// --- Corpus freshness -----------------------------------------------------

// The encoders must still produce the checked-in bytes; a mismatch means
// the wire format changed and the corpus (and the protocol version) needs a
// deliberate regeneration.
TEST(WireFuzz, CorpusMatchesCurrentEncoders) {
  const std::vector<CorpusEntry> entries = corpus();
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries[0].bytes, buildHello());
  EXPECT_EQ(entries[1].bytes, buildHelloReply());
  EXPECT_EQ(entries[2].bytes, buildAnalyzeRequest());
  EXPECT_EQ(entries[3].bytes, buildAnalyzeReply());
  EXPECT_EQ(entries[4].bytes, buildIngestRequest());
  EXPECT_EQ(entries[5].bytes, buildIngestBatch());
}

// And the valid baselines decode back to the exact messages, doubles
// bit-for-bit — the multi-process identity guarantee in miniature.
TEST(WireFuzz, CorpusRoundTripsBitExactly) {
  const std::vector<CorpusEntry> entries = corpus();
  const Message hello = decodeMessage(entries[0].bytes);
  EXPECT_EQ(std::get<Hello>(hello).protocol_version, kWireVersion);

  const Message hello_reply_msg = decodeMessage(entries[1].bytes);
  const auto& hello_reply = std::get<HelloReply>(hello_reply_msg);
  EXPECT_EQ(hello_reply.host, 1u);
  EXPECT_EQ(hello_reply.components, (std::vector<ComponentId>{2, 3}));
  EXPECT_EQ(hello_reply.identity_hash, slaveIdentityHash(1, {2, 3}));

  const Message request_msg = decodeMessage(entries[2].bytes);
  const auto& request = std::get<AnalyzeBatchRequest>(request_msg);
  EXPECT_EQ(request.components, (std::vector<ComponentId>{0, 1, 2, 3}));
  EXPECT_EQ(request.violation_time, 2029);

  const Message reply_msg = decodeMessage(entries[3].bytes);
  const auto& reply = std::get<AnalyzeBatchReply>(reply_msg);
  ASSERT_EQ(reply.findings.size(), 3u);
  ASSERT_TRUE(reply.findings[0].has_value());
  EXPECT_FALSE(reply.findings[1].has_value());
  ASSERT_TRUE(reply.findings[2].has_value());
  EXPECT_EQ(reply.findings[0]->metrics.size(), kMetricCount);
  EXPECT_EQ(reply.findings[0]->metrics[0].prediction_error,
            61.913879003039398);
  // Bit-exact doubles: negative zero keeps its sign bit, the subnormal
  // survives untouched.
  EXPECT_TRUE(std::signbit(reply.findings[2]->metrics[0].prediction_error));
  EXPECT_EQ(reply.findings[2]->metrics[0].expected_error,
            4.9406564584124654e-324);

  const Message ingest_msg = decodeMessage(entries[4].bytes);
  const auto& ingest = std::get<IngestRequest>(ingest_msg);
  EXPECT_EQ(ingest.component, 2u);
  EXPECT_EQ(ingest.t, 1234);
  EXPECT_TRUE(ingest.more.empty());

  // The batch walks back in order, every double bit for bit.
  const Message batch_msg = decodeMessage(entries[5].bytes);
  const auto& batch = std::get<IngestRequest>(batch_msg);
  EXPECT_EQ(batch.deadline_ms, 1000.0);
  std::vector<persist::SampleRecord> decoded;
  batch.forEachSample(
      [&](const persist::SampleRecord& record) { decoded.push_back(record); });
  std::vector<persist::SampleRecord> expected;
  ingestBatch().forEachSample(
      [&](const persist::SampleRecord& record) { expected.push_back(record); });
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].component, expected[i].component);
    EXPECT_EQ(decoded[i].t, expected[i].t);
    EXPECT_EQ(std::memcmp(decoded[i].sample.data(), expected[i].sample.data(),
                          sizeof(double) * kMetricCount),
              0)
        << "sample " << i;
  }
  EXPECT_TRUE(std::signbit(decoded[2].sample[0]));
}

// The identity hash is what reconnect idempotence and the split-brain guard
// both hang off: order-insensitive over the claim set, sensitive to every
// change in it.
TEST(WireFuzz, IdentityHashIsOrderInsensitiveAndClaimSensitive) {
  EXPECT_EQ(slaveIdentityHash(1, {2, 3}), slaveIdentityHash(1, {3, 2}));
  EXPECT_NE(slaveIdentityHash(1, {2, 3}), slaveIdentityHash(2, {2, 3}));
  EXPECT_NE(slaveIdentityHash(1, {2, 3}), slaveIdentityHash(1, {2}));
  EXPECT_NE(slaveIdentityHash(1, {2, 3}), slaveIdentityHash(1, {2, 4}));
  EXPECT_NE(slaveIdentityHash(1, {}), slaveIdentityHash(2, {}));
}

// --- Exhaustive mutations --------------------------------------------------

TEST(WireFuzz, EveryTruncationOfEveryFrameIsRejectedWithAnOffset) {
  for (const CorpusEntry& entry : corpus()) {
    for (std::size_t len = 0; len < entry.bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(entry.bytes.data(), len);
      try {
        decodeMessage(prefix);
        FAIL() << entry.name << " truncated to " << len
               << " bytes decoded successfully";
      } catch (const CorruptDataError& error) {
        expectByteOffsetError(error, len);
      }
      // Any other exception type (or a crash) propagates and fails.
    }
  }
}

// The frame CRC covers the whole payload and persist::unframe validates
// magic / version / length, so *every* single-bit flip anywhere in any
// corpus frame — header and payload alike — must be rejected.
TEST(WireFuzz, EverySingleBitFlipInEveryFrameIsRejected) {
  for (const CorpusEntry& entry : corpus()) {
    for (std::size_t byte = 0; byte < entry.bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> bytes = entry.bytes;
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        try {
          decodeMessage(bytes);
          FAIL() << entry.name << " flip at byte " << byte << " bit " << bit
                 << " decoded successfully";
        } catch (const CorruptDataError& error) {
          expectByteOffsetError(error, bytes.size());
        }
      }
    }
  }
}

// Multi-bit damage (2–8 independent flips per trial) can in principle fool
// a CRC; these fixed seeds prove no collision occurs on these frames — a
// failure would be a replayable test case, not a flake.
TEST(WireFuzz, SeededMultiBitFlipsAreAllRejected) {
  std::uint64_t salt = 0;
  for (const CorpusEntry& entry : corpus()) {
    Rng rng(0xf1a9'0010 + salt++);
    for (int trial = 0; trial < 256; ++trial) {
      std::vector<std::uint8_t> bytes = entry.bytes;
      const int flips = 2 + static_cast<int>(rng.below(7));
      for (int f = 0; f < flips; ++f) {
        const std::size_t byte = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(bytes.size())));
        bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      try {
        decodeMessage(bytes);
        // All flips may have cancelled out (same byte+bit hit twice): only
        // a byte-identical buffer is allowed to decode.
        EXPECT_EQ(bytes, entry.bytes)
            << entry.name << " trial " << trial
            << ": damaged frame decoded successfully";
      } catch (const CorruptDataError& error) {
        expectByteOffsetError(error, bytes.size());
      }
    }
  }
}

// --- Header-level rejections the socket layer depends on --------------------

TEST(WireFuzz, FutureProtocolVersionIsRejectedAtTheVersionOffset) {
  persist::Encoder payload;
  payload.u8(static_cast<std::uint8_t>(MsgType::Hello));
  payload.u32(kWireVersion + 1);
  const std::vector<std::uint8_t> frame =
      persist::frame(kWireMagic, kWireVersion + 1, payload.buffer());
  try {
    decodeMessage(frame);
    FAIL() << "future-version frame decoded successfully";
  } catch (const CorruptDataError& error) {
    EXPECT_EQ(error.offset(), 4u);
    expectByteOffsetError(error, frame.size());
  }
}

TEST(WireFuzz, VersionZeroIsRejected) {
  persist::Encoder payload;
  payload.u8(static_cast<std::uint8_t>(MsgType::Hello));
  payload.u32(kWireVersion);
  const std::vector<std::uint8_t> frame =
      persist::frame(kWireMagic, 0, payload.buffer());
  EXPECT_THROW(decodeMessage(frame), CorruptDataError);
}

TEST(WireFuzz, OversizedPayloadIsRejected) {
  // A structurally valid frame whose payload exceeds the wire bound: the
  // persist layer accepts it (CRC and length check out), the wire layer must
  // still refuse — the bound is what lets the socket reader reject a lying
  // length header before allocating.
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(kMaxFramePayload) + 1, 0);
  payload[0] = static_cast<std::uint8_t>(MsgType::Shutdown);
  const std::vector<std::uint8_t> frame =
      persist::frame(kWireMagic, kWireVersion, payload);
  try {
    decodeMessage(frame);
    FAIL() << "oversized frame decoded successfully";
  } catch (const CorruptDataError& error) {
    EXPECT_NE(std::string(error.what()).find("oversized"), std::string::npos);
    expectByteOffsetError(error, frame.size());
  }
}

// Malformed *payloads* wrapped in perfectly valid frames: the tag and body
// validators (enum ranges, count bounds, presence flags, trailing bytes)
// must reject what the CRC cannot.
TEST(WireFuzz, ValidlyFramedGarbagePayloadsAreRejected) {
  const auto framed = [](const std::vector<std::uint8_t>& payload) {
    return persist::frame(kWireMagic, kWireVersion, payload);
  };
  // Unknown tag (0 and out-of-range).
  EXPECT_THROW(decodeMessage(framed({0x00})), CorruptDataError);
  EXPECT_THROW(decodeMessage(framed({0x7f})), CorruptDataError);
  // Empty payload: no tag at all.
  EXPECT_THROW(decodeMessage(framed({})), CorruptDataError);
  // Hello with trailing bytes after the message.
  {
    persist::Encoder payload;
    payload.u8(static_cast<std::uint8_t>(MsgType::Hello));
    payload.u32(kWireVersion);
    payload.u8(0xab);
    EXPECT_THROW(decodeMessage(framed(payload.buffer())), CorruptDataError);
  }
  // HelloReply announcing more components than the payload holds.
  {
    persist::Encoder payload;
    payload.u8(static_cast<std::uint8_t>(MsgType::HelloReply));
    payload.u32(kWireVersion);
    payload.u32(1);
    payload.u64(0);
    payload.u64(1u << 30);  // component count
    EXPECT_THROW(decodeMessage(framed(payload.buffer())), CorruptDataError);
  }
  // AnalyzeBatchReply with an out-of-range presence flag.
  {
    persist::Encoder payload;
    payload.u8(static_cast<std::uint8_t>(MsgType::AnalyzeBatchReply));
    payload.u8(0);       // status Ok
    payload.f64(0.0);    // latency
    payload.u64(1);      // one slot
    payload.u8(2);       // presence flag must be 0/1
    EXPECT_THROW(decodeMessage(framed(payload.buffer())), CorruptDataError);
  }
  // IngestRequest announcing more batched samples than the payload holds.
  {
    persist::Encoder payload;
    payload.u8(static_cast<std::uint8_t>(MsgType::IngestRequest));
    payload.u32(0);
    payload.i64(0);
    payload.f64(0.0);
    for (std::size_t i = 0; i < kMetricCount; ++i) payload.f64(0.0);
    payload.u64(1u << 30);  // batched sample count
    EXPECT_THROW(decodeMessage(framed(payload.buffer())), CorruptDataError);
  }
  // IngestReply with an out-of-range status.
  {
    persist::Encoder payload;
    payload.u8(static_cast<std::uint8_t>(MsgType::IngestReply));
    payload.u8(17);
    payload.f64(0.0);
    EXPECT_THROW(decodeMessage(framed(payload.buffer())), CorruptDataError);
  }
}

}  // namespace
}  // namespace fchain::runtime::wire
