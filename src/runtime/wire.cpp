#include "runtime/wire.h"

#include <algorithm>
#include <utility>

#include "persist/codec.h"

namespace fchain::runtime::wire {
namespace {

using persist::Decoder;
using persist::Encoder;

/// One batched ingest sample on the wire: u32 component | i64 t | the
/// metric doubles.
constexpr std::size_t kSampleRecordBytes = 4 + 8 + 8 * kMetricCount;

/// Starts a message in one buffer: a blank frame header, then the type
/// byte, with room for `body_capacity` body bytes behind them.
Encoder beginMessage(MsgType type, std::size_t body_capacity = 0) {
  Encoder message = persist::beginFrame(1 + body_capacity);
  message.u8(static_cast<std::uint8_t>(type));
  return message;
}

std::vector<std::uint8_t> sealMessage(Encoder message) {
  return persist::sealFrame(std::move(message), kWireMagic, kWireVersion);
}

void encodeComponents(Encoder& e, const std::vector<ComponentId>& ids) {
  e.u64(ids.size());
  for (ComponentId id : ids) e.u32(id);
}

std::vector<ComponentId> decodeComponents(Decoder& d) {
  const std::uint64_t n = d.u64();
  if (n > d.remaining() / sizeof(std::uint32_t)) {
    d.fail("component count exceeds remaining bytes");
  }
  std::vector<ComponentId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(d.u32());
  return ids;
}

EndpointStatus decodeStatus(Decoder& d) {
  const std::uint8_t raw = d.u8();
  if (raw > static_cast<std::uint8_t>(EndpointStatus::Unavailable)) {
    d.fail("endpoint status out of range");
  }
  return static_cast<EndpointStatus>(raw);
}

Trend decodeTrend(Decoder& d) {
  const std::uint8_t raw = d.u8();
  if (raw > static_cast<std::uint8_t>(Trend::Flat)) {
    d.fail("trend out of range");
  }
  return static_cast<Trend>(raw);
}

void encodeFinding(Encoder& e, const core::ComponentFinding& finding) {
  e.u32(finding.component);
  e.i64(finding.onset);
  e.u8(static_cast<std::uint8_t>(finding.trend));
  e.u64(finding.metrics.size());
  for (const core::MetricFinding& m : finding.metrics) {
    e.u8(static_cast<std::uint8_t>(m.metric));
    e.i64(m.onset);
    e.i64(m.change_point);
    e.u8(static_cast<std::uint8_t>(m.trend));
    e.f64(m.prediction_error);
    e.f64(m.expected_error);
  }
}

core::ComponentFinding decodeFinding(Decoder& d) {
  core::ComponentFinding finding;
  finding.component = d.u32();
  finding.onset = d.i64();
  finding.trend = decodeTrend(d);
  const std::uint64_t metrics = d.u64();
  // Each metric finding is at least 1+8+8+1+8+8 = 34 bytes.
  if (metrics > d.remaining() / 34) {
    d.fail("metric finding count exceeds remaining bytes");
  }
  finding.metrics.reserve(static_cast<std::size_t>(metrics));
  for (std::uint64_t i = 0; i < metrics; ++i) {
    core::MetricFinding m;
    const std::uint8_t kind = d.u8();
    if (kind >= kMetricCount) d.fail("metric kind out of range");
    m.metric = static_cast<MetricKind>(kind);
    m.onset = d.i64();
    m.change_point = d.i64();
    m.trend = decodeTrend(d);
    m.prediction_error = d.f64();
    m.expected_error = d.f64();
    finding.metrics.push_back(m);
  }
  return finding;
}

Message decodeBody(MsgType type, Decoder& d) {
  switch (type) {
    case MsgType::Hello: {
      Hello msg;
      msg.protocol_version = d.u32();
      return msg;
    }
    case MsgType::HelloReply: {
      HelloReply msg;
      msg.protocol_version = d.u32();
      msg.host = d.u32();
      msg.identity_hash = d.u64();
      msg.components = decodeComponents(d);
      return msg;
    }
    case MsgType::AnalyzeBatchRequest: {
      AnalyzeBatchRequest msg;
      msg.components = decodeComponents(d);
      msg.violation_time = d.i64();
      msg.deadline_ms = d.f64();
      return msg;
    }
    case MsgType::AnalyzeBatchReply: {
      AnalyzeBatchReply msg;
      msg.status = decodeStatus(d);
      msg.latency_ms = d.f64();
      const std::uint64_t slots = d.u64();
      // Each slot is at least its 1-byte presence flag.
      if (slots > d.remaining()) d.fail("finding count exceeds remaining bytes");
      msg.findings.reserve(static_cast<std::size_t>(slots));
      for (std::uint64_t i = 0; i < slots; ++i) {
        const std::uint8_t has = d.u8();
        if (has > 1) d.fail("finding presence flag out of range");
        if (has == 1) {
          msg.findings.push_back(decodeFinding(d));
        } else {
          msg.findings.push_back(std::nullopt);
        }
      }
      return msg;
    }
    case MsgType::IngestRequest: {
      IngestRequest msg;
      msg.component = d.u32();
      msg.t = d.i64();
      msg.deadline_ms = d.f64();
      for (std::size_t i = 0; i < kMetricCount; ++i) msg.sample[i] = d.f64();
      const std::uint64_t more = d.u64();
      if (more > d.remaining() / kSampleRecordBytes) {
        d.fail("ingest sample count exceeds remaining bytes");
      }
      msg.more.resize(static_cast<std::size_t>(more));
      for (persist::SampleRecord& record : msg.more) {
        record.component = d.u32();
        record.t = d.i64();
        for (double& v : record.sample) v = d.f64();
      }
      return msg;
    }
    case MsgType::IngestReply: {
      IngestReply msg;
      msg.status = decodeStatus(d);
      msg.latency_ms = d.f64();
      return msg;
    }
    case MsgType::ListComponentsRequest:
      return ListComponentsRequest{};
    case MsgType::ListComponentsReply: {
      ComponentListReply msg;
      msg.status = decodeStatus(d);
      msg.components = decodeComponents(d);
      return msg;
    }
    case MsgType::Error: {
      WireError msg;
      const std::uint32_t code = d.u32();
      if (code < static_cast<std::uint32_t>(ErrorCode::VersionMismatch) ||
          code > static_cast<std::uint32_t>(ErrorCode::ShuttingDown)) {
        d.fail("error code out of range");
      }
      msg.code = static_cast<ErrorCode>(code);
      const std::uint64_t len = d.u64();
      if (len > d.remaining()) d.fail("error message exceeds remaining bytes");
      msg.message.reserve(static_cast<std::size_t>(len));
      for (std::uint64_t i = 0; i < len; ++i) {
        msg.message.push_back(static_cast<char>(d.u8()));
      }
      return msg;
    }
    case MsgType::Shutdown:
      return Shutdown{};
  }
  d.fail("unknown message type");
}

}  // namespace

std::uint64_t slaveIdentityHash(HostId host,
                                std::vector<ComponentId> components) {
  std::sort(components.begin(), components.end());
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (v >> shift) & 0xffu;
      hash *= 0x100000001b3ull;  // FNV prime
    }
  };
  mix(host);
  for (ComponentId id : components) mix(id);
  return hash;
}

std::vector<std::uint8_t> encodeHello(const Hello& msg) {
  Encoder body = beginMessage(MsgType::Hello);
  body.u32(msg.protocol_version);
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeHelloReply(const HelloReply& msg) {
  Encoder body = beginMessage(MsgType::HelloReply);
  body.u32(msg.protocol_version);
  body.u32(msg.host);
  body.u64(msg.identity_hash);
  encodeComponents(body, msg.components);
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeAnalyzeBatchRequest(
    const AnalyzeBatchRequest& msg) {
  Encoder body = beginMessage(MsgType::AnalyzeBatchRequest);
  encodeComponents(body, msg.components);
  body.i64(msg.violation_time);
  body.f64(msg.deadline_ms);
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeAnalyzeBatchReply(
    const AnalyzeBatchReply& msg) {
  Encoder body = beginMessage(MsgType::AnalyzeBatchReply);
  body.u8(static_cast<std::uint8_t>(msg.status));
  body.f64(msg.latency_ms);
  body.u64(msg.findings.size());
  for (const std::optional<core::ComponentFinding>& slot : msg.findings) {
    body.u8(slot.has_value() ? 1 : 0);
    if (slot.has_value()) encodeFinding(body, *slot);
  }
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeIngestRequest(const IngestRequest& msg) {
  Encoder body = beginMessage(
      MsgType::IngestRequest,
      kSampleRecordBytes + 8 + 8 + msg.more.size() * kSampleRecordBytes);
  body.u32(msg.component);
  body.i64(msg.t);
  body.f64(msg.deadline_ms);
  for (double v : msg.sample) body.f64(v);
  body.u64(msg.more.size());
  for (const persist::SampleRecord& record : msg.more) {
    body.u32(record.component);
    body.i64(record.t);
    for (double v : record.sample) body.f64(v);
  }
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeIngestReply(const IngestReply& msg) {
  Encoder body = beginMessage(MsgType::IngestReply, 1 + 8);
  body.u8(static_cast<std::uint8_t>(msg.status));
  body.f64(msg.latency_ms);
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeListComponentsRequest() {
  return sealMessage(beginMessage(MsgType::ListComponentsRequest));
}

std::vector<std::uint8_t> encodeListComponentsReply(
    const ComponentListReply& msg) {
  Encoder body = beginMessage(MsgType::ListComponentsReply);
  body.u8(static_cast<std::uint8_t>(msg.status));
  encodeComponents(body, msg.components);
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeError(const WireError& msg) {
  Encoder body = beginMessage(MsgType::Error);
  body.u32(static_cast<std::uint32_t>(msg.code));
  body.u64(msg.message.size());
  for (char c : msg.message) body.u8(static_cast<std::uint8_t>(c));
  return sealMessage(std::move(body));
}

std::vector<std::uint8_t> encodeShutdown() {
  return sealMessage(beginMessage(MsgType::Shutdown));
}

Message decodeMessage(std::span<const std::uint8_t> frame_bytes) {
  const persist::FrameView view =
      persist::unframe(frame_bytes, kWireMagic, kWireVersion);
  if (view.payload.size() > kMaxFramePayload) {
    throw persist::CorruptDataError("oversized wire frame payload",
                                    /*offset=*/8);
  }
  return decodePayload(view.payload);
}

Message decodePayload(std::span<const std::uint8_t> payload) {
  Decoder d(payload);
  const std::uint8_t raw = d.u8();
  if (raw < static_cast<std::uint8_t>(MsgType::Hello) ||
      raw > static_cast<std::uint8_t>(MsgType::Shutdown)) {
    d.fail("unknown wire message type");
  }
  Message message = decodeBody(static_cast<MsgType>(raw), d);
  if (!d.done()) d.fail("trailing bytes after wire message");
  return message;
}

}  // namespace fchain::runtime::wire
