#include "runtime/socket_endpoint.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "persist/codec.h"

namespace fchain::runtime {
namespace {

obs::MetricRegistry& registryOf(const SocketEndpointConfig& config) {
  return config.registry != nullptr ? *config.registry : obs::metrics();
}

}  // namespace

SocketEndpoint::SocketEndpoint(SocketEndpointConfig config)
    : config_(std::move(config)),
      metric_connects_(registryOf(config_).counter("runtime.socket.connects")),
      metric_reconnects_(
          registryOf(config_).counter("runtime.socket.reconnects")),
      metric_frames_tx_(
          registryOf(config_).counter("runtime.socket.frames_tx")),
      metric_frames_rx_(
          registryOf(config_).counter("runtime.socket.frames_rx")),
      metric_crc_errors_(
          registryOf(config_).counter("runtime.socket.crc_errors")),
      metric_torn_frames_(
          registryOf(config_).counter("runtime.socket.torn_frames")) {}

HostId SocketEndpoint::host() const {
  std::lock_guard<std::mutex> g(mutex_);
  return host_;
}

std::uint64_t SocketEndpoint::identity() const {
  std::lock_guard<std::mutex> g(mutex_);
  return identity_;
}

bool SocketEndpoint::connected() const {
  std::lock_guard<std::mutex> g(mutex_);
  return conn_.valid();
}

void SocketEndpoint::disconnect() {
  std::lock_guard<std::mutex> g(mutex_);
  conn_.close();
}

bool SocketEndpoint::ensureConnectedLocked(double io_ms) {
  if (version_rejected_) return false;
  if (conn_.valid()) return true;
  const int attempts = std::max(1, config_.reconnect.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const double delay = retryDelayMs(
          config_.reconnect, attempt - 1,
          mixSeed(0x50c4e7ull, config_.backoff_seed, request_counter_));
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(delay * 1e3)));
    }
    Socket sock =
        Socket::connectTo(config_.address, config_.connect_timeout_ms);
    if (!sock.valid()) continue;

    // Versioned handshake: Hello out, HelloReply (or a rejection) back,
    // each bounded by the request's I/O deadline.
    if (!sock.sendAll(wire::encodeHello({}), io_ms)) continue;
    metric_frames_tx_.add();
    std::vector<std::uint8_t> frame;
    const RecvStatus status = sock.recvFrame(frame, io_ms);
    if (status == RecvStatus::BadVersion) {
      version_rejected_ = true;
      return false;
    }
    if (status != RecvStatus::Ok) {
      if (status == RecvStatus::Torn) metric_torn_frames_.add();
      if (status == RecvStatus::Corrupt) metric_crc_errors_.add();
      continue;
    }
    metric_frames_rx_.add();
    wire::Message message;
    try {
      message = wire::decodeMessage(frame);
    } catch (const persist::CorruptDataError&) {
      metric_crc_errors_.add();
      continue;
    }
    if (const auto* error = std::get_if<wire::WireError>(&message)) {
      if (error->code == wire::ErrorCode::VersionMismatch) {
        version_rejected_ = true;
        return false;
      }
      continue;
    }
    const auto* hello = std::get_if<wire::HelloReply>(&message);
    if (hello == nullptr) continue;
    if (hello->protocol_version != wire::kWireVersion) {
      version_rejected_ = true;
      return false;
    }
    if (identity_ != 0 && hello->identity_hash != identity_) {
      // The address now leads to a different slave (host or claims
      // changed): refuse to adopt it — the master's routing table was
      // built for the slave we originally handshook.
      return false;
    }
    host_ = hello->host;
    identity_ = hello->identity_hash;
    conn_ = std::move(sock);
    metric_connects_.add();
    if (ever_connected_) metric_reconnects_.add();
    ever_connected_ = true;
    return true;
  }
  return false;
}

EndpointStatus SocketEndpoint::roundTripLocked(
    const std::vector<std::uint8_t>& frame, double deadline_ms,
    wire::Message& reply) {
  ++request_counter_;
  const double io = deadline_ms > 0.0 ? deadline_ms : config_.io_timeout_ms;
  if (!ensureConnectedLocked(io)) return EndpointStatus::Unavailable;
  if (!conn_.sendAll(frame, io)) {
    // A send that dies mid-frame leaves the peer a torn request; either way
    // the reply is lost, which is the retryable Dropped case.
    conn_.close();
    return EndpointStatus::Dropped;
  }
  metric_frames_tx_.add();
  std::vector<std::uint8_t> buf;
  const RecvStatus status = conn_.recvFrame(buf, io);
  switch (status) {
    case RecvStatus::Ok:
      break;
    case RecvStatus::Timeout:
      // An abandoned in-flight reply would desync the stream: drop the
      // connection so the retry starts clean.
      conn_.close();
      return EndpointStatus::Timeout;
    case RecvStatus::Torn:
      metric_torn_frames_.add();
      conn_.close();
      return EndpointStatus::Dropped;
    case RecvStatus::Closed:
      conn_.close();
      return EndpointStatus::Dropped;
    case RecvStatus::Corrupt:
      metric_crc_errors_.add();
      conn_.close();
      return EndpointStatus::Dropped;
    case RecvStatus::BadVersion:
      version_rejected_ = true;
      conn_.close();
      return EndpointStatus::Unavailable;
  }
  metric_frames_rx_.add();
  try {
    reply = wire::decodeMessage(buf);
  } catch (const persist::CorruptDataError&) {
    metric_crc_errors_.add();
    conn_.close();
    return EndpointStatus::Dropped;
  }
  if (const auto* error = std::get_if<wire::WireError>(&reply)) {
    if (error->code == wire::ErrorCode::VersionMismatch) {
      version_rejected_ = true;
      conn_.close();
      return EndpointStatus::Unavailable;
    }
    if (error->code == wire::ErrorCode::ShuttingDown) {
      conn_.close();
      return EndpointStatus::Unavailable;
    }
    conn_.close();
    return EndpointStatus::Dropped;
  }
  return EndpointStatus::Ok;
}

ComponentListReply SocketEndpoint::listComponents() {
  std::lock_guard<std::mutex> g(mutex_);
  wire::Message reply;
  const EndpointStatus status = roundTripLocked(
      wire::encodeListComponentsRequest(), config_.io_timeout_ms, reply);
  if (status != EndpointStatus::Ok) return {status, {}};
  const auto* list = std::get_if<ComponentListReply>(&reply);
  if (list == nullptr) {
    conn_.close();
    return {EndpointStatus::Dropped, {}};
  }
  return *list;
}

AnalyzeBatchReply SocketEndpoint::analyzeBatch(
    const AnalyzeBatchRequest& request) {
  std::lock_guard<std::mutex> g(mutex_);
  wire::Message reply;
  const EndpointStatus status = roundTripLocked(
      wire::encodeAnalyzeBatchRequest(request), request.deadline_ms, reply);
  if (status != EndpointStatus::Ok) return {status, {}, 0.0};
  auto* batched = std::get_if<AnalyzeBatchReply>(&reply);
  if (batched == nullptr ||
      (batched->status == EndpointStatus::Ok &&
       batched->findings.size() != request.components.size())) {
    conn_.close();
    return {EndpointStatus::Dropped, {}, 0.0};
  }
  return std::move(*batched);
}

IngestReply SocketEndpoint::ingest(const IngestRequest& request) {
  std::lock_guard<std::mutex> g(mutex_);
  wire::Message reply;
  const EndpointStatus status = roundTripLocked(
      wire::encodeIngestRequest(request), request.deadline_ms, reply);
  if (status != EndpointStatus::Ok) return {status, 0.0};
  const auto* ingested = std::get_if<IngestReply>(&reply);
  if (ingested == nullptr) {
    conn_.close();
    return {EndpointStatus::Dropped, 0.0};
  }
  return *ingested;
}

}  // namespace fchain::runtime
