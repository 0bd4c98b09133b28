#include "fchain/slave_service.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "persist/codec.h"
#include "runtime/wire.h"

namespace fchain::core {
namespace {

namespace wire = runtime::wire;

obs::MetricRegistry& registryOf(const SlaveServiceConfig& config) {
  return config.registry != nullptr ? *config.registry : obs::metrics();
}

}  // namespace

SlaveService::SlaveService(FChainSlave& slave, SlaveServiceConfig config,
                           SlaveCheckpointer* checkpointer)
    : slave_(slave),
      config_(std::move(config)),
      checkpointer_(checkpointer),
      listener_(runtime::Listener::listenOn(config_.listen)),
      metric_connects_(registryOf(config_).counter("runtime.socket.connects")),
      metric_frames_tx_(
          registryOf(config_).counter("runtime.socket.frames_tx")),
      metric_frames_rx_(
          registryOf(config_).counter("runtime.socket.frames_rx")),
      metric_crc_errors_(
          registryOf(config_).counter("runtime.socket.crc_errors")),
      metric_torn_frames_(
          registryOf(config_).counter("runtime.socket.torn_frames")) {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    throw std::runtime_error("SlaveService: cannot create the wake eventfd");
  }
}

SlaveService::~SlaveService() {
  stop();
  ::close(wake_fd_);
}

std::uint64_t SlaveService::identityHash() const {
  return wire::slaveIdentityHash(slave_.host(), slave_.components());
}

void SlaveService::start() {
  stop_.store(false);
  thread_ = std::thread([this] { run(); });
}

void SlaveService::stop() {
  stop_.store(true);
  const std::uint64_t one = 1;
  // Only a counter at its maximum refuses the write, and that still wakes.
  [[maybe_unused]] const ssize_t written = ::write(wake_fd_, &one, sizeof one);
  if (thread_.joinable()) thread_.join();
}

void SlaveService::run() {
  while (!stop_.load()) {
    struct pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {wake_fd_, POLLIN, 0};
    fds[nfds++] = {listener_.fd(), POLLIN, 0};
    if (conn_.valid()) fds[nfds++] = {conn_.fd(), POLLIN, 0};
    if (::poll(fds, nfds, -1) <= 0) continue;
    if (fds[0].revents & POLLIN) {
      // Drain the wake (a stop() that came before this run() leaves one
      // too) and re-check the flag.
      std::uint64_t wakes = 0;
      [[maybe_unused]] const ssize_t drained =
          ::read(wake_fd_, &wakes, sizeof wakes);
      continue;
    }
    if (fds[1].revents & POLLIN) {
      runtime::Socket accepted = listener_.accept(/*timeout_ms=*/100.0);
      if (accepted.valid()) {
        // Newest connection wins: the master reconnecting after a failure
        // supersedes whatever half-dead socket we still hold.
        conn_ = std::move(accepted);
        metric_connects_.add();
      }
    }
    if (nfds > 2 && (fds[2].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      serveConnection();
    }
  }
}

void SlaveService::serveConnection() {
  std::vector<std::uint8_t> frame;
  const runtime::RecvStatus status =
      conn_.recvFrame(frame, config_.io_timeout_ms);
  switch (status) {
    case runtime::RecvStatus::Ok:
      metric_frames_rx_.add();
      if (!handleFrame(frame)) conn_.close();
      return;
    case runtime::RecvStatus::Closed:
      conn_.close();
      return;
    case runtime::RecvStatus::Torn:
      metric_torn_frames_.add();
      conn_.close();
      return;
    case runtime::RecvStatus::Timeout:
      // poll() said readable but a whole frame never arrived: a wedged
      // peer. Drop it; a live master reconnects.
      conn_.close();
      return;
    case runtime::RecvStatus::Corrupt:
      metric_crc_errors_.add();
      reply(wire::encodeError(
          {wire::ErrorCode::BadRequest, "unparseable frame header"}));
      conn_.close();
      return;
    case runtime::RecvStatus::BadVersion:
      reply(wire::encodeError({wire::ErrorCode::VersionMismatch,
                               "server speaks wire protocol version " +
                                   std::to_string(wire::kWireVersion)}));
      conn_.close();
      return;
  }
}

bool SlaveService::reply(const std::vector<std::uint8_t>& frame) {
  if (!conn_.sendAll(frame, config_.io_timeout_ms)) return false;
  metric_frames_tx_.add();
  return true;
}

bool SlaveService::handleFrame(const std::vector<std::uint8_t>& frame) {
  wire::Message message;
  try {
    message = wire::decodeMessage(frame);
  } catch (const persist::CorruptDataError& error) {
    metric_crc_errors_.add();
    reply(wire::encodeError({wire::ErrorCode::BadRequest, error.what()}));
    return false;
  }

  if (const auto* hello = std::get_if<wire::Hello>(&message)) {
    if (hello->protocol_version != wire::kWireVersion) {
      reply(wire::encodeError({wire::ErrorCode::VersionMismatch,
                               "server speaks wire protocol version " +
                                   std::to_string(wire::kWireVersion)}));
      return false;
    }
    wire::HelloReply out;
    out.host = slave_.host();
    out.identity_hash = identityHash();
    out.components = slave_.components();
    return reply(wire::encodeHelloReply(out));
  }
  if (const auto* request = std::get_if<runtime::AnalyzeBatchRequest>(
          &message)) {
    if (config_.analyze_delay_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(config_.analyze_delay_ms * 1e3)));
    }
    runtime::AnalyzeBatchReply out;
    out.status = runtime::EndpointStatus::Ok;
    out.findings =
        slave_.analyzeBatch(request->components, request->violation_time);
    return reply(wire::encodeAnalyzeBatchReply(out));
  }
  if (const auto* request = std::get_if<runtime::IngestRequest>(&message)) {
    if (checkpointer_ != nullptr) {
      std::vector<persist::SampleRecord> batch;
      batch.reserve(request->more.size() + 1);
      request->forEachSample([&batch](const persist::SampleRecord& record) {
        batch.push_back(record);
      });
      checkpointer_->ingestBatch(batch);
    } else {
      request->forEachSample([this](const persist::SampleRecord& record) {
        slave_.ingestAt(record.component, record.t, record.sample);
      });
    }
    runtime::IngestReply out;
    out.status = runtime::EndpointStatus::Ok;
    return reply(wire::encodeIngestReply(out));
  }
  if (std::holds_alternative<wire::ListComponentsRequest>(message)) {
    return reply(wire::encodeListComponentsReply(
        {runtime::EndpointStatus::Ok, slave_.components()}));
  }
  if (std::holds_alternative<wire::Shutdown>(message)) {
    stop_.store(true);
    return false;
  }
  // Server-bound traffic only: HelloReply / *Reply / Error frames arriving
  // here mean the peer lost the plot.
  reply(wire::encodeError(
      {wire::ErrorCode::BadRequest, "unexpected client message"}));
  return false;
}

std::uint64_t connectSlave(FChainMaster& master,
                           runtime::SlaveRegistry& registry,
                           std::shared_ptr<runtime::SocketEndpoint> endpoint) {
  const runtime::ComponentListReply discovered = endpoint->listComponents();
  if (discovered.status != runtime::EndpointStatus::Ok) {
    throw std::runtime_error("slave at " + endpoint->address().str() +
                             " unreachable: " +
                             std::string(runtime::endpointStatusName(
                                 discovered.status)));
  }
  const HostId slave_id = endpoint->host();
  const std::uint64_t identity = endpoint->identity();
  switch (registry.claim(slave_id, identity)) {
    case runtime::SlaveRegistry::Claim::Registered:
    case runtime::SlaveRegistry::Claim::Reregistered:
      break;
    case runtime::SlaveRegistry::Claim::Rejected:
      throw std::invalid_argument(
          "split-brain: slave id " + std::to_string(slave_id) + " at " +
          endpoint->address().str() +
          " presents a different identity hash than the registered claim");
  }
  master.registerEndpoint(endpoint, discovered.components);
  return identity;
}

}  // namespace fchain::core
