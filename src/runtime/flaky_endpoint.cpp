#include "runtime/flaky_endpoint.h"

#include <cmath>
#include <limits>

namespace fchain::runtime {

FlakyEndpoint::FlakyEndpoint(std::shared_ptr<SlaveEndpoint> inner,
                             FlakyConfig config)
    : inner_(std::move(inner)), config_(std::move(config)) {}

EndpointStatus FlakyEndpoint::roll(std::uint64_t index, TimeSec now,
                                   double deadline_ms,
                                   double* latency_ms) const {
  if (index < config_.fail_first) return EndpointStatus::Unavailable;
  for (const auto& [from, to] : config_.outage_windows) {
    if (now >= from && now < to) return EndpointStatus::Unavailable;
  }
  Rng rng(mixSeed(config_.seed, 0x41afedull, index));
  if (rng.chance(config_.drop_probability)) return EndpointStatus::Dropped;
  if (rng.chance(config_.timeout_probability)) return EndpointStatus::Timeout;
  // Guarded so the zero-probability default consumes no draw: existing
  // seeded runs stay bit-identical with the torn-reply knob off.
  if (config_.torn_reply_probability > 0.0 &&
      rng.chance(config_.torn_reply_probability)) {
    ++torn_replies_;
    return EndpointStatus::Dropped;
  }
  double latency = config_.latency_mean_ms;
  if (config_.latency_jitter_ms > 0.0) {
    latency = std::max(
        0.0, latency + rng.uniform(-config_.latency_jitter_ms,
                                   config_.latency_jitter_ms));
  }
  if (latency_ms != nullptr) *latency_ms = latency;
  if (deadline_ms > 0.0 && latency > deadline_ms) {
    return EndpointStatus::Timeout;
  }
  return EndpointStatus::Ok;
}

ComponentListReply FlakyEndpoint::listComponents() {
  const std::uint64_t index = requests_++;
  // Discovery happens before any incident, so no sim-time outage applies;
  // drops/cold-start failures still do.
  const EndpointStatus status =
      roll(index, std::numeric_limits<TimeSec>::min(), 0.0, nullptr);
  if (status != EndpointStatus::Ok) return {status, {}};
  return inner_->listComponents();
}

AnalyzeBatchReply FlakyEndpoint::analyzeBatch(
    const AnalyzeBatchRequest& request) {
  const std::uint64_t index = requests_++;
  double latency = 0.0;
  const EndpointStatus status =
      roll(index, request.violation_time, request.deadline_ms, &latency);
  if (status != EndpointStatus::Ok) {
    AnalyzeBatchReply reply;
    reply.status = status;
    return reply;
  }
  AnalyzeBatchReply reply = inner_->analyzeBatch(request);
  reply.latency_ms += latency;
  return reply;
}

IngestReply FlakyEndpoint::ingest(const IngestRequest& request) {
  const std::uint64_t index = requests_++;
  double latency = 0.0;
  // The batch's tick is the transport's "now": outage windows swallow the
  // seconds they cover.
  const EndpointStatus status =
      roll(index, request.t, request.deadline_ms, &latency);
  if (status != EndpointStatus::Ok) return {status, 0.0};
  IngestReply reply = inner_->ingest(request);
  reply.latency_ms += latency;
  return reply;
}

}  // namespace fchain::runtime
