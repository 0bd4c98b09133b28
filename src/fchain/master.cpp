#include "fchain/master.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "runtime/worker_pool.h"

namespace fchain::core {

namespace {

using runtime::EndpointStatus;
using runtime::HealthState;

/// Salt stream for discovery-time backoff; keeps discovery retries on their
/// own deterministic jitter sequence, distinct from analysis retries.
constexpr std::uint64_t kDiscoverySalt = 0xd15c0ull;

}  // namespace

FChainMaster::FChainMaster(FChainConfig config, runtime::RetryPolicy retry)
    : config_(config), retry_(retry), pinpointer_(config) {}

FChainMaster::~FChainMaster() = default;

void FChainMaster::addEndpoint(
    const void* identity, std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components,
    runtime::EndpointHealth health) {
  std::set<ComponentId> claimed;
  for (ComponentId id : components) {
    if (routes_.contains(id) || !claimed.insert(id).second) {
      throw std::invalid_argument(
          "component " + std::to_string(id) +
          " is already monitored by another registered slave");
    }
  }
  registered_.insert(identity);
  for (ComponentId id : components) routes_.emplace(id, endpoints_.size());
  endpoints_.push_back(
      {std::move(endpoint), health, std::make_unique<std::mutex>()});
}

void FChainMaster::registerSlave(FChainSlave* slave) {
  if (slave == nullptr) {
    throw std::invalid_argument("cannot register a null slave");
  }
  if (registered_.contains(slave)) {
    throw std::invalid_argument("slave registered twice");
  }
  addEndpoint(slave, std::make_shared<runtime::LocalEndpoint>(slave),
              slave->components(),
              runtime::EndpointHealth(retry_.degraded_after,
                                      retry_.down_after));
}

void FChainMaster::registerEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint) {
  if (endpoint == nullptr) {
    throw std::invalid_argument("cannot register a null endpoint");
  }
  if (registered_.contains(endpoint.get())) {
    throw std::invalid_argument("endpoint registered twice");
  }
  // Discovery goes through the same retry/health/stats machinery as the
  // analysis path: attempts are counted, retries are paced by the backoff
  // schedule, and the failure history carries into the endpoint's initial
  // health — a flaky slave no longer gets hammered invisibly.
  runtime::EndpointHealth health(retry_.degraded_after, retry_.down_after);
  MasterRuntimeStats local;
  runtime::ComponentListReply reply;
  const int attempts = std::max(1, retry_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    ++local.requests;
    if (attempt > 0) {
      ++local.retries;
      local.simulated_backoff_ms += runtime::retryDelayMs(
          retry_, attempt - 1,
          mixSeed(kDiscoverySalt, static_cast<std::uint64_t>(endpoints_.size()),
                  static_cast<std::uint64_t>(attempt)));
    }
    reply = endpoint->listComponents();
    if (reply.status == EndpointStatus::Ok) {
      health.recordSuccess();
      break;
    }
    health.recordFailure();
  }
  if (reply.status != EndpointStatus::Ok) {
    ++local.failures;
    mergeStats(local);
    throw std::runtime_error(
        std::string("slave discovery failed after retries: ") +
        std::string(runtime::endpointStatusName(reply.status)));
  }
  mergeStats(local);
  const void* identity = endpoint.get();
  addEndpoint(identity, std::move(endpoint), reply.components, health);
}

void FChainMaster::registerEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  if (endpoint == nullptr) {
    throw std::invalid_argument("cannot register a null endpoint");
  }
  if (registered_.contains(endpoint.get())) {
    throw std::invalid_argument("endpoint registered twice");
  }
  const void* identity = endpoint.get();
  addEndpoint(identity, std::move(endpoint), components,
              runtime::EndpointHealth(retry_.degraded_after,
                                      retry_.down_after));
}

void FChainMaster::setWorkerThreads(int threads) {
  pool_ = threads >= 1 ? std::make_unique<runtime::WorkerPool>(threads)
                       : nullptr;
}

void FChainMaster::recordOutcome(Endpoint& ep, bool ok) {
  const HealthState before = ep.health.state();
  if (ok) {
    ep.health.recordSuccess();
  } else {
    ep.health.recordFailure();
  }
  const HealthState after = ep.health.state();
  if (after == before) return;
  switch (after) {
    case HealthState::Healthy: metric_state_healthy_.add(1); break;
    case HealthState::Degraded: metric_state_degraded_.add(1); break;
    case HealthState::Down: metric_state_down_.add(1); break;
  }
}

std::vector<HealthState> FChainMaster::endpointHealth() const {
  std::vector<HealthState> states;
  states.reserve(endpoints_.size());
  for (const Endpoint& ep : endpoints_) states.push_back(ep.health.state());
  return states;
}

void FChainMaster::mergeStats(const MasterRuntimeStats& delta) {
  metric_requests_.add(delta.requests);
  metric_retries_.add(delta.retries);
  metric_failures_.add(delta.failures);
  metric_backoff_ms_.add(delta.simulated_backoff_ms);
}

PinpointResult FChainMaster::localize(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  FCHAIN_SPAN_VAR(span, "master.localize");
  span.arg("components", static_cast<std::int64_t>(components.size()));
  // Journal the localization's *input* before any work: a crash anywhere
  // below leaves a pending entry that rerunPendingIncidents() can re-run.
  std::uint64_t incident_id = 0;
  if (incident_journal_ != nullptr) {
    incident_id = incident_journal_->logStart(components, violation_time);
  }
  const std::uint64_t start_us = obs::tracer().now();
  PinpointResult result = localizeBatches(components, violation_time);
  // Guarded difference: an injected logical clock may not be monotonic.
  const std::uint64_t end_us = obs::tracer().now();
  metric_localize_ms_.observe(
      end_us >= start_us ? static_cast<double>(end_us - start_us) / 1000.0
                         : 0.0);
  if (incident_journal_ != nullptr) incident_journal_->logDone(incident_id);
  return result;
}

void FChainMaster::runBatchJob(BatchJob& job, TimeSec violation_time) {
  FCHAIN_SPAN_VAR(span, "master.batch");
  span.arg("n", static_cast<std::int64_t>(job.ids.size()));
  Endpoint& ep = endpoints_[job.endpoint_index];
  // Hold the endpoint for the whole retry sequence: requests to one slave
  // stay strictly ordered even when other localize() calls run in parallel.
  // A slave that never answers is bounded by the transport: each request
  // carries retry_.request_deadline_ms, and a Down endpoint gets one attempt.
  const std::lock_guard<std::mutex> endpoint_lock(*ep.lock);
  const int attempts = ep.health.state() == HealthState::Down
                           ? 1
                           : std::max(1, retry_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    runtime::AnalyzeBatchRequest request;
    request.components = job.ids;
    request.violation_time = violation_time;
    request.deadline_ms = retry_.request_deadline_ms;
    ++job.stats.requests;
    if (attempt > 0) {
      ++job.stats.retries;
      // The batch's backoff is salted by its first component so the jitter
      // sequence stays deterministic in (violation_time, routing), never in
      // scheduling.
      job.stats.simulated_backoff_ms += runtime::retryDelayMs(
          retry_, attempt - 1,
          mixSeed(static_cast<std::uint64_t>(violation_time), job.ids.front(),
                  static_cast<std::uint64_t>(attempt)));
    }
    runtime::AnalyzeBatchReply reply = ep.endpoint->analyzeBatch(request);
    if (reply.status == EndpointStatus::Ok &&
        reply.findings.size() == job.ids.size()) {
      recordOutcome(ep, true);
      job.findings = std::move(reply.findings);
      job.answered = true;
      return;
    }
    recordOutcome(ep, false);
  }
  job.stats.failures += job.ids.size();
}

PinpointResult FChainMaster::localizeBatches(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  // Group components by slave, preserving caller order within each group:
  // one batch job per endpoint that monitors anything in this application.
  std::vector<BatchJob> jobs;
  std::map<std::size_t, std::size_t> job_of_endpoint;
  std::vector<ComponentId> unrouted;
  for (ComponentId id : components) {
    const auto route = routes_.find(id);
    if (route == routes_.end()) {
      unrouted.push_back(id);
      continue;
    }
    const auto [it, inserted] =
        job_of_endpoint.emplace(route->second, jobs.size());
    if (inserted) {
      jobs.emplace_back();
      jobs.back().endpoint_index = route->second;
    }
    jobs[it->second].ids.push_back(id);
  }

  {
    FCHAIN_SPAN_VAR(fanout, "master.fanout");
    fanout.arg("jobs", static_cast<std::int64_t>(jobs.size()));
    if (pool_ == nullptr) {
      for (BatchJob& job : jobs) runBatchJob(job, violation_time);
    } else {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(jobs.size());
      for (BatchJob& job : jobs) {
        tasks.push_back(
            [this, &job, violation_time] { runBatchJob(job, violation_time); });
      }
      pool_->run(std::move(tasks));
      // The fan-out is a barrier, so the pool queue must be empty again;
      // recording the gauge (instead of asserting) keeps a leak visible in a
      // metric snapshot even in release builds.
      metric_pool_pending_.set(static_cast<double>(pool_->pendingCount()));
    }
  }

  FCHAIN_SPAN("master.merge");
  // Deterministic merge: walk the caller's component order and pull each
  // result from its job slot, so findings keep the caller's order at any
  // thread count. Stats merge job-by-job in first-appearance order so even
  // the floating-point backoff sum is schedule-independent.
  std::map<ComponentId, const std::optional<ComponentFinding>*> slot_of;
  for (const BatchJob& job : jobs) {
    if (!job.answered) continue;
    for (std::size_t i = 0; i < job.ids.size(); ++i) {
      slot_of.emplace(job.ids[i], &job.findings[i]);
    }
  }
  std::vector<ComponentFinding> findings;
  std::vector<ComponentId> unanalyzed = std::move(unrouted);
  std::size_t analyzed = 0;
  for (ComponentId id : components) {
    const auto route = routes_.find(id);
    if (route == routes_.end()) continue;  // already in unanalyzed
    const auto slot = slot_of.find(id);
    if (slot == slot_of.end()) {
      unanalyzed.push_back(id);
      continue;
    }
    ++analyzed;
    if (slot->second->has_value()) findings.push_back(**slot->second);
  }
  for (const BatchJob& job : jobs) mergeStats(job.stats);

  PinpointResult result = pinpointer_.pinpoint(
      std::move(findings), components.size(), &dependencies_, analyzed);
  std::sort(unanalyzed.begin(), unanalyzed.end());
  result.unanalyzed = std::move(unanalyzed);
  return result;
}

}  // namespace fchain::core
