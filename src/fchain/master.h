// FChain master (paper Fig. 1): runs on a dedicated server. When the SLO
// monitor reports a performance anomaly at time tv, the master fans the
// analysis request out to the slaves hosting the failing application's VMs,
// collects their abnormal-change findings, and runs integrated pinpointing
// against the (offline-discovered) dependency graph. The online validation
// pass (fchain/validation.h) runs on the result, where a caller has a
// simulation snapshot to validate against.
//
// Slaves are reached through the runtime::SlaveEndpoint seam, so the master
// survives an unreliable monitoring plane: every analysis request carries a
// deadline, a failed one is retried at once up to
// runtime::RetryPolicy::max_attempts times, each endpoint's health is
// tracked across requests (healthy -> degraded -> down; down endpoints get
// a single attempt instead of the full retry budget), and localization
// proceeds from whatever findings arrive — PinpointResult::coverage reports
// how much of the application was actually analyzed instead of silently
// pretending full coverage. runBatchJob() is the only code that retries a
// request to a slave: a runtime::SocketEndpoint call makes at most one
// connect and one handshake, and nothing sleeps between attempts.
//
// Every slave is registered with the components it monitors:
// registerSlave() reads them from an in-process slave, registerEndpoint()
// takes them from the caller (a deployment manifest, or the handshake's
// claims through connectSlave()). The master sends no discovery request.
//
// Localization groups the components by their slave and gives each slave
// ONE batched request covering all its components
// (runtime::AnalyzeBatchRequest). The per-slave batch jobs run on a
// fixed-size runtime::WorkerPool when worker threads >= 1, or one after
// another on the calling thread when it is 0; either way it is the same
// job. A per-endpoint mutex serializes requests to any one endpoint
// (FlakyEndpoint's request counter and health accounting stay exact), and
// results merge deterministically in caller component order — so the
// PinpointResult is bit-identical at every thread count.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "fchain/pinpoint.h"
#include "fchain/slave.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "runtime/endpoint.h"
#include "runtime/health.h"

namespace fchain::runtime {
class WorkerPool;
}  // namespace fchain::runtime

namespace fchain::core {

/// Transport bookkeeping of one slave batch job: a request is one
/// transport round-trip, one per attempt. The job fills it privately and
/// mergeStats() adds it to the master's obs::MetricRegistry once the job is
/// done; callers read the registry (see metrics()).
struct MasterRuntimeStats {
  std::size_t requests = 0;   ///< analysis attempts issued (incl. retries)
  std::size_t retries = 0;    ///< attempts beyond the first per request
  std::size_t failures = 0;   ///< components whose retry budget ran out
};

/// What the online monitor hands a latched incident to: a single
/// FChainMaster or the sharded fleet::FleetMaster. The monitor registers
/// each slave's transport here, installs the application's dependency graph
/// before each fan-out, and keeps its own instruments in this tier's
/// registry. Nothing owns a tier through this interface, so its destructor
/// is protected.
class LocalizationTier {
 public:
  /// Registers a slave behind `endpoint`, which monitors `components`.
  virtual void registerEndpoint(
      std::shared_ptr<runtime::SlaveEndpoint> endpoint,
      const std::vector<ComponentId>& components) = 0;
  /// Dependency graph (global id space) used by the next localizations.
  virtual void setDependencies(netdep::DependencyGraph graph) = 0;
  /// Localizes the fault for the application made of `components`.
  virtual PinpointResult localize(const std::vector<ComponentId>& components,
                                  TimeSec violation_time) = 0;
  /// The tier's metric registry.
  virtual obs::MetricRegistry& metrics() = 0;

 protected:
  ~LocalizationTier() = default;
};

class FChainMaster final : public LocalizationTier {
 public:
  explicit FChainMaster(FChainConfig config = {},
                        runtime::RetryPolicy retry = {});
  ~FChainMaster();

  /// Registers an in-process slave (wrapped in a runtime::LocalEndpoint);
  /// the data stays on the slave's host and the slave must outlive the
  /// master. Register the slave's components first: the routing table is
  /// built here. Throws std::invalid_argument when the same slave is
  /// registered twice or a component is already claimed by another slave.
  void registerSlave(FChainSlave* slave);

  /// Registers a slave behind an arbitrary transport under the components
  /// it monitors (a deployment manifest, or the handshake's claims through
  /// connectSlave()). Throws std::invalid_argument on a null or repeated
  /// endpoint or a component another slave already claims.
  void registerEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                        const std::vector<ComponentId>& components) override;

  /// Supplies the offline-discovered dependency graph (may be empty — e.g.
  /// for stream processing systems, where discovery finds nothing).
  void setDependencies(netdep::DependencyGraph graph) override {
    dependencies_ = std::move(graph);
  }

  /// Attaches the master's incident journal (nullptr detaches; not owned,
  /// must outlive the master). Every localize() records its input to the
  /// journal before fan-out and marks it done afterwards, so a master crash
  /// mid-localization leaves a pending entry that rerunPendingIncidents()
  /// (fchain/recovery.h) can re-run after restart.
  void setIncidentJournal(persist::IncidentJournal* journal) {
    incident_journal_ = journal;
  }

  /// Sizes the localization fan-out pool. 0 (the default) runs the
  /// per-slave batch jobs inline on the calling thread, in caller order;
  /// n >= 1 runs them on n pool threads. Builds (or drops) the pool here, so
  /// localize() only reads it; do not call concurrently with localize().
  void setWorkerThreads(int threads);

  /// Health of every registered endpoint, in registration order.
  std::vector<runtime::HealthState> endpointHealth() const;

  /// This master's metric registry. Registry metric names:
  ///   master.requests / master.retries / master.failures   (counters)
  ///   master.endpoint_state.healthy / .degraded / .down
  ///                          (counters: health-state *transitions* into
  ///                           each state, across all endpoints)
  ///   master.pool_pending    (gauge: worker-pool queue depth after the
  ///                           fan-out drains — 0 unless something leaked)
  ///   master.localize_ms     (histogram: end-to-end localize wall-clock)
  obs::MetricRegistry& metrics() override { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// Localizes the fault for the application made of `components`. Degraded
  /// mode: components whose slave never answers are reported in
  /// PinpointResult::unanalyzed and the result's coverage drops below 1.
  /// Mutates transport bookkeeping (endpoint health, runtime stats) — the
  /// seed's `const localize` quietly did the same through mutable members.
  /// Safe to call from multiple threads concurrently: per-endpoint mutexes
  /// serialize transport access and stats land in lock-free registry
  /// atomics. When the global obs tracer is enabled, the call emits
  /// master / worker-pool / slave / signal-kernel spans.
  PinpointResult localize(const std::vector<ComponentId>& components,
                          TimeSec violation_time) override;

 private:
  struct Endpoint {
    std::shared_ptr<runtime::SlaveEndpoint> endpoint;
    runtime::EndpointHealth health;
    /// Serializes requests to this endpoint across pool workers and across
    /// concurrent localize() calls (heap-held so endpoints_ can grow).
    std::unique_ptr<std::mutex> lock;
  };

  /// One per-slave unit of the fan-out.
  struct BatchJob {
    std::size_t endpoint_index = 0;
    std::vector<ComponentId> ids;  ///< caller order, this slave's subset
    std::vector<std::optional<ComponentFinding>> findings;  ///< aligned
    bool answered = false;
    MasterRuntimeStats stats;  ///< merged by the coordinator afterwards
  };

  /// Adds the endpoint under the given component routes (shared tail of
  /// both register paths) and records `identity` as registered. Every claim
  /// is checked before anything is recorded, so a refused registration
  /// leaves no trace.
  void addEndpoint(const void* identity,
                   std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components);

  /// Groups `components` by slave and runs one batch job per slave.
  PinpointResult localizeBatches(const std::vector<ComponentId>& components,
                                 TimeSec violation_time);
  /// Issues one batch (with retries) to the job's endpoint, on a pool worker
  /// or, without a pool, on the caller, holding the endpoint's mutex for the
  /// whole retry sequence.
  void runBatchJob(BatchJob& job, TimeSec violation_time);
  void mergeStats(const MasterRuntimeStats& delta);
  /// Records a request outcome on the endpoint's health and bumps the
  /// endpoint_state transition counter when the state changed.
  void recordOutcome(Endpoint& ep, bool ok);

  FChainConfig config_;
  runtime::RetryPolicy retry_;
  IntegratedPinpointer pinpointer_;
  std::vector<Endpoint> endpoints_;
  /// Registry-backed runtime metrics. The instrument references are
  /// registered once here (registry_ must be declared first); hot-path
  /// updates are lock-free atomics, so no stats mutex is needed anymore.
  obs::MetricRegistry registry_;
  obs::Counter& metric_requests_ = registry_.counter("master.requests");
  obs::Counter& metric_retries_ = registry_.counter("master.retries");
  obs::Counter& metric_failures_ = registry_.counter("master.failures");
  obs::Counter& metric_state_healthy_ =
      registry_.counter("master.endpoint_state.healthy");
  obs::Counter& metric_state_degraded_ =
      registry_.counter("master.endpoint_state.degraded");
  obs::Counter& metric_state_down_ =
      registry_.counter("master.endpoint_state.down");
  obs::Gauge& metric_pool_pending_ = registry_.gauge("master.pool_pending");
  obs::Histogram& metric_localize_ms_ = registry_.histogram(
      "master.localize_ms",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
       2000.0, 5000.0, 10000.0});
  std::map<ComponentId, std::size_t> routes_;  ///< component -> endpoint idx
  std::set<const void*> registered_;  ///< raw identity of slaves/endpoints
  netdep::DependencyGraph dependencies_;
  std::unique_ptr<runtime::WorkerPool> pool_;  ///< null = run jobs inline
  persist::IncidentJournal* incident_journal_ = nullptr;  ///< not owned
};

}  // namespace fchain::core
