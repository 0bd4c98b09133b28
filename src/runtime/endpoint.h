// Master-to-slave transport abstraction (telemetry-fault tolerance layer).
//
// The seed reproduction called FChainSlave methods through raw in-process
// pointers, which bakes the assumption of a perfectly reliable monitoring
// plane into the master. Real clouds lose requests, time out, and take whole
// slaves offline; this module inserts an RPC-shaped seam between
// FChainMaster and FChainSlave so those failure modes become first-class:
//
//   FChainMaster ── SlaveEndpoint (interface) ──┬── LocalEndpoint  (in-process)
//                                               └── FlakyEndpoint  (decorator
//                                                    injecting drops/timeouts/
//                                                    outages; flaky_endpoint.h)
//
// Every request carries a deadline; every reply carries an explicit status
// so the master can retry, back off, and track per-slave health
// (runtime/health.h) instead of silently pretending full coverage.
//
// Layering note: these headers see fchain_core types (ComponentFinding,
// FChainSlave), but the link-level dependency points the other way —
// fchain_core links fchain_runtime, and everything here that touches core
// symbols is header-only so it compiles into its including library.
#pragma once

#include <array>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "fchain/slave.h"
#include "persist/journal.h"

namespace fchain::runtime {

/// Outcome of one request to a slave endpoint.
enum class EndpointStatus : std::uint8_t {
  Ok,           ///< reply received within the deadline
  Timeout,      ///< the slave answered too slowly (deadline exceeded)
  Dropped,      ///< request or response lost in transit
  Unavailable,  ///< slave process down / unreachable (fast failure)
};

inline std::string_view endpointStatusName(EndpointStatus status) {
  switch (status) {
    case EndpointStatus::Ok: return "ok";
    case EndpointStatus::Timeout: return "timeout";
    case EndpointStatus::Dropped: return "dropped";
    case EndpointStatus::Unavailable: return "unavailable";
  }
  return "unknown";
}

/// Analysis of one component's look-back window before `violation_time`;
/// sent as a one-component AnalyzeBatchRequest (see SlaveEndpoint::analyze).
struct AnalyzeRequest {
  ComponentId component = kNoComponent;
  TimeSec violation_time = 0;
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

struct AnalyzeReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Present iff status == Ok *and* the component shows an abnormal change.
  std::optional<core::ComponentFinding> finding;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// The master's analysis RPC: one request per *slave* covering every
/// component it monitors for this localization — a slave hosting k VMs costs
/// one transport round-trip, not k.
struct AnalyzeBatchRequest {
  std::vector<ComponentId> components;
  TimeSec violation_time = 0;
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
};

/// Batch replies are all-or-nothing at the transport level: the batch is a
/// single request, so a drop/timeout/outage loses every component in it
/// (status != Ok, findings empty) and the master retries the batch.
struct AnalyzeBatchReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Aligned with AnalyzeBatchRequest::components; a slot is nullopt when
  /// the component is unknown to the slave or shows no abnormal change.
  std::vector<std::optional<core::ComponentFinding>> findings;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// Reply to the component-discovery RPC issued at registration time.
struct ComponentListReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  std::vector<ComponentId> components;
};

/// Streaming-ingest RPC (online monitoring runtime): a batch of component
/// seconds pushed master-side -> slave-side — the online monitor sends one
/// per slave per tick. The first sample travels in `component`/`t`/`sample`
/// and the rest in `more`; the slave applies them in that order. Leaves
/// walk the batch through forEachSample(), never through the first-sample
/// fields alone. Like analyzeBatch, the batch is one request: a drop,
/// timeout or outage loses all of it, and the reply is one status. Unlike
/// the analysis RPCs ingest is fire-and-forget with no retries — a lost
/// second is repaired by the slave's gap-fill on the next arrival, and
/// re-sending a stale second would only hit the duplicate path.
struct IngestRequest {
  ComponentId component = kNoComponent;
  TimeSec t = 0;
  std::array<double, kMetricCount> sample{};
  /// Per-request deadline in (simulated) milliseconds; 0 disables it.
  double deadline_ms = 0.0;
  /// The samples after the first, in application order.
  std::vector<persist::SampleRecord> more;

  /// Calls `visit(const persist::SampleRecord&)` on every sample of the
  /// batch in application order, the first sample included.
  template <typename Visit>
  void forEachSample(Visit&& visit) const {
    visit(persist::SampleRecord{component, t, sample});
    for (const persist::SampleRecord& record : more) visit(record);
  }
};

struct IngestReply {
  EndpointStatus status = EndpointStatus::Unavailable;
  /// Simulated service latency of this request.
  double latency_ms = 0.0;
};

/// Transport-level handle to one FChain slave. Implementations must be
/// deterministic for reproducible experiments (seeded, no wall clock).
class SlaveEndpoint {
 public:
  virtual ~SlaveEndpoint() = default;

  /// Host the slave runs on (advisory; used for display and outage mapping).
  virtual HostId host() const = 0;

  /// Lists the components this slave monitors.
  virtual ComponentListReply listComponents() = 0;

  /// Runs the abnormal-change analysis for a batch of components in one
  /// round-trip (LocalEndpoint dispatches to FChainSlave::analyzeBatch,
  /// FlakyEndpoint rolls one transport fate for the whole batch).
  virtual AnalyzeBatchReply analyzeBatch(
      const AnalyzeBatchRequest& request) = 0;

  /// Runs the analysis for one component as a one-component batch.
  /// Kept only because perfbench/src/bench.h's TracedEndpoint overrides it.
  virtual AnalyzeReply analyze(const AnalyzeRequest& request) {
    AnalyzeBatchRequest batch;
    batch.components = {request.component};
    batch.violation_time = request.violation_time;
    batch.deadline_ms = request.deadline_ms;
    AnalyzeBatchReply batched = analyzeBatch(batch);
    AnalyzeReply reply;
    reply.status = batched.status;
    reply.latency_ms = batched.latency_ms;
    if (batched.status == EndpointStatus::Ok && batched.findings.size() == 1) {
      reply.finding = std::move(batched.findings[0]);
    }
    return reply;
  }

  /// Pushes a batch of samples to the slave (online monitoring runtime);
  /// one status covers the whole batch. The default rejects the request so
  /// analysis-only transports predating the streaming protocol stay valid
  /// implementations.
  virtual IngestReply ingest(const IngestRequest& request) {
    (void)request;
    return {EndpointStatus::Unavailable, 0.0};
  }
};

/// In-process endpoint: wraps a raw FChainSlave pointer and always succeeds
/// with zero latency — the seed reproduction's behaviour, now explicit. The
/// slave must outlive the endpoint.
class LocalEndpoint final : public SlaveEndpoint {
 public:
  explicit LocalEndpoint(core::FChainSlave* slave) : slave_(slave) {}

  HostId host() const override { return slave_->host(); }

  ComponentListReply listComponents() override {
    return {EndpointStatus::Ok, slave_->components()};
  }

  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override {
    AnalyzeBatchReply reply;
    reply.status = EndpointStatus::Ok;
    reply.findings =
        slave_->analyzeBatch(request.components, request.violation_time);
    return reply;
  }

  IngestReply ingest(const IngestRequest& request) override {
    request.forEachSample([this](const persist::SampleRecord& record) {
      slave_->ingestAt(record.component, record.t, record.sample);
    });
    return {EndpointStatus::Ok, 0.0};
  }

  const core::FChainSlave* slave() const { return slave_; }

 private:
  core::FChainSlave* slave_;
};

}  // namespace fchain::runtime
