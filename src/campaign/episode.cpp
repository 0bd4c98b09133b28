#include "campaign/episode.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "online/monitor.h"
#include "sim/injector.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace fchain::campaign {

namespace {

/// The episode's single slave, replaceable mid-run: a crash overlay destroys
/// the FChainSlave (all learned models gone) and a later restart installs a
/// fresh one whose components re-register at the restart tick.
struct SlaveCell {
  std::unique_ptr<core::FChainSlave> slave;
  bool down = false;  ///< SlaveOutage window: alive but unreachable
};

/// Endpoint over a SlaveCell. Unlike runtime::LocalEndpoint the slave
/// pointer is *indirect*, so the master keeps a stable endpoint while the
/// process behind it dies, stays down, or comes back.
class RestartableEndpoint final : public runtime::SlaveEndpoint {
 public:
  RestartableEndpoint(SlaveCell* cell, HostId host)
      : cell_(cell), host_(host) {}

  HostId host() const override { return host_; }

  runtime::ComponentListReply listComponents() override {
    if (!alive()) return {runtime::EndpointStatus::Unavailable, {}};
    return {runtime::EndpointStatus::Ok, cell_->slave->components()};
  }

  runtime::AnalyzeBatchReply analyzeBatch(
      const runtime::AnalyzeBatchRequest& req) override {
    runtime::AnalyzeBatchReply reply;
    if (!alive()) return reply;  // Unavailable
    reply.status = runtime::EndpointStatus::Ok;
    reply.findings =
        cell_->slave->analyzeBatch(req.components, req.violation_time);
    return reply;
  }

  runtime::IngestReply ingest(const runtime::IngestRequest& req) override {
    if (!alive()) return {runtime::EndpointStatus::Unavailable, 0.0};
    req.forEachSample([this](const persist::SampleRecord& record) {
      cell_->slave->ingestAt(record.component, record.t, record.sample);
    });
    return {runtime::EndpointStatus::Ok, 0.0};
  }

 private:
  bool alive() const { return cell_->slave != nullptr && !cell_->down; }

  SlaveCell* cell_;
  HostId host_;
};

/// Overlay schedule geometry, all relative to the fault start: telemetry
/// noise brackets the fault (so the analysis look-back is degraded), the
/// outage spans the expected trigger, and the crash/restart cycle lands just
/// after injection so the replacement slave faces the incident with only
/// seconds of history.
sim::TelemetryFaultInjector makeTelemetryOverlay(const EpisodeSpec& spec,
                                                 TimeSec fault_start) {
  sim::TelemetryFaultInjector injector;
  sim::TelemetryFaultSpec overlay;
  overlay.start_time = fault_start > 100 ? fault_start - 100 : 0;
  overlay.duration_sec = 400;
  switch (spec.overlay) {
    case OverlayKind::TelemetryDrop:
      overlay.type = sim::TelemetryFaultType::SampleDropBurst;
      overlay.rate = 0.35;
      overlay.seed = mixSeed(spec.seed, 0xd20bull);
      injector.add(overlay);
      break;
    case OverlayKind::TelemetryCorrupt:
      overlay.type = sim::TelemetryFaultType::ValueCorruption;
      overlay.rate = 0.08;
      overlay.seed = mixSeed(spec.seed, 0xc02ull);
      injector.add(overlay);
      break;
    case OverlayKind::SlaveOutage:
      overlay.type = sim::TelemetryFaultType::SlaveOutage;
      overlay.start_time = fault_start + 30;
      overlay.duration_sec = 120;
      overlay.hosts = {0};
      injector.add(overlay);
      break;
    default:
      break;
  }
  return injector;
}

sim::CrashInjector makeCrashOverlay(const EpisodeSpec& spec,
                                    TimeSec fault_start) {
  sim::CrashInjector injector;
  if (spec.overlay == OverlayKind::SlaveCrash) {
    injector.add({/*host=*/0, /*crash_time=*/fault_start + 40,
                  /*restart_time=*/fault_start + 100});
  }
  return injector;
}

}  // namespace

eval::Outcome classify(const std::vector<ComponentId>& truth,
                       bool external_fault, TimeSec fault_start,
                       const IncidentFacts& incident) {
  if (!incident.fired) return eval::Outcome::Missed;
  if (incident.violation_time < fault_start) return eval::Outcome::FalseAlarm;
  if (external_fault) {
    // No component is at fault; the correct verdict is "external cause".
    // Blaming components for an external factor is the classic false alarm
    // FChain's workload-change detection exists to shed.
    return incident.external_verdict ? eval::Outcome::ExternalCauseCorrect
                                     : eval::Outcome::FalseAlarm;
  }
  if (incident.external_verdict) return eval::Outcome::Mislocalized;
  if (incident.pinpointed.empty()) return eval::Outcome::Missed;
  return incident.pinpointed == truth ? eval::Outcome::Localized
                                      : eval::Outcome::Mislocalized;
}

std::string setRelation(const std::vector<ComponentId>& truth,
                        const std::vector<ComponentId>& pinpointed) {
  if (truth.empty()) return "no-truth";
  if (pinpointed.empty()) return "empty";
  if (pinpointed == truth) return "exact";
  std::vector<ComponentId> common;
  std::set_intersection(truth.begin(), truth.end(), pinpointed.begin(),
                        pinpointed.end(), std::back_inserter(common));
  if (common.empty()) return "disjoint";
  if (common.size() == pinpointed.size()) return "subset";
  if (common.size() == truth.size()) return "superset";
  return "overlap";
}

netdep::DependencyGraph discoverAppDependencies(sim::AppKind kind,
                                                std::uint64_t campaign_seed,
                                                const sim::MeshConfig& mesh) {
  sim::ScenarioConfig config;
  config.kind = kind;
  config.mesh = mesh;
  config.seed = mixSeed(campaign_seed, 0xdeb5ull,
                        static_cast<std::uint64_t>(kind));
  config.duration_sec = 1200;  // healthy run; discovery converges well before
  sim::Simulation sim(config);
  sim.runUntil(static_cast<TimeSec>(config.duration_sec));
  return netdep::discoverDependencies(sim.record());
}

EpisodeRecord runEpisode(const EpisodeSpec& spec,
                         const netdep::DependencyGraph& deps) {
  EpisodeRecord record;
  record.spec = spec;
  record.truth = sim::groundTruth(spec.faults);
  const TimeSec fault_start =
      spec.faults.empty() ? 0 : spec.faults.front().start_time;

  sim::ScenarioConfig scenario;
  scenario.kind = spec.app;
  scenario.mesh = spec.mesh;
  scenario.faults = spec.faults;
  scenario.seed = spec.seed;
  scenario.duration_sec = spec.duration_sec;
  sim::StreamingSource source(scenario);

  core::FChainConfig fchain;
  // Hadoop's DiskHog is the paper's slow-manifestation fault: it needs the
  // longer 500 s look-back window (mirrors eval/cases.cpp).
  if (spec.app == sim::AppKind::Hadoop) {
    for (const faults::FaultSpec& f : spec.faults) {
      if (f.type == faults::FaultType::DiskHog) {
        fchain.lookback_sec = 500;
      }
    }
  }

  SlaveCell cell;
  cell.slave = std::make_unique<core::FChainSlave>(/*host=*/0, fchain);
  const std::vector<ComponentId> ids = source.componentIds();
  for (ComponentId id : ids) cell.slave->addComponent(id, /*start_time=*/0);

  core::FChainMaster master(fchain);
  online::OnlineMonitor monitor({}, master);
  monitor.addEndpoint(std::make_shared<RestartableEndpoint>(&cell, 0), ids);

  online::AppSpec app;
  app.name = std::string(sim::appKindName(spec.app));
  app.components = ids;
  if (spec.app == sim::AppKind::Hadoop) {
    app.slo.kind = online::SloSpec::Kind::Progress;
  } else {
    app.slo.latency_threshold_sec =
        spec.app == sim::AppKind::Mesh
            ? sim::meshSloLatencyThreshold(spec.mesh)
            : sim::sloLatencyThreshold(spec.app);
    app.slo.sustain_sec = scenario.slo_sustain_sec;
  }
  const std::size_t app_index = monitor.addApplication(app);
  monitor.setDependencies(app_index, deps);

  const sim::TelemetryFaultInjector telemetry =
      makeTelemetryOverlay(spec, fault_start);
  const sim::CrashInjector crashes = makeCrashOverlay(spec, fault_start);

  for (TimeSec t = 0; t < static_cast<TimeSec>(spec.duration_sec); ++t) {
    // Crash/restart cycle first: a slave that dies at t sees none of t's
    // samples, and a replacement registers its components *at* t.
    if (crashes.crashesAt(0, t)) cell.slave.reset();
    if (crashes.restartsAt(0, t)) {
      cell.slave = std::make_unique<core::FChainSlave>(0, fchain);
      for (ComponentId id : ids) cell.slave->addComponent(id, t);
    }
    cell.down = telemetry.slaveDown(0, t);

    const sim::StreamTick tick =
        source.step([&](const sim::StreamSample& sample) {
          if (telemetry.sampleDropped(sample.component, sample.t)) return;
          std::array<double, kMetricCount> values = sample.values;
          telemetry.corruptSample(sample.component, sample.t, values);
          monitor.ingest(sample.component, sample.t, values);
        });
    monitor.observe(app_index, tick);
    monitor.pump();
    // First incident decides the episode; later re-triggers of the same
    // persistent fault add nothing to classification.
    if (!monitor.incidents().empty()) break;
  }

  if (!monitor.incidents().empty()) {
    const online::OnlineIncident& incident = monitor.incidents().front();
    record.incident.fired = true;
    record.incident.violation_time = incident.violation_time;
    record.incident.external_verdict = incident.result.external_factor;
    record.incident.pinpointed = incident.result.pinpointed;
    record.incident.coverage = incident.result.coverage;
  }

  record.outcome = classify(record.truth, spec.externalFault(), fault_start,
                            record.incident);
  record.relation = setRelation(record.truth, record.incident.pinpointed);
  return record;
}

}  // namespace fchain::campaign
