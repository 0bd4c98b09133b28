// Campaign episode runner: one fully-determined EpisodeSpec through the
// real online pipeline, classified against the injected ground truth.
//
// The runner is a faithful miniature of a production deployment: a
// sim::StreamingSource emits 1 Hz telemetry, an online::OnlineMonitor
// ingests it and watches the SLO, and the first auto-triggered incident's
// FChainMaster::localize verdict is compared to the episode's injected
// fault set. Monitoring-plane overlays reuse the chaos injectors
// (sim::TelemetryFaultInjector / sim::CrashInjector); a crash overlay
// really destroys the slave's in-memory models and re-registers its
// components at the restart tick, exactly like the crash-recovery tier.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "eval/frontier.h"
#include "netdep/dependency.h"

namespace fchain::campaign {

/// What the first incident (if any) of an episode looked like — the inputs
/// to classification, separated out so classify() is a pure function the
/// unit tests can drive directly.
struct IncidentFacts {
  bool fired = false;
  TimeSec violation_time = 0;
  bool external_verdict = false;
  std::vector<ComponentId> pinpointed;  ///< sorted ascending
  double coverage = 1.0;
};

/// Classifies one episode outcome against ground truth. `truth` is the
/// sorted union of injected faulty components (empty for external factors,
/// which `external_fault` flags); `fault_start` is the injection instant.
eval::Outcome classify(const std::vector<ComponentId>& truth,
                       bool external_fault, TimeSec fault_start,
                       const IncidentFacts& incident);

/// Set relation between the pinpointed set and ground truth, as a stable
/// token for failure-mode clustering: "exact", "subset" (pinpointed is a
/// strict subset of truth), "superset", "overlap", "disjoint", "empty"
/// (nothing pinpointed), or "no-truth" (external-factor episode).
std::string setRelation(const std::vector<ComponentId>& truth,
                        const std::vector<ComponentId>& pinpointed);

/// One classified episode.
struct EpisodeRecord {
  EpisodeSpec spec;
  eval::Outcome outcome = eval::Outcome::Missed;
  std::vector<ComponentId> truth;
  IncidentFacts incident;
  std::string relation;  ///< setRelation(truth, incident.pinpointed)
};

/// Offline dependency discovery for one application kind: a healthy seeded
/// run of the benchmark, long enough for the traffic-based discovery to
/// converge. System S discovers nothing (the paper's streaming negative
/// finding) and correctly falls back to chronology-only pinpointing.
/// `mesh` configures the topology when kind == AppKind::Mesh (ignored for
/// the fixed benchmarks).
netdep::DependencyGraph discoverAppDependencies(sim::AppKind kind,
                                                std::uint64_t campaign_seed,
                                                const sim::MeshConfig& mesh = {});

/// Runs one episode end to end. `deps` is the kind's discovered graph
/// (cached per campaign — discovery is per application, not per episode).
EpisodeRecord runEpisode(const EpisodeSpec& spec,
                         const netdep::DependencyGraph& deps);

}  // namespace fchain::campaign
