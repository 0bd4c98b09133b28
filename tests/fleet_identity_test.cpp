// Partitioned-replay golden suite for the fleet tier: the N-shard
// localization result must be *byte-identical* to the single-master golden
// for every N in {1, 2, 4, 8} on the campaign's canonical scenarios, with
// the app on two slaves and with one slave per component (so up to
// min(N, components) shards hold a slice) — including a process that dies
// mid-localization and a restarted fleet that re-runs the slice its shard
// journal holds as pending, and an OnlineMonitor handed the fleet over a
// live stream.
//
// Golden ownership: single_fault / concurrent_fault are produced by
// test_golden_localization (the offline single-master reference) and are
// never regenerated here. The two fleet-only scenarios (System S CpuHog,
// Hadoop InfiniteLoop — the campaign's other overlay bases) get their own
// goldens, regenerated from the *single-master* path only:
//   FCHAIN_UPDATE_GOLDEN=1 ./build/tests/test_fleet_identity
// The sharded paths always compare against the bytes on disk.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "fleet/fleet.h"
#include "netdep/dependency.h"
#include "online/monitor.h"
#include "pinpoint_render.h"
#include "sim/apps.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace fchain::fleet {
namespace {

// --- Scenarios ------------------------------------------------------------

sim::ScenarioConfig scenario(sim::AppKind kind, faults::FaultType type,
                             const std::vector<ComponentId>& targets,
                             double intensity, TimeSec start = 2000) {
  faults::FaultSpec fault;
  fault.type = type;
  fault.targets = targets;
  fault.start_time = start;
  fault.intensity = intensity;
  sim::ScenarioConfig config;
  config.kind = kind;
  config.seed = 77;
  config.faults = {fault};
  return config;
}

sim::ScenarioConfig rubisCpuHog() {
  return scenario(sim::AppKind::Rubis, faults::FaultType::CpuHog, {3}, 1.35);
}
sim::ScenarioConfig rubisOffloadBug() {
  return scenario(sim::AppKind::Rubis, faults::FaultType::OffloadBug, {1, 2},
                  1.0);
}
sim::ScenarioConfig systemSCpuHog() {
  return scenario(sim::AppKind::SystemS, faults::FaultType::CpuHog, {2},
                  1.35);
}
sim::ScenarioConfig hadoopInfiniteLoop() {
  // Hadoop is a batch job: spin all three map nodes inside the campaign's
  // fault-start window ([1150, 1450]) so the job's aggregate progress
  // stalls hard enough to latch the progress SLO (one spinning map of
  // three only slows the sort — the reducers keep draining).
  return scenario(sim::AppKind::Hadoop, faults::FaultType::InfiniteLoop,
                  {0, 1, 2}, 1.0, /*start=*/1300);
}

// --- Incident construction ------------------------------------------------

/// How an incident's components are spread over slaves. A fleet shard owns
/// whole slaves, so the placement sets how many shards hold a slice.
enum class Placement {
  TwoHosts,           ///< first half on host 0, the rest on host 1
  SlavePerComponent,  ///< component k alone on host k
};

/// A fully-ingested incident: the app's components on slaves per
/// `placement`, the recorded violation time, and the discovered dependency
/// graph — the same construction the offline golden flow uses, generalized
/// over application size.
struct Incident {
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<ComponentId> components;
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

Incident makeIncident(const sim::ScenarioConfig& config,
                      Placement placement = Placement::TwoHosts) {
  Incident incident;
  sim::Simulation sim(config);
  const std::size_t n = sim.app().componentCount();
  std::vector<core::FChainSlave*> slave_of;
  for (ComponentId id = 0; id < n; ++id) {
    const auto host = static_cast<HostId>(
        placement == Placement::TwoHosts ? (id < n / 2 ? 0 : 1) : id);
    if (host == incident.slaves.size()) {
      incident.slaves.push_back(std::make_unique<core::FChainSlave>(host));
    }
    incident.components.push_back(id);
    slave_of.push_back(incident.slaves[host].get());
    slave_of.back()->addComponent(id, 0);
  }
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    for (ComponentId id = 0; id < n; ++id) {
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
      }
      slave_of[id]->ingest(id, sample);
    }
  }
  EXPECT_TRUE(sim.violationTime().has_value())
      << "scenario never violated its SLO";
  incident.tv = sim.violationTime().value_or(sim.now());
  incident.deps = netdep::discoverDependencies(sim.record());
  return incident;
}

std::string singleMasterRender(const Incident& incident,
                               const std::vector<ComponentId>& components) {
  core::FChainMaster master;
  for (const auto& slave : incident.slaves) master.registerSlave(slave.get());
  master.setDependencies(incident.deps);
  return core::renderPinpoint(master.localize(components, incident.tv),
                              incident.tv);
}

std::string singleMasterRender(const Incident& incident) {
  return singleMasterRender(incident, incident.components);
}

void addSlaves(FleetMaster& fleet, const Incident& incident) {
  for (const auto& slave : incident.slaves) fleet.addSlave(slave.get());
  fleet.setDependencies(incident.deps);
}

std::string fleetRender(const Incident& incident, FleetConfig config,
                        const std::vector<ComponentId>& components) {
  FleetMaster fleet(std::move(config));
  addSlaves(fleet, incident);
  return core::renderPinpoint(fleet.localize(components, incident.tv),
                              incident.tv);
}

// --- Golden plumbing ------------------------------------------------------

std::string goldenPath(const std::string& name) {
  return std::string(FCHAIN_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string readGolden(const std::string& name) {
  const std::string path = goldenPath(name);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Regen-capable comparison, used ONLY by the single-master reference
/// tests — the sharded paths must never write what they are checked against.
void expectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  const char* update = std::getenv("FCHAIN_UPDATE_GOLDEN");
  if (update != nullptr && update[0] != '\0' &&
      !(update[0] == '0' && update[1] == '\0')) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "regenerated golden " << path;
  }
  EXPECT_EQ(actual, readGolden(name))
      << "single-master output diverged from " << path
      << "; regenerate with FCHAIN_UPDATE_GOLDEN=1 and review the diff";
}

void expectFleetMatchesGolden(const sim::ScenarioConfig& config,
                              const std::string& golden_name) {
  const std::string golden = readGolden(golden_name);
  for (const Placement placement :
       {Placement::TwoHosts, Placement::SlavePerComponent}) {
    const Incident incident = makeIncident(config, placement);
    const std::size_t slaves = incident.slaves.size();
    // Guard against a stale golden: the single-master path must agree with
    // the bytes on disk before they are used as the sharding reference.
    ASSERT_EQ(singleMasterRender(incident), golden)
        << golden_name << " is stale relative to the single-master path ("
        << slaves << " slaves)";
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      FleetConfig fleet_config;
      fleet_config.shards = shards;
      FleetMaster fleet(fleet_config);
      addSlaves(fleet, incident);
      // Every slave holds part of the app and owns one shard slot, so
      // min(shards, slaves) shards hold a slice.
      EXPECT_EQ(fleet.partition(incident.components).size(),
                std::min(shards, slaves));
      EXPECT_EQ(core::renderPinpoint(
                    fleet.localize(incident.components, incident.tv),
                    incident.tv),
                golden)
          << golden_name << " diverged at " << shards << " shards over "
          << slaves << " slaves";
    }
  }
}

// --- Single-master references for the fleet-only goldens ------------------

TEST(FleetGoldenReference, SystemSCpuHog) {
  const Incident incident = makeIncident(systemSCpuHog());
  expectMatchesGolden("fleet_systems_cpuhog", singleMasterRender(incident));
}

TEST(FleetGoldenReference, HadoopInfiniteLoop) {
  const Incident incident = makeIncident(hadoopInfiniteLoop());
  expectMatchesGolden("fleet_hadoop_infloop", singleMasterRender(incident));
}

// --- Partitioned replay: N in {1, 2, 4, 8} --------------------------------

TEST(FleetIdentity, RubisSingleFault) {
  expectFleetMatchesGolden(rubisCpuHog(), "single_fault");
}

TEST(FleetIdentity, RubisConcurrentFault) {
  expectFleetMatchesGolden(rubisOffloadBug(), "concurrent_fault");
}

TEST(FleetIdentity, SystemSCpuHog) {
  expectFleetMatchesGolden(systemSCpuHog(), "fleet_systems_cpuhog");
}

TEST(FleetIdentity, HadoopInfiniteLoop) {
  expectFleetMatchesGolden(hadoopInfiniteLoop(), "fleet_hadoop_infloop");
}

/// Cross-shard fan-out on a worker pool plus batched per-shard masters:
/// still the same bytes (this is the configuration the TSan job runs).
TEST(FleetIdentity, ThreadedFanOutMatchesGolden) {
  const Incident incident =
      makeIncident(rubisCpuHog(), Placement::SlavePerComponent);
  FleetConfig config;
  config.shards = 4;
  config.fleet_threads = 4;
  config.shard_worker_threads = 2;
  EXPECT_EQ(fleetRender(incident, config, incident.components),
            readGolden("single_fault"));
}

/// A component no registered slave monitors goes to shard 0, whose master
/// reports it unanalyzed exactly as the single master does.
TEST(FleetIdentity, UnroutedComponentMatchesTheSingleMaster) {
  const Incident incident = makeIncident(rubisCpuHog());
  std::vector<ComponentId> components = incident.components;
  components.insert(components.begin() + 2, 99);
  const std::string single = singleMasterRender(incident, components);
  ASSERT_NE(single.find("unanalyzed: 99\n"), std::string::npos) << single;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    FleetConfig config;
    config.shards = shards;
    EXPECT_EQ(fleetRender(incident, config, components), single)
        << "diverged at " << shards << " shards";
  }
}

// --- Process restart + journal-driven re-run ------------------------------

/// The shards are objects in one process and fail with it. A restart builds
/// a new fleet over the same journal_dir with the same registrations in the
/// same order, then re-runs each shard's pending slices as for a single
/// master.
TEST(FleetFailover, CrashMidLocalizationThenRerunMatchesGolden) {
  const Incident incident = makeIncident(rubisCpuHog());
  const std::string golden = readGolden("single_fault");

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "fleet_failover_journal")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FleetConfig config;
  config.shards = 4;
  config.journal_dir = dir;

  // Fleet A journals the slice of the shard owning the faulty db VM
  // (component 3) as started and dies before completing it — exactly the
  // on-disk state a crash between fan-out and logDone leaves behind.
  ShardId crashed = 0;
  std::vector<ComponentId> slice;
  {
    FleetMaster fleet(config);
    addSlaves(fleet, incident);
    crashed = fleet.partition({3}).front().shard;
    for (const ShardPartial& partial : fleet.partition(incident.components)) {
      if (partial.shard == crashed) slice = partial.components;
    }
    ASSERT_FALSE(slice.empty());
    ASSERT_NE(fleet.shardJournal(crashed), nullptr);
    fleet.shardJournal(crashed)->logStart(slice, incident.tv);
  }

  // Fleet B, the restarted process, re-runs the interrupted slice from the
  // journal.
  FleetMaster fleet(config);
  addSlaves(fleet, incident);
  ASSERT_NE(fleet.shardJournal(crashed), nullptr);
  const std::vector<core::RerunIncident> reruns = core::rerunPendingIncidents(
      fleet.shardMaster(crashed), *fleet.shardJournal(crashed));
  ASSERT_EQ(reruns.size(), 1u);
  EXPECT_EQ(reruns[0].components, slice);
  EXPECT_EQ(reruns[0].violation_time, incident.tv);

  // The re-run partial hand-merged with the other shards' partials
  // reproduces the golden — the re-run answer is byte-equivalent to one
  // that never crashed.
  std::vector<ShardPartial> partials = fleet.partition(incident.components);
  for (ShardPartial& partial : partials) {
    if (partial.shard == crashed) {
      partial.result = reruns[0].result;
    } else {
      partial.result =
          fleet.shardMaster(partial.shard)
              .localize(partial.components, incident.tv);
    }
  }
  const FleetAggregator aggregator{core::FChainConfig{}};
  EXPECT_EQ(core::renderPinpoint(
                aggregator.merge(partials, incident.components.size(),
                                 &incident.deps),
                incident.tv),
            golden);

  // And a full localization through the restarted fleet is golden too.
  EXPECT_EQ(core::renderPinpoint(
                fleet.localize(incident.components, incident.tv),
                incident.tv),
            golden);

  // Nothing stays pending in any shard's journal.
  for (ShardId shard = 0; shard < fleet.shardCount(); ++shard) {
    EXPECT_TRUE(
        persist::IncidentJournal::pending(fleet.shardJournalPath(shard))
            .empty())
        << "shard " << shard;
  }
  std::filesystem::remove_all(dir);
}

// --- Online fan-in: an OnlineMonitor handed the fleet, over a live stream -

TEST(FleetOnline, StreamedIncidentMatchesGolden) {
  // Offline pass for the dependency graph + expected tv (discovery is
  // deterministic on the record; see online_vs_offline_test.cpp).
  const sim::ScenarioConfig config = rubisCpuHog();
  sim::Simulation offline(config);
  while (!offline.violationTime().has_value() && offline.now() < 3600) {
    offline.step();
  }
  ASSERT_TRUE(offline.violationTime().has_value());
  const TimeSec tv = *offline.violationTime();
  const netdep::DependencyGraph deps =
      netdep::discoverDependencies(offline.record());

  core::FChainSlave front(0);
  core::FChainSlave back(1);
  front.addComponent(0, 0);
  front.addComponent(1, 0);
  back.addComponent(2, 0);
  back.addComponent(3, 0);

  FleetConfig fleet_config;
  fleet_config.shards = 4;
  FleetMaster fleet(fleet_config);
  online::OnlineMonitor monitor({}, fleet);
  monitor.addSlave(&front);
  monitor.addSlave(&back);
  monitor.setDependencies(deps);

  online::AppSpec app;
  app.name = "rubis";
  app.components = {0, 1, 2, 3};
  app.slo.kind = online::SloSpec::Kind::Latency;
  app.slo.latency_threshold_sec = sim::sloLatencyThreshold(config.kind);
  app.slo.sustain_sec = config.slo_sustain_sec;
  const std::size_t app_index = monitor.addApplication(app);

  sim::StreamingSource source(config);
  while (monitor.incidents().empty() && source.now() < 3600) {
    const sim::StreamTick tick = source.step(
        [&](const sim::StreamSample& sample) { monitor.ingest(sample); });
    monitor.observe(app_index, tick);
    monitor.pump();
  }
  ASSERT_EQ(monitor.incidents().size(), 1u);
  const online::OnlineIncident& incident = monitor.incidents().front();
  EXPECT_EQ(incident.app, app_index);
  EXPECT_EQ(incident.violation_time, tv);
  EXPECT_EQ(core::renderPinpoint(incident.result, incident.violation_time),
            readGolden("single_fault"));
  // The monitor's instruments land in the fleet's registry, next to the one
  // fleet localization the incident ran.
  const obs::MetricsSnapshot snap = fleet.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.triggers"), 1u);
  EXPECT_EQ(snap.counters.at("fleet.localizations"), 1u);
}

}  // namespace
}  // namespace fchain::fleet
