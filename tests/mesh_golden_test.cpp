// Mesh golden suite: two checked-in localization goldens over generated
// microservice meshes —
//   mesh120_retrystorm_bottleneck  a slow data store whose bounded-retry
//                                  callers amplify upstream call volume
//   mesh80_cachehog                a CPU hog on the cache-fronted data-tier
//                                  caller, degrading its hit ratio
// Each golden is produced by the offline single-master reference and must be
// byte-identical through the FleetMaster at N in {1, 4} shards and through
// the online monitor over a live stream (online vs offline replay).
//
// Regeneration (single-master path only; the sharded and online paths always
// compare against the bytes on disk):
//   FCHAIN_UPDATE_FIXTURES=1 ./build/tests/test_mesh_golden
// (FCHAIN_UPDATE_GOLDEN is accepted too, matching the other golden suites.)
#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/fchain.h"
#include "fleet/fleet.h"
#include "netdep/dependency.h"
#include "online/monitor.h"
#include "pinpoint_render.h"
#include "sim/mesh.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace fchain::fleet {
namespace {

// --- Scenarios ------------------------------------------------------------

sim::ScenarioConfig meshScenario(std::size_t services,
                                 faults::FaultType type, double intensity,
                                 bool target_store) {
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Mesh;
  config.mesh = sim::meshConfigFor(services, /*seed=*/7);
  config.seed = 77;
  config.duration_sec = 3600;
  const sim::ApplicationSpec spec = sim::makeMicroMeshSpec(config.mesh);
  faults::FaultSpec fault;
  fault.type = type;
  // Either the hottest data store (the retry-storm victim) or its
  // cache-fronted caller one hop up the reference path.
  fault.targets = {target_store
                       ? spec.reference_path.back()
                       : spec.reference_path[spec.reference_path.size() - 2]};
  fault.start_time = 1300;
  fault.intensity = intensity;
  config.faults = {fault};
  return config;
}

sim::ScenarioConfig retryStormBottleneck() {
  return meshScenario(120, faults::FaultType::Bottleneck, 1.4,
                      /*target_store=*/true);
}

sim::ScenarioConfig cacheHog() {
  return meshScenario(80, faults::FaultType::CpuHog, 1.5,
                      /*target_store=*/false);
}

// --- Incident construction (two slaves splitting the mesh by index) -------

struct Incident {
  std::unique_ptr<core::FChainSlave> front;
  std::unique_ptr<core::FChainSlave> back;
  std::vector<ComponentId> components;
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

Incident makeIncident(const sim::ScenarioConfig& config) {
  Incident incident;
  sim::Simulation sim(config);
  const std::size_t n = sim.app().componentCount();
  incident.front = std::make_unique<core::FChainSlave>(0);
  incident.back = std::make_unique<core::FChainSlave>(1);
  for (ComponentId id = 0; id < n; ++id) {
    incident.components.push_back(id);
    (id < n / 2 ? *incident.front : *incident.back).addComponent(id, 0);
  }
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    for (ComponentId id = 0; id < n; ++id) {
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
      }
      (id < n / 2 ? *incident.front : *incident.back).ingest(id, sample);
    }
  }
  EXPECT_TRUE(sim.violationTime().has_value())
      << "mesh scenario never violated its SLO";
  incident.tv = sim.violationTime().value_or(sim.now());
  incident.deps = netdep::discoverDependencies(sim.record());
  return incident;
}

std::string singleMasterRender(const Incident& incident) {
  core::FChainMaster master;
  master.registerSlave(incident.front.get());
  master.registerSlave(incident.back.get());
  master.setDependencies(incident.deps);
  return core::renderPinpoint(
      master.localize(incident.components, incident.tv), incident.tv);
}

std::string fleetRender(const Incident& incident, std::size_t shards) {
  FleetConfig config;
  config.shards = shards;
  FleetMaster fleet(config);
  fleet.addSlave(incident.front.get());
  fleet.addSlave(incident.back.get());
  fleet.setDependencies(incident.deps);
  return core::renderPinpoint(
      fleet.localize(incident.components, incident.tv), incident.tv);
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

bool envSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

/// Regen-capable comparison, used ONLY by the single-master reference
/// tests — the sharded and online paths must never write what they are
/// checked against.
void expectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = goldenPath(name);
  if (envSet("FCHAIN_UPDATE_FIXTURES") || envSet("FCHAIN_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "regenerated golden " << path;
  }
  EXPECT_EQ(actual, readGolden(name))
      << "single-master output diverged from " << path
      << "; regenerate with FCHAIN_UPDATE_FIXTURES=1 and review the diff";
}

// --- Single-master references (golden owners) -----------------------------

TEST(MeshGoldenReference, RetryStormBottleneck) {
  const Incident incident = makeIncident(retryStormBottleneck());
  expectMatchesGolden("mesh120_retrystorm_bottleneck",
                      singleMasterRender(incident));
}

TEST(MeshGoldenReference, CacheHog) {
  const Incident incident = makeIncident(cacheHog());
  expectMatchesGolden("mesh80_cachehog", singleMasterRender(incident));
}

// --- Partitioned replay: N in {1, 4} --------------------------------------

void expectFleetMatchesGolden(const sim::ScenarioConfig& config,
                              const std::string& golden_name) {
  const Incident incident = makeIncident(config);
  const std::string golden = readGolden(golden_name);
  ASSERT_EQ(singleMasterRender(incident), golden)
      << golden_name << " is stale relative to the single-master path";
  for (const std::size_t shards : {1u, 4u}) {
    EXPECT_EQ(fleetRender(incident, shards), golden)
        << golden_name << " diverged at " << shards << " shards";
  }
}

TEST(MeshFleetIdentity, RetryStormBottleneck) {
  expectFleetMatchesGolden(retryStormBottleneck(),
                           "mesh120_retrystorm_bottleneck");
}

TEST(MeshFleetIdentity, CacheHog) {
  expectFleetMatchesGolden(cacheHog(), "mesh80_cachehog");
}

// --- Online vs offline replay ---------------------------------------------

void expectOnlineMatchesGolden(const sim::ScenarioConfig& config,
                               const std::string& golden_name) {
  // Offline pass: expected tv + the discovered dependency graph.
  sim::Simulation offline(config);
  while (!offline.violationTime().has_value() && offline.now() < 3600) {
    offline.step();
  }
  ASSERT_TRUE(offline.violationTime().has_value());
  const TimeSec tv = *offline.violationTime();
  const netdep::DependencyGraph deps =
      netdep::discoverDependencies(offline.record());

  sim::StreamingSource source(config);
  const std::vector<ComponentId> ids = source.componentIds();

  core::FChainSlave front(0);
  core::FChainSlave back(1);
  for (ComponentId id : ids) {
    (id < ids.size() / 2 ? front : back).addComponent(id, 0);
  }

  FleetConfig fleet_config;
  fleet_config.shards = 4;
  FleetMaster fleet(fleet_config);
  online::OnlineMonitor monitor({}, fleet);
  monitor.addSlave(&front);
  monitor.addSlave(&back);
  monitor.setDependencies(deps);

  online::AppSpec app;
  app.name = "mesh";
  app.components = ids;
  app.slo.kind = online::SloSpec::Kind::Latency;
  app.slo.latency_threshold_sec = sim::meshSloLatencyThreshold(config.mesh);
  app.slo.sustain_sec = config.slo_sustain_sec;
  const std::size_t app_index = monitor.addApplication(app);

  while (monitor.incidents().empty() && source.now() < 3600) {
    const sim::StreamTick tick = source.step(
        [&](const sim::StreamSample& sample) { monitor.ingest(sample); });
    monitor.observe(app_index, tick);
    monitor.pump();
  }
  ASSERT_EQ(monitor.incidents().size(), 1u);
  const online::OnlineIncident& incident = monitor.incidents().front();
  EXPECT_EQ(incident.violation_time, tv);
  EXPECT_EQ(core::renderPinpoint(incident.result, incident.violation_time),
            readGolden(golden_name))
      << "online replay diverged from the offline golden";
}

TEST(MeshOnlineIdentity, RetryStormBottleneck) {
  expectOnlineMatchesGolden(retryStormBottleneck(),
                            "mesh120_retrystorm_bottleneck");
}

TEST(MeshOnlineIdentity, CacheHog) {
  expectOnlineMatchesGolden(cacheHog(), "mesh80_cachehog");
}

}  // namespace
}  // namespace fchain::fleet
