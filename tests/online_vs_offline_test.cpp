// Online-vs-offline equivalence, pinned to the checked-in goldens.
//
// The OnlineMonitor's headline guarantee is that auto-triggered localization
// is *bit-identical* to the offline pipeline run over the equivalent
// recorded window: streaming one sample per component per second into the
// slaves and firing at the SLO latch must reproduce, byte for byte, what
// golden_localization_test.cpp produces by batch-ingesting the finished run
// and calling localize() by hand. These tests stream the exact scenarios
// behind tests/golden/single_fault.golden and concurrent_fault.golden and
// compare the auto-triggered PinpointResult against
//   (a) the golden bytes on disk (never regenerated here — regeneration
//       goes through test_golden_localization, the offline reference), and
//   (b) a fresh core::localizeRecord over the record the stream produced.
// A mismatch in (a) means online triggering changed behavior; a mismatch in
// (b) alone would mean the golden itself is stale.
#include <array>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/fchain.h"
#include "netdep/dependency.h"
#include "online/monitor.h"
#include "pinpoint_render.h"
#include "sim/apps.h"
#include "sim/stream.h"

namespace fchain::online {
namespace {

sim::ScenarioConfig rubisScenario(const std::vector<faults::FaultSpec>& faults,
                                  std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  config.faults = faults;
  return config;
}

faults::FaultSpec cpuHogOnDb() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  return fault;
}

faults::FaultSpec offloadBugOnAppTiers() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::OffloadBug;
  fault.targets = {1, 2};
  fault.start_time = 2000;
  return fault;
}

/// Pass 1: the dependency graph the online master must hold *before* the
/// incident. Discovery is deterministic on the record, so discovering from
/// an offline run of the same scenario equals discovering at the latch tick
/// of the stream (which is exactly what the offline golden flow does).
struct OfflineReference {
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

OfflineReference runOffline(const sim::ScenarioConfig& config) {
  OfflineReference ref;
  sim::Simulation sim(config);
  while (!sim.violationTime().has_value() && sim.now() < 3600) sim.step();
  EXPECT_TRUE(sim.violationTime().has_value());
  ref.tv = sim.violationTime().value_or(sim.now());
  ref.deps = netdep::discoverDependencies(sim.record());
  return ref;
}

std::string readGolden(const std::string& name) {
  const std::string path = std::string(FCHAIN_GOLDEN_DIR) + "/" + name +
                           ".golden";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path
                         << " (generate via test_golden_localization with "
                            "FCHAIN_UPDATE_GOLDEN=1)";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Pass 2: stream the same scenario into an OnlineMonitor and let the SLO
/// latch trigger localization; returns the rendered result plus the record
/// for the independent localizeRecord cross-check.
struct OnlineRun {
  OnlineIncident incident;
  sim::RunRecord record;
};

OnlineRun runOnline(const sim::ScenarioConfig& config,
                    const netdep::DependencyGraph& deps, int worker_threads) {
  core::FChainSlave front(0);
  core::FChainSlave back(1);
  front.addComponent(0, 0);
  front.addComponent(1, 0);
  back.addComponent(2, 0);
  back.addComponent(3, 0);

  core::FChainMaster master;
  master.setWorkerThreads(worker_threads);
  OnlineMonitor monitor({}, master);
  monitor.addSlave(&front);
  monitor.addSlave(&back);
  monitor.setDependencies(deps);

  AppSpec app;
  app.name = "rubis";
  app.components = {0, 1, 2, 3};
  app.slo.kind = SloSpec::Kind::Latency;
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
  EXPECT_EQ(monitor.incidents().size(), 1u);
  OnlineRun run;
  if (!monitor.incidents().empty()) run.incident = monitor.incidents().front();
  run.record = source.record();
  return run;
}

void expectOnlineMatchesGolden(const sim::ScenarioConfig& config,
                               const std::string& golden_name,
                               int worker_threads = 0) {
  const OfflineReference ref = runOffline(config);
  const OnlineRun run = runOnline(config, ref.deps, worker_threads);

  // The latch the monitor saw is the violation the simulator recorded.
  EXPECT_EQ(run.incident.violation_time, ref.tv);
  EXPECT_EQ(run.incident.triggered_at, ref.tv);
  EXPECT_EQ(run.incident.queued_delay_sec, 0);
  ASSERT_TRUE(run.record.violation_time.has_value());
  EXPECT_EQ(*run.record.violation_time, ref.tv);

  const std::string online_text =
      core::renderPinpoint(run.incident.result, run.incident.violation_time);

  // (a) byte-for-byte against the checked-in offline golden;
  EXPECT_EQ(online_text, readGolden(golden_name))
      << "auto-triggered localization diverged from the offline golden "
      << golden_name;

  // (b) byte-for-byte against a fresh offline run over the streamed record.
  const core::PinpointResult offline =
      core::localizeRecord(run.record, &ref.deps);
  EXPECT_EQ(online_text, core::renderPinpoint(offline, ref.tv));
  EXPECT_DOUBLE_EQ(run.incident.result.coverage, offline.coverage);
}

TEST(OnlineVsOffline, SingleFaultMatchesGolden) {
  expectOnlineMatchesGolden(rubisScenario({cpuHogOnDb()}, /*seed=*/77),
                            "single_fault");
}

TEST(OnlineVsOffline, ConcurrentFaultMatchesGolden) {
  expectOnlineMatchesGolden(rubisScenario({offloadBugOnAppTiers()},
                                          /*seed=*/77),
                            "concurrent_fault");
}

TEST(OnlineVsOffline, ParallelFanOutMatchesGolden) {
  expectOnlineMatchesGolden(rubisScenario({cpuHogOnDb()}, /*seed=*/77),
                            "single_fault", /*worker_threads=*/4);
}

}  // namespace
}  // namespace fchain::online
