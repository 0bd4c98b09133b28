// Crash-recovery accuracy gate: what a slave crash costs the verdict.
//
// Repeated RUBiS CpuHog incidents, each localized twice: a baseline run (no
// crash) and a run where the slave hosting one component (rotating across
// trials) crashes 40 s before the SLO violation and a replacement recovers
// from snapshot + journal 20 s later. The dead window's samples are lost
// (gap-filled on the next ingest); everything before the crash is replayed
// from disk. Exit status is the gate: nonzero when post-restart localization
// accuracy is more than 5 % from the uncrashed baseline. perfbench's
// `restart` workload prices the snapshot, journal and recovery layers.
//
// Usage: bench_crash_recovery [trials] [base_seed]
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "sim/injector.h"
#include "sim/simulator.h"

namespace {

using namespace fchain;

constexpr ComponentId kFaulty = 3;  // RUBiS db VM
constexpr std::size_t kComponents = 4;

struct Incident {
  sim::RunRecord record;
  TimeSec tv = 0;
};

std::optional<Incident> simulateIncident(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {kFaulty};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  config.faults = {fault};
  auto result = sim::runScenario(config);
  if (!result.record.violation_time.has_value()) return std::nullopt;
  return Incident{std::move(result.record), *result.record.violation_time};
}

struct TrialOutcome {
  bool localized = false;
  double coverage = 0.0;
};

/// Replays one incident into four single-VM slaves and localizes. With
/// `crash`, the slave hosting component `crash_host` dies 40 s before the
/// violation and recovers from its checkpoint 20 s later; the dead window's
/// samples are lost and gap-filled.
TrialOutcome runTrial(const Incident& incident, bool crash,
                      ComponentId crash_host, const std::string& dir) {
  sim::CrashInjector injector;
  if (crash) {
    injector.add({static_cast<HostId>(crash_host), incident.tv - 40,
                  incident.tv - 20});
  }

  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<std::unique_ptr<core::SlaveCheckpointer>> checkpointers(
      kComponents);
  for (ComponentId id = 0; id < kComponents; ++id) {
    const MetricSeries& recorded = incident.record.metrics[id];
    const TimeSec start =
        recorded.endTime() - static_cast<TimeSec>(recorded.size());
    auto slave = std::make_unique<core::FChainSlave>(id);
    slave->addComponent(id, start);
    if (crash) {
      const std::string host_dir = dir + "/h" + std::to_string(id);
      std::filesystem::create_directories(host_dir);
      checkpointers[id] = std::make_unique<core::SlaveCheckpointer>(
          *slave, host_dir);
    }
    slaves.push_back(std::move(slave));
  }

  TrialOutcome outcome;
  const MetricSeries& clock = incident.record.metrics[0];
  const TimeSec start = clock.endTime() - static_cast<TimeSec>(clock.size());
  for (TimeSec t = start; t < clock.endTime(); ++t) {
    for (ComponentId id = 0; id < kComponents; ++id) {
      const auto host = static_cast<HostId>(id);
      if (crash && injector.restartsAt(host, t)) {
        const std::string host_dir = dir + "/h" + std::to_string(id);
        auto recovered = core::SlaveCheckpointer::recover(host_dir, host);
        slaves[id] = std::make_unique<core::FChainSlave>(
            std::move(recovered.slave));
        checkpointers[id] = std::make_unique<core::SlaveCheckpointer>(
            *slaves[id], host_dir);
      }
      if (crash && !checkpointers[id]) continue;  // process is down
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = incident.record.metrics[id].of(kind).at(t);
      }
      if (crash) {
        checkpointers[id]->ingestAt(id, t, sample);
      } else {
        slaves[id]->ingestAt(id, t, sample);
      }
      if (crash && injector.crashesAt(host, t)) {
        checkpointers[id].reset();
        slaves[id].reset();
      }
    }
  }

  core::FChainMaster master;
  for (ComponentId id = 0; id < kComponents; ++id) {
    master.registerSlave(slaves[id].get());
  }
  const auto verdict = master.localize({0, 1, 2, 3}, incident.tv);
  outcome.coverage = verdict.coverage;
  for (ComponentId id : verdict.pinpointed) {
    if (id == kFaulty) outcome.localized = true;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 10;
  std::uint64_t seed = 42;
  if (argc > 1) trials = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);

  std::printf("Crash recovery: post-restart localization accuracy\n");
  std::printf("(RUBiS CpuHog on db, %zu trials, base seed %llu)\n\n", trials,
              static_cast<unsigned long long>(seed));

  std::vector<Incident> incidents;
  for (std::size_t trial = 0; incidents.size() < trials && trial < 4 * trials;
       ++trial) {
    if (auto incident = simulateIncident(mixSeed(seed, 0xc4a5, trial))) {
      incidents.push_back(std::move(*incident));
    }
  }
  if (incidents.empty()) {
    std::printf("no trial produced an SLO violation\n");
    return 1;
  }

  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/fchain_bench_crash_trials";
  double base_localized = 0.0, base_coverage = 0.0;
  double crash_localized = 0.0, crash_coverage = 0.0;
  for (std::size_t trial = 0; trial < incidents.size(); ++trial) {
    const auto baseline =
        runTrial(incidents[trial], /*crash=*/false, 0, dir);
    // The crashing host rotates, so in 1/4 of trials it is the faulty VM's
    // own slave — the hard case where its learned state matters most.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto crashed =
        runTrial(incidents[trial], /*crash=*/true,
                 static_cast<ComponentId>(trial % kComponents), dir);
    base_localized += baseline.localized ? 1.0 : 0.0;
    base_coverage += baseline.coverage;
    crash_localized += crashed.localized ? 1.0 : 0.0;
    crash_coverage += crashed.coverage;
  }
  std::filesystem::remove_all(dir);

  const auto n = static_cast<double>(incidents.size());
  std::printf("Crash at tv-40 / recover at tv-20, rotating host\n");
  std::printf("  (%zu incidents with SLO violations)\n", incidents.size());
  std::printf("  %-22s %-10s %s\n", "", "localized", "coverage");
  std::printf("  %-22s %-10.2f %.2f\n", "baseline (no crash)",
              base_localized / n, base_coverage / n);
  std::printf("  %-22s %-10.2f %.2f\n", "crash + warm restart",
              crash_localized / n, crash_coverage / n);
  const double delta =
      std::fabs(base_localized - crash_localized) / (n > 0 ? n : 1.0);
  std::printf("  accuracy delta %.1f%% (acceptance bar: within 5%%)\n",
              delta * 100.0);
  return delta <= 0.05 ? 0 : 1;
}
