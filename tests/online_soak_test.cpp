// Multi-application soak: hours of simulated 1 Hz traffic streamed through
// one OnlineMonitor, with three staggered fault injections across three
// different benchmark applications (RUBiS latency SLO, System S latency SLO,
// Hadoop progress SLO) sharing one global component-id space.
//
// What the soak certifies, per ISSUE acceptance:
//   - every injected incident is auto-detected (SLO latch) and localized,
//     including one that latches inside another incident's cooldown and
//     fires late from the queue;
//   - every online result is bit-identical to the offline pipeline run over
//     the record as of the trigger tick (for queued incidents the slave has
//     kept learning past tv, so the offline comparator replays the model to
//     the trigger-time series end — localizeRecord's tv+1 replay is the
//     degenerate immediate-trigger case);
//   - the PR-4 durability paths ride along: the incident journal holds no
//     pending entries at the end, and a checkpointed slave's persisted
//     state recovers to the exact live series;
//   - every slave's state stays bounded by its retention (slave.h), however
//     long the run.
//
// Scale: FCHAIN_SOAK_TICKS overrides the simulated duration (default 7200
// ticks = 2 simulated hours; CI's soak job runs 28 800). All triggering is
// in sample time, so every scale replays the same first incident of each
// application. Longer runs add incidents: the RUBiS CpuHog never ends, but
// its latency recovers for `rearm_good_sec` now and then, the monitor
// re-arms (black-box, it cannot tell a recovered fault from a new one), and
// the next sustained violation is a new incident. Every incident, re-latches
// included, must match the offline replay bit for bit.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpointed_endpoint.h"
#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "netdep/dependency.h"
#include "online/monitor.h"
#include "pinpoint_equal.h"
#include "pinpoint_render.h"
#include "sim/apps.h"
#include "sim/stream.h"

namespace fchain::online {
namespace {

std::size_t soakTicks() {
  const char* env = std::getenv("FCHAIN_SOAK_TICKS");
  if (env == nullptr || env[0] == '\0') return 7200;
  const unsigned long long ticks = std::strtoull(env, nullptr, 10);
  // The third fault starts at t=3400; below this floor the run could end
  // before its latch and the soak would vacuously "pass" with 2 incidents.
  return std::max<std::size_t>(5000, static_cast<std::size_t>(ticks));
}

faults::FaultSpec fault(faults::FaultType type, std::vector<ComponentId> on,
                        TimeSec start, double intensity = 1.0) {
  faults::FaultSpec spec;
  spec.type = type;
  spec.targets = std::move(on);
  spec.start_time = start;
  spec.intensity = intensity;
  return spec;
}

struct SoakApp {
  std::string name;
  sim::ScenarioConfig config;
  ComponentId offset = 0;
  SloSpec slo;
};

/// The three-application fleet. Fault starts are staggered so that the
/// System S latch lands inside the RUBiS incident's 600 s cooldown (forcing
/// the queued-trigger path) while the Hadoop latch fires after it expires.
std::vector<SoakApp> fleet(std::size_t ticks) {
  std::vector<SoakApp> apps(3);

  apps[0].name = "rubis";
  apps[0].config.kind = sim::AppKind::Rubis;
  apps[0].config.seed = 77;
  apps[0].config.faults = {
      fault(faults::FaultType::CpuHog, {3}, 2000, 1.35)};
  apps[0].offset = 0;

  apps[1].name = "streams";
  apps[1].config.kind = sim::AppKind::SystemS;
  apps[1].config.seed = 101;
  apps[1].config.faults = {
      fault(faults::FaultType::CpuHog, {2}, 2300, 1.4)};
  apps[1].offset = 4;

  apps[2].name = "batch";
  apps[2].config.kind = sim::AppKind::Hadoop;
  apps[2].config.seed = 55;
  // The paper's Hadoop "CpuHog": an infinite-loop bug in every map task.
  apps[2].config.faults = {
      fault(faults::FaultType::InfiniteLoop, {0, 1, 2}, 3400)};
  apps[2].offset = 11;
  apps[2].slo.kind = SloSpec::Kind::Progress;

  for (SoakApp& app : apps) {
    app.config.duration_sec = ticks;  // workload trace must cover the run
    if (app.slo.kind == SloSpec::Kind::Latency) {
      app.slo.latency_threshold_sec = sim::sloLatencyThreshold(app.config.kind);
      app.slo.sustain_sec = app.config.slo_sustain_sec;
    }
  }
  return apps;
}

/// Offline reference for one app: expected latch time + the dependency graph
/// the online master must hold before streaming starts (discovery is
/// deterministic on the seeded scenario).
struct OfflineReference {
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

OfflineReference offlineReference(const sim::ScenarioConfig& config) {
  OfflineReference ref;
  sim::Simulation sim(config);
  const auto duration = static_cast<TimeSec>(config.duration_sec);
  while (!sim.violationTime().has_value() && sim.now() < duration) sim.step();
  EXPECT_TRUE(sim.violationTime().has_value());
  ref.tv = sim.violationTime().value_or(0);
  ref.deps = netdep::discoverDependencies(sim.record());
  return ref;
}

/// The offline side of the equivalence check: FChain over a recorded window
/// whose series may extend past tv (a queued trigger fired late, after the
/// slaves kept learning). The model is replayed to the series end — exactly
/// the online slave's continuously learned state at the trigger tick. When
/// the series ends at tv + 1 this is core::localizeRecord.
core::PinpointResult replayLocalize(const sim::RunRecord& record, TimeSec tv,
                                    const netdep::DependencyGraph* deps,
                                    const core::FChainConfig& config) {
  core::AbnormalChangeSelector selector(config);
  std::vector<core::ComponentFinding> findings;
  for (ComponentId id = 0; id < record.metrics.size(); ++id) {
    const auto model = core::replayModel(
        record.metrics[id], record.metrics[id].endTime(), config.predictor);
    if (auto finding =
            selector.analyzeComponent(id, record.metrics[id], model, tv)) {
      findings.push_back(std::move(*finding));
    }
  }
  core::IntegratedPinpointer pinpointer(config);
  return pinpointer.pinpoint(std::move(findings), record.metrics.size(),
                             deps);
}

/// Maps an online result from global ids back into one app's local id space.
core::PinpointResult shiftDown(core::PinpointResult result,
                               ComponentId offset) {
  for (ComponentId& id : result.pinpointed) id -= offset;
  for (ComponentId& id : result.unanalyzed) id -= offset;
  for (core::ComponentFinding& finding : result.chain) {
    finding.component -= offset;
  }
  return result;
}

TEST(OnlineSoak, MultiAppHoursLongRunLocalizesEveryIncidentBitIdentically) {
  const std::size_t ticks = soakTicks();
  const std::vector<SoakApp> apps = fleet(ticks);

  // Pass 1: per-app offline references, then the merged global dependency
  // graph (System S contributes nothing — the paper's streaming negative
  // finding — and no cross-application edges exist by construction).
  std::vector<OfflineReference> refs;
  std::size_t total_components = 0;
  std::vector<std::unique_ptr<sim::StreamingSource>> sources;
  for (const SoakApp& app : apps) {
    refs.push_back(offlineReference(app.config));
    sources.push_back(
        std::make_unique<sim::StreamingSource>(app.config, app.offset));
    total_components += sources.back()->componentCount();
  }
  // Per-app graphs lifted into the global id space. Kept separate per app
  // (not merged into one cluster graph): System S discovery finds nothing —
  // the paper's negative finding — and its localization must keep the
  // chronology-only fallback, which a merged non-empty graph would defeat.
  std::vector<netdep::DependencyGraph> global_deps;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    netdep::DependencyGraph lifted(total_components);
    const auto& adjacency = refs[a].deps.adjacency();
    for (ComponentId from = 0; from < adjacency.size(); ++from) {
      for (ComponentId to : adjacency[from]) {
        lifted.addEdge(apps[a].offset + from, apps[a].offset + to);
      }
    }
    global_deps.push_back(std::move(lifted));
  }

  // One slave per application; the RUBiS slave is additionally checkpointed
  // (journal-then-ingest durability under sustained streaming load).
  // Per process: two soak runs at once must not share a state directory.
  const std::string state_dir = ::testing::TempDir() + "/online_soak_state_" +
                                std::to_string(::getpid());
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  const core::FChainConfig fchain;  // slaves, master and offline replay
  OnlineMonitorConfig cfg;
  cfg.cooldown_sec = 600;
  cfg.ingest_deadline_ms = 1000.0;

  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    slaves.push_back(std::make_unique<core::FChainSlave>(
        static_cast<HostId>(a), fchain));
    for (ComponentId id : sources[a]->componentIds()) {
      slaves.back()->addComponent(id, /*start_time=*/0);
    }
  }
  core::CheckpointPolicy checkpoint_policy;
  checkpoint_policy.snapshot_interval_sec = 1800;
  core::SlaveCheckpointer checkpointer(*slaves[0], state_dir,
                                       checkpoint_policy);

  persist::IncidentJournal journal(state_dir + "/incidents.journal");
  core::FChainMaster master(fchain);
  master.setWorkerThreads(2);
  master.setIncidentJournal(&journal);

  OnlineMonitor monitor(cfg, master);
  monitor.addEndpoint(std::make_shared<CheckpointedEndpoint>(slaves[0].get(),
                                                             &checkpointer),
                      sources[0]->componentIds());
  for (std::size_t a = 1; a < apps.size(); ++a) {
    monitor.addSlave(slaves[a].get());
  }

  std::vector<std::size_t> app_index;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    AppSpec spec;
    spec.name = apps[a].name;
    spec.components = sources[a]->componentIds();
    spec.slo = apps[a].slo;
    app_index.push_back(monitor.addApplication(spec));
    monitor.setDependencies(app_index.back(), global_deps[a]);
  }

  // The equivalence harness: capture each app's record at the exact trigger
  // tick (the callback runs synchronously inside observe()/pump()).
  struct Captured {
    OnlineIncident incident;
    sim::RunRecord record;
  };
  std::vector<Captured> captured;
  monitor.onIncident([&](const OnlineIncident& incident) {
    captured.push_back({incident, sources[incident.app]->record()});
  });

  // Pass 2: the lockstep stream. Per tick: ingest every component of every
  // app, observe every SLO signal, then pump queued triggers.
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    std::array<sim::StreamTick, 3> slo_ticks;
    for (std::size_t a = 0; a < apps.size(); ++a) {
      slo_ticks[a] = sources[a]->step(
          [&](const sim::StreamSample& sample) { monitor.ingest(sample); });
    }
    for (std::size_t a = 0; a < apps.size(); ++a) {
      monitor.observe(app_index[a], slo_ticks[a]);
    }
    monitor.pump();
  }
  monitor.drain();

  // --- Every incident detected -------------------------------------------
  // Each app's first incident is the latch the simulator's own reference SLO
  // monitor saw; a later one re-latched after at least rearm_good_sec of
  // recovered signal.
  std::vector<const Captured*> first(apps.size(), nullptr);
  std::vector<TimeSec> last_latch(apps.size(), 0);
  for (const Captured& c : captured) {
    ASSERT_LT(c.incident.app, apps.size());
    const std::string& name = apps[c.incident.app].name;
    if (first[c.incident.app] == nullptr) {
      first[c.incident.app] = &c;
      EXPECT_EQ(c.incident.violation_time, refs[c.incident.app].tv) << name;
    } else {
      EXPECT_GE(c.incident.violation_time,
                last_latch[c.incident.app] + cfg.rearm_good_sec)
          << name << " re-latched before its monitor could re-arm";
    }
    last_latch[c.incident.app] = c.incident.violation_time;
  }
  for (std::size_t a = 0; a < apps.size(); ++a) {
    EXPECT_NE(first[a], nullptr) << apps[a].name << " never triggered";
  }

  // Every latch fired exactly one localization (none was dropped), and the
  // stagger forces the queued path: the System S latch lands inside the
  // RUBiS cooldown and fires late, violation anchor preserved.
  const auto snap = monitor.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("online.triggers"), captured.size());
  EXPECT_EQ(snap.counters.at("online.slo_latches"), captured.size());
  EXPECT_GE(snap.counters.at("online.incidents_queued"), 1u);
  EXPECT_EQ(snap.counters.at("online.incidents_dropped"), 0u);
  const bool any_queued = std::any_of(
      captured.begin(), captured.end(),
      [](const Captured& c) { return c.incident.queued_delay_sec > 0; });
  EXPECT_TRUE(any_queued);

  // --- Bit-identity: online trigger == offline replay over same window ---
  for (const Captured& c : captured) {
    const SoakApp& app = apps[c.incident.app];
    const core::PinpointResult offline = replayLocalize(
        c.record, c.incident.violation_time, &refs[c.incident.app].deps,
        fchain);
    const core::PinpointResult online =
        shiftDown(c.incident.result, app.offset);
    EXPECT_EQ(core::renderPinpoint(online, c.incident.violation_time),
              core::renderPinpoint(offline, c.incident.violation_time))
        << app.name << " online result diverged from offline replay (tv="
        << c.incident.violation_time << ", triggered_at="
        << c.incident.triggered_at << ")";
    EXPECT_DOUBLE_EQ(online.coverage, offline.coverage) << app.name;
    EXPECT_EQ(online.pinpointed, offline.pinpointed) << app.name;
    // Every field, the error doubles too: the slaves keep only their
    // retention, and a queued incident is analysed after they kept
    // ingesting, so this is what proves the retention covers the queue lag.
    EXPECT_TRUE(core::samePinpoint(online, offline))
        << app.name << " online result differs from offline replay in a "
        << "field the rendering leaves out (tv=" << c.incident.violation_time
        << ", triggered_at=" << c.incident.triggered_at << ")";
  }
  // Ground truth spot-check on the best-understood scenario: the RUBiS
  // CpuHog's first incident blames the db VM (local id 3), as the goldens
  // pin. Its re-latches come hours into a fault whose onset has long left
  // the look-back window, so they carry no ground truth.
  ASSERT_NE(first[0], nullptr);
  EXPECT_EQ(shiftDown(first[0]->incident.result, apps[0].offset).pinpointed,
            (std::vector<ComponentId>{3}));

  // --- Bounded state -------------------------------------------------------
  // Hours of uptime, yet each VM holds at most its retention plus the
  // quarter it may grow before the next trim.
  const auto keep = static_cast<std::size_t>(core::retentionSec(fchain));
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (ComponentId id : sources[a]->componentIds()) {
      ASSERT_NE(slaves[a]->seriesOf(id), nullptr);
      EXPECT_LE(slaves[a]->seriesOf(id)->size(), keep + keep / 4)
          << apps[a].name << " component " << id;
    }
  }

  // --- PR-4 durability paths ---------------------------------------------
  EXPECT_TRUE(persist::IncidentJournal::pending(journal.path()).empty())
      << "an incident was journaled as started but never marked done";
  EXPECT_GT(checkpointer.epoch(), 0u);
  const auto recovered =
      core::SlaveCheckpointer::recover(state_dir, 0, fchain);
  for (ComponentId id : sources[0]->componentIds()) {
    ASSERT_NE(recovered.slave.seriesOf(id), nullptr);
    ASSERT_NE(slaves[0]->seriesOf(id), nullptr);
    EXPECT_EQ(recovered.slave.seriesOf(id)->endTime(),
              slaves[0]->seriesOf(id)->endTime());
  }
}

}  // namespace
}  // namespace fchain::online
