// Multi-process identity suite: golden scenarios replayed over real sockets
// against real fchain_slave daemon processes.
//
// The multi-process deployment claim is that the transport is *invisible in
// the verdict*: a localization computed over fork/exec'd slave daemons and
// unix-domain sockets renders byte-identically to the checked-in goldens the
// in-process reference produces — at 1 and at 4 slave processes, through a
// kill -9 mid-localization healed by daemon restart + checkpoint recovery +
// incident re-run. The goldens stay owned by test_golden_localization
// (read-only here); a mismatch means the wire codec, the daemon's ingest
// path, or recovery perturbed analysis bits.
//
// Each test fork/execs the real daemon binary (FCHAIN_SLAVE_BIN, baked in
// by CMake) — no in-process shortcuts; the sockets, process boundaries, and
// kill -9 are all real.
#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "fchain/slave_service.h"
#include "netdep/dependency.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "pinpoint_render.h"
#include "runtime/slave_registry.h"
#include "runtime/socket_endpoint.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

// --- Scenario simulation (identical to the golden suite's construction) ----

struct Scenario {
  /// samples[t][component] — one second of all six metrics.
  std::vector<std::array<std::array<double, kMetricCount>, 4>> samples;
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
};

Scenario simulate(const std::vector<faults::FaultSpec>& faults,
                  std::uint64_t seed) {
  Scenario scenario;
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  config.faults = faults;
  sim::Simulation sim(config);
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    scenario.samples.emplace_back();
    for (ComponentId id = 0; id < 4; ++id) {
      for (MetricKind kind : kAllMetrics) {
        scenario.samples.back()[id][metricIndex(kind)] =
            sim.app().metricsOf(id).of(kind).at(t);
      }
    }
  }
  EXPECT_TRUE(sim.violationTime().has_value());
  scenario.tv = sim.violationTime().value_or(sim.now());
  scenario.deps = netdep::discoverDependencies(sim.record());
  return scenario;
}

faults::FaultSpec cpuHogOnDb() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  return fault;
}

// --- Golden comparison (read-only: the goldens are owned elsewhere) --------

void expectMatchesGoldenReadOnly(const std::string& name,
                                 const std::string& actual) {
  const char* update = std::getenv("FCHAIN_UPDATE_GOLDEN");
  if (update != nullptr && update[0] != '\0' &&
      !(update[0] == '0' && update[1] == '\0')) {
    GTEST_SKIP() << "goldens are being regenerated by their owning suite";
  }
  const std::string path =
      std::string(FCHAIN_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "socket-transport localization diverged from " << path;
}

// --- Daemon process management ---------------------------------------------

struct Daemon {
  pid_t pid = -1;
  HostId host = 0;
  std::string listen;
  std::string state_dir;
  std::string manifest;
  double analyze_delay_ms = 0.0;
};

void spawn(Daemon& daemon) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    const std::string host = std::to_string(daemon.host);
    const std::string delay = std::to_string(daemon.analyze_delay_ms);
    if (daemon.analyze_delay_ms > 0.0) {
      execl(FCHAIN_SLAVE_BIN, "fchain_slave", "--listen",
            daemon.listen.c_str(), "--host", host.c_str(), "--components",
            daemon.manifest.c_str(), "--state-dir", daemon.state_dir.c_str(),
            "--analyze-delay-ms", delay.c_str(),
            static_cast<char*>(nullptr));
    } else {
      execl(FCHAIN_SLAVE_BIN, "fchain_slave", "--listen",
            daemon.listen.c_str(), "--host", host.c_str(), "--components",
            daemon.manifest.c_str(), "--state-dir", daemon.state_dir.c_str(),
            static_cast<char*>(nullptr));
    }
    _exit(127);
  }
  daemon.pid = pid;
}

void terminate(Daemon& daemon) {
  if (daemon.pid < 0) return;
  kill(daemon.pid, SIGTERM);
  int status = 0;
  waitpid(daemon.pid, &status, 0);
  daemon.pid = -1;
}

void killNine(Daemon& daemon) {
  ASSERT_GE(daemon.pid, 0);
  kill(daemon.pid, SIGKILL);
  int status = 0;
  waitpid(daemon.pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  daemon.pid = -1;
}

/// RAII teardown: no daemon outlives its test, pass or fail.
struct ProcessTree {
  std::vector<Daemon> daemons;
  std::string dir;
  ~ProcessTree() {
    for (Daemon& daemon : daemons) terminate(daemon);
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// Spawns one daemon per host partition over a fresh scratch dir. Socket
/// paths live under /tmp directly (mkdtemp) so they stay inside sun_path's
/// ~107-byte bound regardless of the test runner's TempDir.
void spawnPartition(ProcessTree& tree,
                    const std::vector<std::vector<ComponentId>>& partition,
                    double back_analyze_delay_ms = 0.0) {
  char dir_template[] = "/tmp/fcmpXXXXXX";
  const char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  tree.dir = dir;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    Daemon daemon;
    daemon.host = static_cast<HostId>(i);
    daemon.listen =
        std::string("unix:") + dir + "/s" + std::to_string(i) + ".sock";
    daemon.state_dir = std::string(dir) + "/state" + std::to_string(i);
    std::filesystem::create_directories(daemon.state_dir);
    std::string manifest;
    for (ComponentId id : partition[i]) {
      if (!manifest.empty()) manifest += ",";
      manifest += std::to_string(id) + ":0";
    }
    daemon.manifest = manifest;
    if (i + 1 == partition.size()) {
      daemon.analyze_delay_ms = back_analyze_delay_ms;
    }
    spawn(daemon);
    if (::testing::Test::HasFatalFailure()) return;
    tree.daemons.push_back(std::move(daemon));
  }
}

std::shared_ptr<runtime::SocketEndpoint> endpointFor(
    const Daemon& daemon, obs::MetricRegistry* registry) {
  runtime::SocketEndpointConfig config;
  config.address = runtime::SocketAddress::parse(daemon.listen);
  config.registry = registry;
  return std::make_shared<runtime::SocketEndpoint>(config);
}

void waitUp(runtime::SocketEndpoint& endpoint) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (endpoint.listComponents().status == runtime::EndpointStatus::Ok) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  FAIL() << "daemon at " << endpoint.address().str() << " never came up";
}

/// Streams every sample of the scenario to its owning endpoint, retrying
/// through transient failures (a retried second hits the slave's duplicate
/// path, which is value-safe).
void streamScenario(
    const Scenario& scenario,
    const std::vector<std::vector<ComponentId>>& partition,
    const std::vector<std::shared_ptr<runtime::SocketEndpoint>>& endpoints) {
  std::array<std::size_t, 4> owner{};
  for (std::size_t i = 0; i < partition.size(); ++i) {
    for (ComponentId id : partition[i]) owner[id] = i;
  }
  for (std::size_t t = 0; t < scenario.samples.size(); ++t) {
    for (ComponentId id = 0; id < 4; ++id) {
      runtime::IngestRequest request;
      request.component = id;
      request.t = static_cast<TimeSec>(t);
      request.sample = scenario.samples[t][id];
      bool delivered = false;
      for (int attempt = 0; attempt < 100 && !delivered; ++attempt) {
        delivered = endpoints[owner[id]]->ingest(request).status ==
                    runtime::EndpointStatus::Ok;
        if (!delivered) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      ASSERT_TRUE(delivered) << "sample t=" << t << " component=" << int(id)
                             << " undeliverable";
    }
  }
}

/// Full socket-transport localization of a scenario over a partition of
/// daemon processes; returns the rendered verdict.
std::string localizeOverSockets(
    const Scenario& scenario,
    const std::vector<std::vector<ComponentId>>& partition,
    ProcessTree& tree, obs::MetricRegistry* registry = nullptr) {
  spawnPartition(tree, partition);
  if (::testing::Test::HasFatalFailure()) return {};
  std::vector<std::shared_ptr<runtime::SocketEndpoint>> endpoints;
  for (const Daemon& daemon : tree.daemons) {
    endpoints.push_back(endpointFor(daemon, registry));
    waitUp(*endpoints.back());
    if (::testing::Test::HasFatalFailure()) return {};
  }
  streamScenario(scenario, partition, endpoints);
  if (::testing::Test::HasFatalFailure()) return {};
  FChainMaster master;
  runtime::SlaveRegistry registry_claims;
  for (auto& endpoint : endpoints) {
    connectSlave(master, registry_claims, endpoint);
  }
  master.setDependencies(scenario.deps);
  const PinpointResult result = master.localize({0, 1, 2, 3}, scenario.tv);
  return renderPinpoint(result, scenario.tv);
}

// --- Identity at 1 and 4 slave processes ------------------------------------

TEST(MultiprocessIdentity, SingleFaultByteIdenticalAtOneSlaveProcess) {
  const Scenario scenario = simulate({cpuHogOnDb()}, /*seed=*/77);
  ProcessTree tree;
  const std::string verdict =
      localizeOverSockets(scenario, {{0, 1, 2, 3}}, tree);
  if (HasFatalFailure()) return;
  expectMatchesGoldenReadOnly("single_fault", verdict);
}

TEST(MultiprocessIdentity, SingleFaultByteIdenticalAtFourSlaveProcesses) {
  const Scenario scenario = simulate({cpuHogOnDb()}, /*seed=*/77);
  ProcessTree tree;
  obs::MetricRegistry registry;
  const std::string verdict =
      localizeOverSockets(scenario, {{0}, {1}, {2}, {3}}, tree, &registry);
  if (HasFatalFailure()) return;
  expectMatchesGoldenReadOnly("single_fault", verdict);
  // The transport metrics must tell the story of a clean run: one connect
  // per daemon, no reconnects, no damage, and every sample + analysis frame
  // accounted for both ways.
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(), 4u);
  EXPECT_EQ(registry.counter("runtime.socket.reconnects").value(), 0u);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 0u);
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 0u);
  const std::uint64_t tx =
      registry.counter("runtime.socket.frames_tx").value();
  const std::uint64_t rx =
      registry.counter("runtime.socket.frames_rx").value();
  EXPECT_EQ(tx, rx);  // strict request/reply protocol
  // ≥ one ingest frame per sample-second per component plus handshakes.
  EXPECT_GT(tx, scenario.samples.size() * 4);
}

TEST(MultiprocessIdentity, ConcurrentFaultByteIdenticalOverSockets) {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::OffloadBug;
  fault.targets = {1, 2};
  fault.start_time = 2000;
  const Scenario scenario = simulate({fault}, /*seed=*/77);
  ProcessTree tree;
  const std::string verdict =
      localizeOverSockets(scenario, {{0, 1}, {2, 3}}, tree);
  if (HasFatalFailure()) return;
  expectMatchesGoldenReadOnly("concurrent_fault", verdict);
}

// --- Degraded mode: one slave process never comes up -------------------------

TEST(MultiprocessIdentity, DegradedOneSlaveProcessDownMatchesGolden) {
  const Scenario scenario = simulate({cpuHogOnDb()}, /*seed=*/77);
  ProcessTree tree;
  // Only the back daemon exists; the front one never starts.
  spawnPartition(tree, {{2, 3}});
  if (HasFatalFailure()) return;

  auto back_endpoint = endpointFor(tree.daemons[0], nullptr);
  waitUp(*back_endpoint);
  if (HasFatalFailure()) return;
  // Stream only the back components; the front slave never existed.
  for (std::size_t t = 0; t < scenario.samples.size(); ++t) {
    for (ComponentId id = 2; id < 4; ++id) {
      runtime::IngestRequest request;
      request.component = id;
      request.t = static_cast<TimeSec>(t);
      request.sample = scenario.samples[t][id];
      ASSERT_EQ(back_endpoint->ingest(request).status,
                runtime::EndpointStatus::Ok);
    }
  }

  // The front endpoint points at a socket that was never bound: a manifest
  // registration (component claims known from deployment config, process
  // dark). A short connect timeout keeps the degraded run fast.
  runtime::SocketEndpointConfig front_config;
  front_config.address = runtime::SocketAddress::parse(
      std::string("unix:") + tree.dir + "/never_started.sock");
  front_config.connect_timeout_ms = 100.0;
  auto front_endpoint =
      std::make_shared<runtime::SocketEndpoint>(front_config);

  FChainMaster master;
  runtime::SlaveRegistry registry;
  master.registerEndpoint(front_endpoint, {0, 1});
  connectSlave(master, registry, back_endpoint);
  master.setDependencies(scenario.deps);
  const PinpointResult result = master.localize({0, 1, 2, 3}, scenario.tv);
  EXPECT_DOUBLE_EQ(result.coverage, 0.5);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{0, 1}));
  expectMatchesGoldenReadOnly("degraded_one_slave_down",
                              renderPinpoint(result, scenario.tv));
}

// --- The kill -9 drill -------------------------------------------------------

TEST(MultiprocessIdentity, KillNineMidLocalizationHealedByRecoveryAndRerun) {
  const Scenario scenario = simulate({cpuHogOnDb()}, /*seed=*/77);
  const std::vector<std::vector<ComponentId>> partition = {{0, 1}, {2, 3}};
  ProcessTree tree;
  // The back daemon sleeps 300 ms before serving each analyze batch, giving
  // the drill a deterministic window to kill -9 it mid-localization.
  spawnPartition(tree, partition, /*back_analyze_delay_ms=*/300.0);
  if (HasFatalFailure()) return;

  obs::MetricRegistry registry;
  std::vector<std::shared_ptr<runtime::SocketEndpoint>> endpoints;
  for (const Daemon& daemon : tree.daemons) {
    endpoints.push_back(endpointFor(daemon, &registry));
    waitUp(*endpoints.back());
    if (HasFatalFailure()) return;
  }
  streamScenario(scenario, partition, endpoints);
  if (HasFatalFailure()) return;

  // The incident journal records the localization *before* it runs — the
  // on-disk state a master leaves when it starts an incident and the
  // process tree comes apart underneath it.
  const std::string journal_path = tree.dir + "/incidents.journal";
  persist::IncidentJournal journal(journal_path);
  journal.logStart({0, 1, 2, 3}, scenario.tv);

  // Localize live, kill -9 the back daemon mid-analyze (it is asleep in its
  // 300 ms drill delay when the signal lands).
  PinpointResult degraded;
  {
    FChainMaster master;
    runtime::SlaveRegistry claims;
    for (auto& endpoint : endpoints) connectSlave(master, claims, endpoint);
    master.setDependencies(scenario.deps);
    std::thread localizer([&] {
      degraded = master.localize({0, 1, 2, 3}, scenario.tv);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    killNine(tree.daemons[1]);
    localizer.join();
  }
  // The kill must actually have disrupted the incident: the back host's
  // components went unanalyzed, coverage dropped, and the wire recorded the
  // violence.
  EXPECT_EQ(degraded.unanalyzed, (std::vector<ComponentId>{2, 3}));
  EXPECT_DOUBLE_EQ(degraded.coverage, 0.5);
  EXPECT_GE(registry.counter("runtime.socket.torn_frames").value() +
                registry.counter("runtime.socket.connects").value(),
            2u);

  // Heal: restart the daemon on its state directory (checkpoint recovery
  // rebuilds the models bit-identically — journal-then-ingest made every
  // streamed sample durable before it was acknowledged), re-register the
  // *same* endpoints (identity pinning accepts the recovered twin), and
  // re-run the incident the journal still holds as pending.
  tree.daemons[1].analyze_delay_ms = 0.0;
  spawn(tree.daemons[1]);
  if (HasFatalFailure()) return;
  waitUp(*endpoints[1]);
  if (HasFatalFailure()) return;
  EXPECT_GE(registry.counter("runtime.socket.reconnects").value(), 1u);

  FChainMaster healed;
  runtime::SlaveRegistry claims;
  for (auto& endpoint : endpoints) connectSlave(healed, claims, endpoint);
  healed.setDependencies(scenario.deps);
  const auto reruns = rerunPendingIncidents(healed, journal);
  ASSERT_EQ(reruns.size(), 1u);
  EXPECT_EQ(reruns[0].components, (std::vector<ComponentId>{0, 1, 2, 3}));
  EXPECT_EQ(reruns[0].violation_time, scenario.tv);
  // The healed re-run must be byte-identical to the never-crashed golden.
  expectMatchesGoldenReadOnly(
      "single_fault", renderPinpoint(reruns[0].result, scenario.tv));
  // And nothing stays pending.
  EXPECT_TRUE(persist::IncidentJournal::pending(journal_path).empty());
}

}  // namespace
}  // namespace fchain::core
