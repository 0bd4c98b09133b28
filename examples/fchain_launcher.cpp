// fchain_launcher — multi-process deployment supervisor + crash drill.
//
// Spawns N fchain_slave daemons (fork/exec, unix-domain sockets, per-slave
// checkpoint directories), streams the canonical RUBiS CpuHog incident to
// them over the real wire protocol (one ingest batch per slave per tick, as
// the online monitor sends them), restarts any daemon that dies, and
// localizes the incident through SocketEndpoints. The verdict is compared
// field-for-field (doubles included) against an in-process reference run
// over LocalEndpoints: the socket transport must be invisible in the result.
//
// With --drill the supervisor SIGKILLs one slave mid-ingest. The restart
// loop revives it, checkpoint recovery rebuilds its models bit-identically
// (journal-then-ingest), the supervisor's ingest loop re-sends the failed
// batch until the SocketEndpoint reconnects (each call makes one connect),
// and the final localization must still match the reference byte-for-byte
// — the full kill -9 -> restart -> recover -> heal story in one process
// tree.
//
//   fchain_launcher [--slaves N] [--drill] [--log <path>]
//                   [--slave-bin <path>]
//
// Everything the supervisor does is logged to --log (default
// fchain_launcher.log beside the cwd); slave daemon stdout/stderr are
// redirected into the same file so a CI failure artifact holds the whole
// process tree's story, READY/recovery lines included. Exit code 0 iff the
// socket-transport verdict matches the in-process reference.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fchain/fchain.h"
#include "fchain/slave_service.h"
#include "netdep/dependency.h"
#include "obs/metrics.h"
#include "runtime/slave_registry.h"
#include "runtime/socket_endpoint.h"
#include "sim/simulator.h"

namespace {

using namespace fchain;

// --- Supervisor log (also receives the daemons' stdout/stderr) ------------

std::FILE* g_log = nullptr;

void logf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::va_list copy;
  va_copy(copy, args);
  std::vprintf(fmt, args);
  std::printf("\n");
  if (g_log != nullptr) {
    std::vfprintf(g_log, fmt, copy);
    std::fprintf(g_log, "\n");
    std::fflush(g_log);
  }
  va_end(copy);
  va_end(args);
  std::fflush(stdout);
}

// --- Slave process management ---------------------------------------------

struct SlaveProc {
  HostId host = 0;
  std::string listen;      ///< unix:<path> socket spec
  std::string components;  ///< id:start,... manifest argument
  std::string state_dir;
  pid_t pid = -1;
  int restarts = 0;
};

std::string g_slave_bin;

void spawnSlave(SlaveProc& proc) {
  const pid_t pid = fork();
  if (pid < 0) {
    logf("launcher: fork failed: %s", std::strerror(errno));
    std::exit(1);
  }
  if (pid == 0) {
    // Child: fold the daemon's output into the supervisor log, then exec.
    if (g_log != nullptr) {
      const int fd = fileno(g_log);
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
    }
    const std::string host = std::to_string(proc.host);
    execl(g_slave_bin.c_str(), "fchain_slave", "--listen",
          proc.listen.c_str(), "--host", host.c_str(), "--components",
          proc.components.c_str(), "--state-dir", proc.state_dir.c_str(),
          static_cast<char*>(nullptr));
    std::fprintf(stderr, "launcher: exec %s failed: %s\n",
                 g_slave_bin.c_str(), std::strerror(errno));
    _exit(127);
  }
  proc.pid = pid;
  logf("launcher: slave host=%u pid=%d listening on %s (restart #%d)",
       proc.host, static_cast<int>(pid), proc.listen.c_str(), proc.restarts);
}

/// Reaps dead slaves and restarts them — the supervisor's core loop body.
/// Returns the number of restarts performed.
int reapAndRestart(std::vector<SlaveProc>& slaves) {
  int restarted = 0;
  for (auto& proc : slaves) {
    if (proc.pid < 0) continue;
    int status = 0;
    const pid_t r = waitpid(proc.pid, &status, WNOHANG);
    if (r != proc.pid) continue;
    if (WIFSIGNALED(status)) {
      logf("launcher: slave host=%u pid=%d died on signal %d; restarting",
           proc.host, static_cast<int>(proc.pid), WTERMSIG(status));
    } else {
      logf("launcher: slave host=%u pid=%d exited with %d; restarting",
           proc.host, static_cast<int>(proc.pid), WEXITSTATUS(status));
    }
    ++proc.restarts;
    ++restarted;
    spawnSlave(proc);
  }
  return restarted;
}

void stopAll(std::vector<SlaveProc>& slaves) {
  for (auto& proc : slaves) {
    if (proc.pid < 0) continue;
    kill(proc.pid, SIGTERM);
  }
  for (auto& proc : slaves) {
    if (proc.pid < 0) continue;
    int status = 0;
    waitpid(proc.pid, &status, 0);
    proc.pid = -1;
  }
}

// --- Verdict comparison ---------------------------------------------------

/// Full-fidelity rendering, raw doubles included: both runs execute on this
/// machine, so the socket transport's f64 bit-cast codec must reproduce
/// every prediction error bit-for-bit — a stronger pin than the
/// cross-platform goldens take.
std::string summarize(const core::PinpointResult& result) {
  std::ostringstream out;
  out << "pinpointed=[";
  for (std::size_t i = 0; i < result.pinpointed.size(); ++i) {
    out << (i != 0 ? "," : "") << result.pinpointed[i];
  }
  out << "] coverage=" << result.coverage << " external="
      << (result.external_factor ? 1 : 0)
      << " trend=" << static_cast<int>(result.external_trend)
      << " unanalyzed=[";
  for (std::size_t i = 0; i < result.unanalyzed.size(); ++i) {
    out << (i != 0 ? "," : "") << result.unanalyzed[i];
  }
  out << "]\n";
  char buf[64];
  for (const auto& finding : result.chain) {
    out << "chain component=" << finding.component
        << " onset=" << finding.onset
        << " trend=" << static_cast<int>(finding.trend) << "\n";
    for (const auto& metric : finding.metrics) {
      std::snprintf(buf, sizeof(buf), "%.17g/%.17g", metric.prediction_error,
                    metric.expected_error);
      out << "  metric=" << static_cast<int>(metric.metric)
          << " onset=" << metric.onset
          << " change_point=" << metric.change_point
          << " trend=" << static_cast<int>(metric.trend) << " err=" << buf
          << "\n";
    }
  }
  return out.str();
}

struct Options {
  int slaves = 2;
  bool drill = false;
  std::string log_path = "fchain_launcher.log";
  std::string slave_bin;
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--slaves") {
      opt.slaves = std::atoi(value().c_str());
    } else if (arg == "--drill") {
      opt.drill = true;
    } else if (arg == "--log") {
      opt.log_path = value();
    } else if (arg == "--slave-bin") {
      opt.slave_bin = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--slaves N] [--drill] [--log path] "
                   "[--slave-bin path]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (opt.slaves < 1 || opt.slaves > 4) {
    std::fprintf(stderr, "--slaves must be 1..4\n");
    std::exit(2);
  }
  return opt;
}

std::string siblingSlaveBin() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "fchain_slave";
  buf[n] = '\0';
  return (std::filesystem::path(buf).parent_path() / "fchain_slave").string();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  g_slave_bin = opt.slave_bin.empty() ? siblingSlaveBin() : opt.slave_bin;
  g_log = std::fopen(opt.log_path.c_str(), "w");
  if (g_log == nullptr) {
    std::fprintf(stderr, "cannot open log %s\n", opt.log_path.c_str());
    return 1;
  }

  constexpr int kComponents = 4;
  logf("launcher: %d slave processes over %d components, drill=%d, slave "
       "binary %s",
       opt.slaves, kComponents, opt.drill ? 1 : 0, g_slave_bin.c_str());

  // --- Simulate the canonical incident once, up front --------------------
  // (RUBiS CpuHog on the db VM, seed 77 — the golden suite's single_fault.)
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  sim::ScenarioConfig sim_config;
  sim_config.kind = sim::AppKind::Rubis;
  sim_config.seed = 77;
  sim_config.faults = {fault};
  sim::Simulation sim(sim_config);
  std::vector<std::array<std::array<double, kMetricCount>, kComponents>>
      samples;
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    samples.emplace_back();
    for (ComponentId id = 0; id < kComponents; ++id) {
      for (MetricKind kind : kAllMetrics) {
        samples.back()[id][metricIndex(kind)] =
            sim.app().metricsOf(id).of(kind).at(t);
      }
    }
  }
  if (!sim.violationTime().has_value()) {
    logf("launcher: simulation never violated its SLO; aborting");
    return 1;
  }
  const TimeSec tv = *sim.violationTime();
  const netdep::DependencyGraph deps = netdep::discoverDependencies(
      sim.record());
  logf("launcher: incident simulated, violation at t=%lld over %zu seconds",
       static_cast<long long>(tv), samples.size());

  // Contiguous component partition: slave i owns [i*4/N, (i+1)*4/N).
  std::array<int, kComponents> owner{};
  for (ComponentId id = 0; id < kComponents; ++id) {
    owner[id] = static_cast<int>(id) * opt.slaves / kComponents;
  }

  // --- In-process reference run ------------------------------------------
  // Same partition, same ingestAt path the daemons use, LocalEndpoints.
  std::string reference;
  {
    std::vector<std::unique_ptr<core::FChainSlave>> ref_slaves;
    for (int i = 0; i < opt.slaves; ++i) {
      ref_slaves.push_back(
          std::make_unique<core::FChainSlave>(static_cast<HostId>(i)));
    }
    for (ComponentId id = 0; id < kComponents; ++id) {
      ref_slaves[owner[id]]->addComponent(id, 0);
    }
    for (std::size_t t = 0; t < samples.size(); ++t) {
      for (ComponentId id = 0; id < kComponents; ++id) {
        ref_slaves[owner[id]]->ingestAt(id, static_cast<TimeSec>(t),
                                        samples[t][id]);
      }
    }
    core::FChainMaster master;
    for (auto& slave : ref_slaves) master.registerSlave(slave.get());
    master.setDependencies(deps);
    reference = summarize(master.localize({0, 1, 2, 3}, tv));
  }
  logf("launcher: reference verdict:\n%s", reference.c_str());

  // --- Spawn the process tree --------------------------------------------
  char dir_template[] = "/tmp/fchain_launcher_XXXXXX";
  const char* work_dir = mkdtemp(dir_template);
  if (work_dir == nullptr) {
    logf("launcher: mkdtemp failed: %s", std::strerror(errno));
    return 1;
  }
  std::vector<SlaveProc> slaves(static_cast<std::size_t>(opt.slaves));
  for (int i = 0; i < opt.slaves; ++i) {
    SlaveProc& proc = slaves[static_cast<std::size_t>(i)];
    proc.host = static_cast<HostId>(i);
    proc.listen = std::string("unix:") + work_dir + "/s" +
                  std::to_string(i) + ".sock";
    proc.state_dir = std::string(work_dir) + "/state" + std::to_string(i);
    std::filesystem::create_directories(proc.state_dir);
    std::string manifest;
    for (ComponentId id = 0; id < kComponents; ++id) {
      if (owner[id] != i) continue;
      if (!manifest.empty()) manifest += ",";
      manifest += std::to_string(id) + ":0";
    }
    proc.components = manifest;
    spawnSlave(proc);
  }

  // --- Connect endpoints (waiting out daemon startup) ---------------------
  std::vector<std::shared_ptr<runtime::SocketEndpoint>> endpoints;
  for (const auto& proc : slaves) {
    runtime::SocketEndpointConfig config;
    config.address = runtime::SocketAddress::parse(proc.listen);
    auto endpoint = std::make_shared<runtime::SocketEndpoint>(config);
    bool up = false;
    for (int attempt = 0; attempt < 100 && !up; ++attempt) {
      up = endpoint->listComponents().status == runtime::EndpointStatus::Ok;
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!up) {
      logf("launcher: slave host=%u never came up at %s", proc.host,
           proc.listen.c_str());
      stopAll(slaves);
      return 1;
    }
    logf("launcher: connected host=%u identity=%016llx", proc.host,
         static_cast<unsigned long long>(endpoint->identity()));
    endpoints.push_back(std::move(endpoint));
  }

  // --- Stream the incident over the wire ----------------------------------
  // One IngestRequest per slave per tick, the batch the online monitor
  // sends. Fire-and-forget semantics with a supervisor twist: a failed batch
  // is retried whole (re-sent after reconnect; whatever part of it the slave
  // had journaled before dying is replayed on restart, and the re-sent
  // copies hit the duplicate path, which makes that value-safe) so the drill
  // cannot silently starve the killed slave's models.
  const std::size_t drill_at = samples.size() / 2;
  bool drill_fired = false;
  for (std::size_t t = 0; t < samples.size(); ++t) {
    if (opt.drill && !drill_fired && t == drill_at) {
      SlaveProc& victim = slaves.back();
      logf("launcher: DRILL kill -9 slave host=%u pid=%d at t=%zu",
           victim.host, static_cast<int>(victim.pid), t);
      kill(victim.pid, SIGKILL);
      drill_fired = true;
    }
    std::vector<std::optional<runtime::IngestRequest>> batches(
        static_cast<std::size_t>(opt.slaves));
    for (ComponentId id = 0; id < kComponents; ++id) {
      std::optional<runtime::IngestRequest>& batch =
          batches[static_cast<std::size_t>(owner[id])];
      if (batch.has_value()) {
        batch->more.push_back({id, static_cast<TimeSec>(t), samples[t][id]});
        continue;
      }
      batch.emplace();
      batch->component = id;
      batch->t = static_cast<TimeSec>(t);
      batch->sample = samples[t][id];
    }
    for (std::size_t i = 0; i < batches.size(); ++i) {
      if (!batches[i].has_value()) continue;
      bool delivered = false;
      for (int attempt = 0; attempt < 200 && !delivered; ++attempt) {
        delivered = endpoints[i]->ingest(*batches[i]).status ==
                    runtime::EndpointStatus::Ok;
        if (!delivered) {
          reapAndRestart(slaves);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
      if (!delivered) {
        logf("launcher: tick t=%zu batch for host=%u undeliverable; giving up",
             t, slaves[i].host);
        stopAll(slaves);
        return 1;
      }
    }
    reapAndRestart(slaves);
  }
  logf("launcher: %zu seconds streamed over the wire", samples.size());

  // --- Localize through the socket transport ------------------------------
  core::FChainMaster master;
  runtime::SlaveRegistry registry;
  try {
    for (auto& endpoint : endpoints) {
      const std::uint64_t identity = core::connectSlave(master, registry,
                                                        endpoint);
      logf("launcher: registered host=%u identity=%016llx", endpoint->host(),
           static_cast<unsigned long long>(identity));
    }
  } catch (const std::exception& e) {
    logf("launcher: registration failed: %s", e.what());
    stopAll(slaves);
    return 1;
  }
  master.setDependencies(deps);
  const std::string verdict = summarize(master.localize({0, 1, 2, 3}, tv));
  logf("launcher: socket-transport verdict:\n%s", verdict.c_str());

  auto& metrics = obs::metrics();
  logf("launcher: socket metrics connects=%llu reconnects=%llu "
       "frames_tx=%llu frames_rx=%llu crc_errors=%llu torn_frames=%llu",
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.connects").value()),
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.reconnects").value()),
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.frames_tx").value()),
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.frames_rx").value()),
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.crc_errors").value()),
       static_cast<unsigned long long>(
           metrics.counter("runtime.socket.torn_frames").value()));
  if (opt.drill) {
    int restarts = 0;
    for (const auto& proc : slaves) restarts += proc.restarts;
    logf("launcher: drill restarts=%d", restarts);
    if (restarts < 1) {
      logf("launcher: FAIL — drill fired but no slave was restarted");
      stopAll(slaves);
      return 1;
    }
  }

  stopAll(slaves);
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  if (verdict != reference) {
    logf("launcher: FAIL — socket-transport verdict diverges from the "
         "in-process reference");
    return 1;
  }
  logf("launcher: OK — socket transport is invisible in the verdict "
       "(%d slave processes%s)",
       opt.slaves, opt.drill ? ", kill -9 drill healed" : "");
  return 0;
}
