#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "persist/snapshot.h"
#include "runtime/socket.h"
#include "runtime/wire.h"
#include "sim/mesh.h"
#include "sim/stream.h"

namespace perfbench {

namespace core = fchain::core;
namespace runtime = fchain::runtime;

// --- Report -------------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

// --- Timing -------------------------------------------------------------------

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point processStart() { return g_process_start; }

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double secSince(Clock::time_point start) { return msSince(start) / 1000.0; }

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double processCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Thread placement -----------------------------------------------------------

const std::vector<int>& allowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

int cpuSlot(std::size_t i) {
  const std::vector<int>& cpus = allowedCpus();
  return cpus[i % cpus.size()];
}

void pinThisThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --- Bytes and hashes -------------------------------------------------------------

std::uint64_t hashBytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  return h;
}

namespace {

class ByteWriter {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void finding(const core::ComponentFinding& f) {
    u64(f.component);
    u64(static_cast<std::uint64_t>(f.onset));
    u64(static_cast<std::uint64_t>(f.trend));
    u64(f.metrics.size());
    for (const core::MetricFinding& m : f.metrics) {
      u64(static_cast<std::uint64_t>(m.metric));
      u64(static_cast<std::uint64_t>(m.onset));
      u64(static_cast<std::uint64_t>(m.change_point));
      u64(static_cast<std::uint64_t>(m.trend));
      f64(m.prediction_error);
      f64(m.expected_error);
    }
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

}  // namespace

std::vector<std::uint8_t> verdictBytes(const core::PinpointResult& r) {
  ByteWriter w;
  w.u64(r.pinpointed.size());
  for (ComponentId id : r.pinpointed) w.u64(id);
  w.u64(r.chain.size());
  for (const core::ComponentFinding& f : r.chain) w.finding(f);
  w.u64(r.external_factor ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(r.external_trend));
  w.f64(r.coverage);
  w.u64(r.unanalyzed.size());
  for (ComponentId id : r.unanalyzed) w.u64(id);
  return w.take();
}

std::vector<std::uint8_t> findingsBytes(
    const std::vector<std::optional<core::ComponentFinding>>& findings) {
  ByteWriter w;
  w.u64(findings.size());
  for (const auto& f : findings) {
    w.u64(f.has_value() ? 1 : 0);
    if (f.has_value()) w.finding(*f);
  }
  return w.take();
}

std::vector<std::uint8_t> stateBytes(const core::FChainSlave& slave) {
  return fchain::persist::encodeSlaveSnapshot(slave.snapshot(0));
}

void writeFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

void freshDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

// --- Telemetry --------------------------------------------------------------------

Telemetry generateMesh(const MeshSpec& spec) {
  const Clock::time_point start = Clock::now();
  fchain::sim::ScenarioConfig config;
  config.kind = fchain::sim::AppKind::Mesh;
  config.mesh = fchain::sim::meshConfigFor(spec.services, spec.seed);
  // The topology takes the seed itself; the noise stream a derived one.
  config.seed = spec.seed * 1000003ull + 17;
  config.duration_sec = static_cast<std::size_t>(spec.ticks) + 1;

  Telemetry tel;
  if (spec.fault_start > 0) {
    tel.store = fchain::sim::makeMicroMeshSpec(config.mesh).reference_path.back();
    fchain::faults::FaultSpec fault;
    fault.type = fchain::faults::FaultType::Bottleneck;
    fault.targets = {tel.store};
    fault.start_time = spec.fault_start;
    fault.intensity = 1.5;
    config.faults = {fault};
  }
  tel.slo_threshold_sec = fchain::sim::meshSloLatencyThreshold(config.mesh);

  fchain::sim::StreamingSource source(config);
  tel.components = source.componentCount();
  tel.samples.reserve(static_cast<std::size_t>(spec.ticks) * tel.components);
  TimeSec stop = spec.ticks;
  while (source.now() < stop) {
    const fchain::sim::StreamTick tick = source.step(
        [&](const fchain::sim::StreamSample& s) { tel.samples.push_back(s.values); });
    tel.latency.push_back(tick.latency_sec);
    const std::optional<TimeSec> violation = source.simulation().violationTime();
    if (spec.fault_start > 0 && violation && !tel.latch) {
      tel.latch = *violation;
      stop = std::min(stop, *violation + spec.after_latch);
    }
  }
  tel.ticks = source.now();
  if (spec.keep_record) tel.record = source.record();
  tel.generate_ms = msSince(start);
  return tel;
}

std::vector<ComponentId> idRange(ComponentId first, std::size_t count) {
  std::vector<ComponentId> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

void feed(core::FChainSlave& slave, const Telemetry& tel,
          const std::vector<ComponentId>& ids, TimeSec from, TimeSec to) {
  for (TimeSec t = from; t < to; ++t) {
    for (ComponentId id : ids) slave.ingestAt(id, t, tel.at(t, id));
  }
}

// --- Socket deployment ----------------------------------------------------------------

namespace {

core::SlaveServiceConfig serviceConfig(const std::string& socket_path,
                                       fchain::obs::MetricRegistry* registry) {
  core::SlaveServiceConfig config;
  config.listen = runtime::SocketAddress::unixPath(socket_path);
  config.registry = registry;
  return config;
}

}  // namespace

ServiceHost::ServiceHost(core::FChainSlave& slave,
                         const std::string& socket_path, int cpu,
                         core::SlaveCheckpointer* checkpointer)
    : service_(slave, serviceConfig(socket_path, &registry_), checkpointer),
      thread_([this, cpu] {
        pinThisThread(cpu);
        try {
          service_.run();
        } catch (const std::exception& e) {
          // A dead slave would stall the client until its socket times out;
          // end the run without a result instead.
          std::fprintf(stderr, "perfbench: slave service failed: %s\n", e.what());
          std::_Exit(2);
        }
      }) {}

ServiceHost::~ServiceHost() { shutdown(); }

void ServiceHost::shutdown() {
  if (!thread_.joinable()) return;
  runtime::Socket conn = runtime::Socket::connectTo(address(), 2000.0);
  if (!conn.valid() ||
      !conn.sendAll(runtime::wire::encodeShutdown(), 2000.0)) {
    service_.stop();  // the serve loop then exits on its next poll tick
  }
  thread_.join();
}

std::shared_ptr<runtime::SocketEndpoint> makeEndpoint(
    const runtime::SocketAddress& address,
    fchain::obs::MetricRegistry* registry) {
  runtime::SocketEndpointConfig config;
  config.address = address;
  config.registry = registry;
  return std::make_shared<runtime::SocketEndpoint>(config);
}

runtime::AnalyzeBatchReply TracedEndpoint::analyzeBatch(
    const runtime::AnalyzeBatchRequest& request) {
  fchain::obs::Span span(fchain::obs::tracer(), "bench.analyze_rpc");
  span.arg("host", static_cast<std::int64_t>(inner_->host()));
  return inner_->analyzeBatch(request);
}

runtime::IngestReply TracedEndpoint::ingest(
    const runtime::IngestRequest& request) {
  fchain::obs::Span span(fchain::obs::tracer(), "bench.ingest_rpc");
  return inner_->ingest(request);
}

// --- Shared end-to-end metrics ------------------------------------------------------------

void addEndToEnd(Report& report, const Samples& setup_s, const Samples& op_ms,
                 std::size_t block, double work_per_op, double rss_mib) {
  block = std::min(block, op_ms.size());
  report.add("setup_s", setup_s.median(), "s", setup_s.size());
  report.add("op_ms_p50", op_ms.median(), "ms", op_ms.size());
  report.add("op_ms_p90",
             op_ms.blockMedian(block, [](const Samples& b) { return b.quantile(0.9); }),
             "ms", op_ms.size());
  report.add("throughput_per_s",
             op_ms.blockMedian(block,
                               [&](const Samples& b) {
                                 return work_per_op * static_cast<double>(b.size()) *
                                        1e3 / b.sum();
                               }),
             "1/s", op_ms.size());
  report.add("rss_peak_mb", rss_mib, "MiB", 1);
}

}  // namespace perfbench
