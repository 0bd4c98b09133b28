// Shared pieces of the end-to-end benchmark: options, the report that main()
// prints, timing and placement helpers, telemetry generation, a SlaveService
// hosted on a benchmark-owned pinned thread, and byte encodings of verdicts
// for the correctness gates.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fchain/pinpoint.h"
#include "fchain/recovery.h"
#include "fchain/slave.h"
#include "fchain/slave_service.h"
#include "netdep/dependency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/endpoint.h"
#include "runtime/socket_endpoint.h"
#include "sim/simulator.h"

namespace perfbench {

using fchain::ComponentId;
using fchain::HostId;
using fchain::kMetricCount;
using fchain::TimeSec;
using Sample = std::array<double, kMetricCount>;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs, for the self-test only.
  bool tiny = false;
  /// Flips one reference result so the gates must fail (self-test only).
  bool corrupt_reference = false;
  /// Working directory for state files and unix sockets, relative to the
  /// checkout root the benchmark runs from, so socket paths stay short.
  std::string work_dir = ".bench_build/run";
};

/// Everything one run prints: metrics for the JSON line, human-readable
/// notes above it, and the gate tally.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed gates

  void add(std::string name, double value, std::string unit,
           std::size_t samples);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// One gated operation: counts it and records the failure, if any.
  void check(bool ok, const std::string& what);
};

/// printf into a std::string.
template <typename... Args>
std::string strf(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// --- Timing -----------------------------------------------------------------

/// Steady-clock instant taken during static initialization: the start of
/// the set-up the first setup_s sample covers.
Clock::time_point processStart();
double msSince(Clock::time_point start);
double secSince(Clock::time_point start);

/// Timing samples with linear-interpolation quantiles.
class Samples {
 public:
  void push(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Splits the samples, in push order, into consecutive blocks of `block`
  /// (a trailing partial block is dropped) and returns the median over the
  /// blocks of `stat` applied to each — so a burst of machine noise that
  /// hits one block moves the result by at most one rank.
  template <typename Stat>
  double blockMedian(std::size_t block, Stat stat) const {
    Samples per_block;
    for (std::size_t i = 0; i + block <= values_.size() && block > 0; i += block) {
      Samples one;
      one.values_.assign(values_.begin() + static_cast<std::ptrdiff_t>(i),
                         values_.begin() + static_cast<std::ptrdiff_t>(i + block));
      per_block.push(stat(one));
    }
    return per_block.median();
  }
  double sum() const;

 private:
  std::vector<double> values_;
};

double peakRssMiB();
double processCpuSec();

// --- Thread placement --------------------------------------------------------

/// CPUs the process may run on, read once before any thread is pinned.
const std::vector<int>& allowedCpus();
/// The i-th allowed CPU (wrapping when fewer exist).
int cpuSlot(std::size_t i);
void pinThisThread(int cpu);

// --- Bytes and hashes --------------------------------------------------------

std::uint64_t hashBytes(const std::vector<std::uint8_t>& bytes);
/// Bit-exact encoding of a verdict (doubles by bit pattern).
std::vector<std::uint8_t> verdictBytes(const fchain::core::PinpointResult& r);
std::vector<std::uint8_t> findingsBytes(
    const std::vector<std::optional<fchain::core::ComponentFinding>>& f);
/// Encoded snapshot of the slave's state (epoch 0, so live and replica
/// slaves compare equal regardless of checkpoint generation).
std::vector<std::uint8_t> stateBytes(const fchain::core::FChainSlave& slave);

void writeFile(const std::string& path, const std::vector<std::uint8_t>& b);
/// Removes and recreates a directory.
void freshDir(const std::string& path);

// --- Telemetry ----------------------------------------------------------------

struct MeshSpec {
  std::size_t services = 64;
  std::uint64_t seed = 1;
  /// Ticks to generate (healthy) or the cap on ticks (faulted).
  TimeSec ticks = 3600;
  /// Data-store bottleneck injected at this time (0 = healthy mesh).
  TimeSec fault_start = 0;
  /// Ticks generated after the SLO latch (faulted only).
  TimeSec after_latch = 0;
  bool keep_record = false;
};

/// Pre-generated 1 Hz telemetry of a seeded mesh, replayed from memory.
struct Telemetry {
  std::size_t components = 0;
  TimeSec ticks = 0;
  std::vector<Sample> samples;  ///< [t * components + c]
  std::vector<double> latency;  ///< SLO signal per tick
  double slo_threshold_sec = 0.0;
  std::optional<TimeSec> latch;  ///< SLO violation (faulted only)
  ComponentId store = fchain::kNoComponent;  ///< injected data store
  fchain::sim::RunRecord record;  ///< only when MeshSpec::keep_record
  double generate_ms = 0.0;

  const Sample& at(TimeSec t, ComponentId c) const {
    return samples[static_cast<std::size_t>(t) * components + c];
  }
};

Telemetry generateMesh(const MeshSpec& spec);

/// Components [first, first + count) registered on a fresh slave.
std::vector<ComponentId> idRange(ComponentId first, std::size_t count);

/// Feeds ticks [from, to) of `ids` into the slave in-process.
void feed(fchain::core::FChainSlave& slave, const Telemetry& tel,
          const std::vector<ComponentId>& ids, TimeSec from, TimeSec to);

// --- Socket deployment ---------------------------------------------------------

/// A SlaveService whose run() loop is on a thread this object owns, pinned
/// to one CPU. shutdown() stops it with a Shutdown frame, so no caller waits
/// out the serve loop's 200 ms poll tick.
class ServiceHost {
 public:
  ServiceHost(fchain::core::FChainSlave& slave, const std::string& socket_path,
              int cpu, fchain::core::SlaveCheckpointer* checkpointer = nullptr);
  ~ServiceHost();
  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  const fchain::runtime::SocketAddress& address() const {
    return service_.address();
  }
  void shutdown();

 private:
  fchain::obs::MetricRegistry registry_;
  fchain::core::SlaveService service_;
  std::thread thread_;
};

std::shared_ptr<fchain::runtime::SocketEndpoint> makeEndpoint(
    const fchain::runtime::SocketAddress& address,
    fchain::obs::MetricRegistry* registry);

/// Passes every call through and opens a span around the two RPCs the
/// traced run breaks down ("bench.analyze_rpc", "bench.ingest_rpc").
/// With the tracer off each span is one branch.
class TracedEndpoint final : public fchain::runtime::SlaveEndpoint {
 public:
  explicit TracedEndpoint(std::shared_ptr<fchain::runtime::SlaveEndpoint> inner)
      : inner_(std::move(inner)) {}
  HostId host() const override { return inner_->host(); }
  fchain::runtime::ComponentListReply listComponents() override {
    return inner_->listComponents();
  }
  fchain::runtime::AnalyzeReply analyze(
      const fchain::runtime::AnalyzeRequest& request) override {
    return inner_->analyze(request);
  }
  fchain::runtime::AnalyzeBatchReply analyzeBatch(
      const fchain::runtime::AnalyzeBatchRequest& request) override;
  fchain::runtime::IngestReply ingest(
      const fchain::runtime::IngestRequest& request) override;

 private:
  std::shared_ptr<fchain::runtime::SlaveEndpoint> inner_;
};

// --- Traced run -----------------------------------------------------------------

/// Per-layer values by metric name: (value, sample count).
using Layers = std::map<std::string, std::pair<double, std::size_t>>;

/// What the layer probes replicate: one slave's components, the workload's
/// telemetry for them, and the violation time analysis runs at.
struct ProbeInput {
  const Telemetry* tel = nullptr;
  std::vector<ComponentId> ids;
  /// Seconds at the end of the telemetry that the probes replay on replicas
  /// of the state before them (at most a third of the telemetry). Shorter
  /// than the 600 s snapshot interval, so a probe journal is replayed whole.
  TimeSec tail = 300;
  TimeSec tv = 0;
  const fchain::netdep::DependencyGraph* deps = nullptr;
  std::size_t app_components = 0;
  std::string dir;
  int cpu = 0;
};

/// Adds to `layers` every per-layer metric it does not hold yet, measured on
/// replicas of the workload's slave state fed the workload's own samples;
/// sections whose metrics the workload already measured live are skipped
/// (see perfbench/README.md).
void probeLayers(const ProbeInput& in, Layers& layers, Report& report);

/// Adds every per-layer metric, in BENCHMARK.json order, to the report.
void emitLayers(const Layers& layers, Report& report);

/// Self time of each span: its duration minus its direct children's on the
/// same thread. Aligned with `spans`.
std::vector<double> selfTimesUs(const std::vector<fchain::obs::SpanRecord>& spans);

/// Signal-kernel shares of selector time in a set of spans.
struct SelectorSplit {
  double selector_us = 0.0;  ///< total selector.metric duration
  std::size_t selector_calls = 0;
  double cusum_us = 0.0;     ///< signal.cusum self time
  double burst_us = 0.0;     ///< signal.burst_threshold/fft/ifft self time
  void add(const std::vector<fchain::obs::SpanRecord>& spans,
           const std::vector<double>& self_us);
};

/// Turns the global tracer on or off and drops what it recorded.
void setTracing(bool on);

// --- Workloads -----------------------------------------------------------------

/// Number of set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

Report runIngest(const Options& options);
Report runDiagnose(const Options& options);
Report runRestart(const Options& options);

/// Reports the end-to-end metrics every workload shares. `op_ms` holds the
/// workload's timed operations in order, each doing `work_per_op` units of
/// the work throughput counts. The median is taken over all of them; the
/// 90th percentile and the throughput are medians over blocks of `block`
/// consecutive operations. `rss_mib` is read at the end of the timed phase.
void addEndToEnd(Report& report, const Samples& setup_s, const Samples& op_ms,
                 std::size_t block, double work_per_op, double rss_mib);

}  // namespace perfbench
