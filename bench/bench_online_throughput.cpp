// Online-monitoring overhead benchmark: what the always-on runtime costs.
// Three parts:
//
//   1. Steady-state ingest — a healthy three-app fleet (RUBiS + System S +
//      Hadoop, 20 components) streamed through OnlineMonitor::ingest /
//      observe / pump. Reports wall-clock samples/sec through the full path
//      (ingest routing + slave ingest RPC + SLO bookkeeping).
//
//   2. Trigger latency — repeated RUBiS CpuHog incidents; for each, the
//      wall time from the SLO latch to the finished pinpoint (the
//      `online.trigger_latency_ms` histogram) plus the sample-time
//      detection delay from fault injection to the latch.
//
//   3. Signal-engine throughput — the per-VM analysis kernel chain
//      (smooth -> CUSUM+bootstrap -> outlier -> burst threshold ->
//      rollback) run single-threaded over a fleet of metric windows, once
//      with the frozen reference engine (signal/reference.h) and once with
//      the scratch-arena engine, plus repeated analyze() rounds against a
//      warmed slave (>= 1000 ingested ticks, so the historical error-floor
//      path runs). Reports samples/sec/core for both engines and the
//      optimized engine's steady-state heap allocations per sample,
//      measured with this binary's operator-new counter.
//
// Besides the plain-text tables the bench writes every number — the
// monitor's full metric registry plus the bench-level aggregates — as JSON
// to bench_online_throughput.json, so CI can archive and diff runs.
//
// Exit status is a gate, not just a report: nonzero when no incident
// triggers, when the optimized signal engine is less than 3x the in-binary
// reference engine (a self-relative floor, so it holds on any hardware), or
// when the signal path allocates at all per steady-state sample.
//
// Usage: bench_online_throughput [steady_ticks] [trials] [base_seed]
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "fchain/slave.h"
#include "obs/metrics.h"
#include "online/monitor.h"
#include "signal/burst.h"
#include "signal/cusum.h"
#include "signal/outlier.h"
#include "signal/reference.h"
#include "signal/scratch.h"
#include "signal/smoothing.h"
#include "signal/tangent.h"
#include "sim/apps.h"
#include "sim/injector.h"
#include "sim/stream.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Allocation counter for the Part 3 zero-allocation gate (same pattern as
// the signal test suites).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fchain;

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct FleetApp {
  sim::ScenarioConfig config;
  ComponentId offset = 0;
  online::SloSpec slo;
};

/// The soak fleet minus the faults: RUBiS (4), System S (7), Hadoop (9).
std::vector<FleetApp> healthyFleet(std::size_t ticks, std::uint64_t seed) {
  std::vector<FleetApp> fleet;
  ComponentId offset = 0;
  for (const sim::AppKind kind :
       {sim::AppKind::Rubis, sim::AppKind::SystemS, sim::AppKind::Hadoop}) {
    FleetApp app;
    app.config.kind = kind;
    app.config.seed = mixSeed(seed, 0x0a11, fleet.size());
    app.config.duration_sec = ticks;
    app.offset = offset;
    if (kind == sim::AppKind::Hadoop) {
      app.slo.kind = online::SloSpec::Kind::Progress;
    } else {
      app.slo.kind = online::SloSpec::Kind::Latency;
      app.slo.latency_threshold_sec = sim::sloLatencyThreshold(kind);
      app.slo.sustain_sec = app.config.slo_sustain_sec;
    }
    offset += static_cast<ComponentId>(
        sim::makeAppSpec(kind).components.size());
    fleet.push_back(std::move(app));
  }
  return fleet;
}

struct SteadyStateResult {
  double samples_per_sec = 0.0;
  double wall_ms = 0.0;
  std::uint64_t samples = 0;
};

SteadyStateResult benchSteadyState(std::size_t ticks, std::uint64_t seed) {
  online::OnlineMonitor monitor;

  auto fleet = healthyFleet(ticks, seed);
  std::vector<std::unique_ptr<sim::StreamingSource>> sources;
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<std::size_t> app_index;
  for (std::size_t a = 0; a < fleet.size(); ++a) {
    sources.push_back(std::make_unique<sim::StreamingSource>(fleet[a].config,
                                                             fleet[a].offset));
    auto slave = std::make_unique<core::FChainSlave>(static_cast<HostId>(a));
    for (ComponentId id : sources.back()->componentIds()) {
      slave->addComponent(id, 0);
    }
    monitor.addSlave(slave.get());
    slaves.push_back(std::move(slave));
    app_index.push_back(monitor.addApplication(
        {sources.back()->kind() == sim::AppKind::Rubis    ? "rubis"
         : sources.back()->kind() == sim::AppKind::SystemS ? "streams"
                                                           : "batch",
         sources.back()->componentIds(), fleet[a].slo}));
  }

  SteadyStateResult result;
  const sim::StreamingSource::SampleSink sink =
      [&](const sim::StreamSample& sample) { monitor.ingest(sample); };

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    for (std::size_t a = 0; a < fleet.size(); ++a) {
      const sim::StreamTick st = sources[a]->step(sink);
      monitor.observe(app_index[a], st);
    }
    monitor.pump();
  }
  result.wall_ms = msSince(t0);

  const auto snapshot = monitor.metrics().snapshot();
  result.samples = snapshot.counters.at("online.ingest_samples");
  result.samples_per_sec =
      static_cast<double>(result.samples) / (result.wall_ms / 1000.0);
  return result;
}

struct TriggerResult {
  std::size_t triggered = 0;
  std::size_t trials = 0;
  double mean_latency_ms = 0.0;      ///< latch -> pinpoint, wall clock
  double mean_detection_sec = 0.0;   ///< fault start -> latch, sample time
  /// Registry dump of the last trial's monitor (it carries the
  /// online.trigger_latency_ms histogram CI archives).
  std::string last_metrics_json;
};

TriggerResult benchTriggerLatency(std::size_t trials, std::uint64_t seed) {
  constexpr TimeSec kFaultStart = 2000;
  TriggerResult result;
  result.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    sim::ScenarioConfig config;
    config.kind = sim::AppKind::Rubis;
    config.seed = mixSeed(seed, 0x7419, trial);
    faults::FaultSpec fault;
    fault.type = faults::FaultType::CpuHog;
    fault.targets = {3};
    fault.start_time = kFaultStart;
    fault.intensity = 1.35;
    config.faults = {fault};

    online::OnlineMonitor monitor;
    sim::StreamingSource source(config);
    core::FChainSlave slave(0);
    for (ComponentId id : source.componentIds()) slave.addComponent(id, 0);
    monitor.addSlave(&slave);
    online::SloSpec slo;
    slo.latency_threshold_sec = sim::sloLatencyThreshold(config.kind);
    slo.sustain_sec = config.slo_sustain_sec;
    const std::size_t app =
        monitor.addApplication({"rubis", source.componentIds(), slo});

    const sim::StreamingSource::SampleSink sink =
        [&](const sim::StreamSample& sample) { monitor.ingest(sample); };
    while (monitor.incidents().empty() && source.now() < 3600) {
      const sim::StreamTick tick = source.step(sink);
      monitor.observe(app, tick);
      monitor.pump();
    }
    if (monitor.incidents().empty()) continue;
    const online::OnlineIncident& incident = monitor.incidents().front();
    ++result.triggered;
    result.mean_latency_ms += incident.localize_wall_ms;
    result.mean_detection_sec +=
        static_cast<double>(incident.violation_time - kFaultStart);
    if (trial + 1 == trials) {
      std::ostringstream json;
      monitor.metrics().writeJson(json);
      result.last_metrics_json = json.str();
    }
  }
  if (result.triggered > 0) {
    result.mean_latency_ms /= static_cast<double>(result.triggered);
    result.mean_detection_sec /= static_cast<double>(result.triggered);
  }
  return result;
}

// --- Part 3: signal-engine throughput (optimized vs frozen reference) ------

struct SignalEngineResult {
  double reference_sps = 0.0;  ///< samples/sec/core, frozen engine
  double optimized_sps = 0.0;  ///< samples/sec/core, scratch-arena engine
  double speedup = 0.0;
  std::uint64_t reference_samples = 0;
  std::uint64_t optimized_samples = 0;
  std::uint64_t steady_allocs = 0;         ///< heap allocs in the timed window
  double allocs_per_sample = 0.0;
  std::uint64_t scratch_grow_events = 0;   ///< arena growth in the timed window
  double slave_rounds_per_sec = 0.0;       ///< warmed-slave analyzeBatch rounds
  double checksum = 0.0;                   ///< anti-dead-code accumulator
};

/// The per-VM kernel chain the selector runs per metric: smooth -> CUSUM +
/// bootstrap -> magnitude outlier -> burst threshold -> tangent rollback.
/// Returns a cheap checksum so the optimizer cannot discard the work.
double chainOptimized(std::span<const double> window,
                      signal::SignalScratch& scratch) {
  const std::vector<double>& smoothed = signal::movingAverageInto(
      window, 2, scratch.smoothed(window.size()));
  const std::vector<signal::ChangePoint>& points = signal::detectChangePointsInto(
      smoothed, signal::CusumConfig{}, scratch, scratch.points());
  const std::vector<signal::ChangePoint>& outliers = signal::outlierChangePointsInto(
      points, signal::OutlierConfig{}, scratch, scratch.outliers());
  double acc = static_cast<double>(points.size() + outliers.size());
  const std::size_t start = window.size() > 41 ? window.size() - 41 : 0;
  acc += signal::expectedPredictionError(window.subspan(start),
                                         signal::BurstConfig{}, scratch);
  if (!outliers.empty()) {
    acc += static_cast<double>(signal::rollbackOnset(
        smoothed, outliers, outliers.size() - 1, signal::RollbackConfig{},
        scratch));
  }
  return acc;
}

/// Same chain through the frozen pre-optimization kernels.
double chainReference(std::span<const double> window) {
  const std::vector<double> smoothed =
      signal::reference::movingAverage(window, 2);
  const std::vector<signal::ChangePoint> points =
      signal::reference::detectChangePoints(smoothed, signal::CusumConfig{});
  const std::vector<signal::ChangePoint> outliers =
      signal::reference::outlierChangePoints(points, signal::OutlierConfig{});
  double acc = static_cast<double>(points.size() + outliers.size());
  const std::size_t start = window.size() > 41 ? window.size() - 41 : 0;
  acc += signal::reference::expectedPredictionError(window.subspan(start),
                                                    signal::BurstConfig{});
  if (!outliers.empty()) {
    acc += static_cast<double>(signal::reference::rollbackOnset(
        smoothed, outliers, outliers.size() - 1, signal::RollbackConfig{}));
  }
  return acc;
}

/// A fleet's worth of look-back windows: 8 VMs x 6 metrics, 101 samples
/// each. Three quarters are healthy (noise around a level — the common case
/// the early-exit bootstrap feeds on), one quarter carry an injected level
/// shift so the accept path is exercised too.
std::vector<std::vector<double>> engineWindows(std::uint64_t seed) {
  constexpr std::size_t kWindows = 48;
  constexpr std::size_t kSamples = 101;
  std::vector<std::vector<double>> windows;
  windows.reserve(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    Rng rng(mixSeed(seed, 0x516e, w));
    std::vector<double> xs(kSamples);
    const double level = 40.0 + rng.uniform(0.0, 20.0);
    for (std::size_t i = 0; i < kSamples; ++i) {
      xs[i] = level + rng.gaussian() * 2.0;
      if (w % 4 == 0 && i >= 2 * kSamples / 3) xs[i] += 25.0;  // faulty VM
    }
    windows.push_back(std::move(xs));
  }
  return windows;
}

/// A slave with >= 1000 ingested ticks per VM, so analyze() runs the full
/// selector including the historical error-floor path.
core::FChainSlave warmedSlave(std::uint64_t seed) {
  constexpr std::size_t kVms = 8;
  constexpr std::size_t kTicks = 1400;
  core::FChainSlave slave(0);
  for (ComponentId id = 0; id < kVms; ++id) slave.addComponent(id, 0);
  Rng rng(mixSeed(seed, 0x51a7e, 1));
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (ComponentId id = 0; id < kVms; ++id) {
      std::array<double, kMetricCount> sample;
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        double v = 40.0 + 10.0 * static_cast<double>(m) + rng.gaussian() * 1.5;
        // VM 1 ramps late, VM 3 steps late: keep the abnormal path warm.
        if (id == 1 && t >= 1200) {
          v += 0.15 * static_cast<double>(t - 1200);
        }
        if (id == 3 && t >= 1250) v += 30.0;
        sample[m] = v;
      }
      slave.ingest(id, sample);
    }
  }
  return slave;
}

SignalEngineResult benchSignalEngine(std::uint64_t seed) {
  SignalEngineResult result;
  const std::vector<std::vector<double>> windows = engineWindows(seed);
  std::uint64_t samples_per_pass = 0;
  for (const auto& w : windows) samples_per_pass += w.size();

  signal::SignalScratch scratch;
  // Warm pass: size every lane, fill the permutation pool and FFT plans.
  for (const auto& w : windows) result.checksum += chainOptimized(w, scratch);
  scratch.accountGrowth();

  constexpr double kTargetMs = 400.0;

  // Reference engine (frozen pre-optimization kernels), single-threaded.
  {
    for (const auto& w : windows) result.checksum += chainReference(w);  // warm
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed_ms = 0.0;
    while (elapsed_ms < kTargetMs) {
      for (const auto& w : windows) result.checksum += chainReference(w);
      result.reference_samples += samples_per_pass;
      elapsed_ms = msSince(t0);
    }
    result.reference_sps =
        static_cast<double>(result.reference_samples) / (elapsed_ms / 1000.0);
  }

  // Optimized engine, single-threaded, with the allocation counter armed.
  {
    const std::uint64_t grow_before = scratch.stats().grow_events;
    const std::size_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed_ms = 0.0;
    while (elapsed_ms < kTargetMs) {
      for (const auto& w : windows) {
        result.checksum += chainOptimized(w, scratch);
      }
      result.optimized_samples += samples_per_pass;
      elapsed_ms = msSince(t0);
    }
    result.steady_allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    scratch.accountGrowth();
    result.scratch_grow_events = scratch.stats().grow_events - grow_before;
    result.optimized_sps =
        static_cast<double>(result.optimized_samples) / (elapsed_ms / 1000.0);
  }

  result.speedup = result.optimized_sps / result.reference_sps;
  result.allocs_per_sample = static_cast<double>(result.steady_allocs) /
                             static_cast<double>(result.optimized_samples);

  // Warmed-slave rounds: the same engine driven through the real selector
  // (error floor, adaptive smoothing, model predictions included).
  {
    core::FChainSlave slave = warmedSlave(seed);
    const std::vector<ComponentId> ids = slave.components();
    constexpr TimeSec kViolation = 1399;
    auto warm = slave.analyzeBatch(ids, kViolation);  // sizes threadScratch
    result.checksum += static_cast<double>(warm.size());
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed_ms = 0.0;
    std::uint64_t rounds = 0;
    while (elapsed_ms < 200.0) {
      const auto findings = slave.analyzeBatch(ids, kViolation);
      for (const auto& f : findings) {
        if (f) result.checksum += static_cast<double>(f->component);
      }
      ++rounds;
      elapsed_ms = msSince(t0);
    }
    result.slave_rounds_per_sec =
        static_cast<double>(rounds) / (elapsed_ms / 1000.0);
  }
  return result;
}

void writeJsonReport(const SteadyStateResult& steady,
                     const TriggerResult& trigger,
                     const SignalEngineResult& engine) {
  std::ofstream out("bench_online_throughput.json",
                    std::ios::binary | std::ios::trunc);
  out << "{\n  \"steady_state\": {\n";
  out << "    \"samples\": " << steady.samples << ",\n";
  out << "    \"wall_ms\": " << steady.wall_ms << ",\n";
  out << "    \"ingest_samples_per_sec\": " << steady.samples_per_sec
      << "\n  },\n";
  out << "  \"trigger\": {\n";
  out << "    \"trials\": " << trigger.trials << ",\n";
  out << "    \"triggered\": " << trigger.triggered << ",\n";
  out << "    \"mean_trigger_latency_ms\": " << trigger.mean_latency_ms
      << ",\n";
  out << "    \"mean_detection_delay_sec\": " << trigger.mean_detection_sec
      << "\n  },\n";
  out << "  \"signal_engine\": {\n";
  out << "    \"reference_samples_per_sec_per_core\": " << engine.reference_sps
      << ",\n";
  out << "    \"optimized_samples_per_sec_per_core\": " << engine.optimized_sps
      << ",\n";
  out << "    \"speedup\": " << engine.speedup << ",\n";
  out << "    \"optimized_samples\": " << engine.optimized_samples << ",\n";
  out << "    \"steady_state_allocations\": " << engine.steady_allocs << ",\n";
  out << "    \"steady_state_allocations_per_sample\": "
      << engine.allocs_per_sample << ",\n";
  out << "    \"scratch_grow_events\": " << engine.scratch_grow_events
      << ",\n";
  out << "    \"warmed_slave_analyze_rounds_per_sec\": "
      << engine.slave_rounds_per_sec << "\n  },\n";
  out << "  \"last_trial_metrics\": " << trigger.last_metrics_json << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t steady_ticks = 3600;
  std::size_t trials = 5;
  std::uint64_t seed = 42;
  if (argc > 1) steady_ticks = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) trials = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) seed = std::strtoull(argv[3], nullptr, 10);

  std::printf("Online monitoring overhead\n");
  std::printf("(%zu steady-state ticks, %zu trigger trials, base seed %llu)\n\n",
              steady_ticks, trials, static_cast<unsigned long long>(seed));

  const SteadyStateResult steady = benchSteadyState(steady_ticks, seed);
  std::printf("Part 1: steady-state ingest (3 apps, 20 components, healthy)\n");
  std::printf("  %-28s %10.0f samples/s\n", "ingest throughput",
              steady.samples_per_sec);
  std::printf("  %-28s %10llu samples in %.1f ms\n\n", "streamed",
              static_cast<unsigned long long>(steady.samples), steady.wall_ms);

  const TriggerResult trigger = benchTriggerLatency(trials, seed);
  std::printf("Part 2: violation -> pinpoint (RUBiS CpuHog on db)\n");
  std::printf("  %-28s %10zu / %zu trials\n", "auto-triggered",
              trigger.triggered, trigger.trials);
  std::printf("  %-28s %10.2f ms (wall, latch -> pinpoint)\n",
              "mean trigger latency", trigger.mean_latency_ms);
  std::printf("  %-28s %10.1f s (sample time, fault -> latch)\n\n",
              "mean detection delay", trigger.mean_detection_sec);

  const SignalEngineResult engine = benchSignalEngine(seed);
  std::printf("Part 3: per-VM signal engine (48 windows x 101 samples, 1 thread)\n");
  std::printf("  %-28s %10.0f samples/s/core\n", "reference engine",
              engine.reference_sps);
  std::printf("  %-28s %10.0f samples/s/core\n", "optimized engine",
              engine.optimized_sps);
  std::printf("  %-28s %10.2fx (gate: >= 3.0x)\n", "speedup",
              engine.speedup);
  std::printf("  %-28s %10llu allocs in %llu samples (gate: 0)\n",
              "steady-state heap allocs",
              static_cast<unsigned long long>(engine.steady_allocs),
              static_cast<unsigned long long>(engine.optimized_samples));
  std::printf("  %-28s %10llu events in timed window\n", "scratch growth",
              static_cast<unsigned long long>(engine.scratch_grow_events));
  std::printf("  %-28s %10.1f rounds/s (8 VMs, 1400-tick history)\n",
              "warmed-slave analyzeBatch", engine.slave_rounds_per_sec);

  writeJsonReport(steady, trigger, engine);
  std::printf("\nwrote bench_online_throughput.json\n");
  benchutil::maybeDumpTrace("bench_online_throughput");

  if (trigger.triggered == 0) {
    std::printf("FAIL: no trial auto-triggered a localization\n");
    return 1;
  }
  if (engine.speedup < 3.0) {
    std::printf("FAIL: optimized signal engine is %.2fx the reference engine "
                "(floor: 3.0x)\n",
                engine.speedup);
    return 1;
  }
  if (engine.steady_allocs != 0) {
    std::printf("FAIL: signal hot path allocated %llu times in steady state "
                "(gate: 0)\n",
                static_cast<unsigned long long>(engine.steady_allocs));
    return 1;
  }
  return 0;
}
