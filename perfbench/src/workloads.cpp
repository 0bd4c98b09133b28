// The three workloads. Each loads one part of the stack and leaves the rest
// nearly idle (see perfbench/README.md for why each exists):
//   ingest   — OnlineMonitor streaming a healthy mesh into two checkpointed
//              socket slaves (transport, journal, snapshots, Markov update);
//   diagnose — repeated latch-to-verdict localizations over two socket
//              slaves (selector, signal kernels, pinpointing, analyze RPC);
//   restart  — recovering one slave with hours of state from a crash image
//              and booting it back onto a socket (persist read side).
// One client thread runs a closed loop with one request outstanding.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "fchain/master.h"
#include "online/monitor.h"
#include "persist/snapshot.h"

namespace perfbench {

namespace core = fchain::core;
namespace online = fchain::online;
namespace runtime = fchain::runtime;

namespace {

/// Seconds of telemetry each workload streams, holds or recovers.
struct Sizes {
  std::size_t ingest_services = 64;
  TimeSec ingest_ticks = 3600;
  TimeSec fault_start = 1750;  ///< diagnose: ~1 800 s of history at the latch
  TimeSec restart_history = 7200;
  TimeSec restart_tail = 300;
};

Sizes sizesFor(const Options& options) {
  Sizes sizes;
  if (options.tiny) {
    sizes.ingest_services = 16;
    sizes.ingest_ticks = 300;
    sizes.restart_history = 600;
    sizes.restart_tail = 60;
  }
  return sizes;
}

/// Distinct violation times a diagnose run cycles through.
constexpr TimeSec kSweep = 16;

/// Localizations per block for diagnose's p90 and throughput (~2 s each).
constexpr std::size_t kDiagnoseBlock = 100;

void noteOverhead(Report& report, const char* metric, double untraced,
                  double traced) {
  if (untraced > 0.0) {
    report.note(strf("tracing overhead %-16s traced/untraced = %.3f", metric,
                     traced / untraced));
  }
}

// =============================================================================
// ingest
// =============================================================================

/// One fresh deployment: two slaves, each behind a SlaveCheckpointer and a
/// SlaveService, fed by an OnlineMonitor over two SocketEndpoints. Members
/// are destroyed in reverse order, so the monitor and its sockets go first
/// and the service threads are joined before the state they serve.
struct IngestDeployment {
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<std::unique_ptr<core::SlaveCheckpointer>> checkpointers;
  std::vector<std::unique_ptr<ServiceHost>> hosts;
  fchain::obs::MetricRegistry client_registry;
  std::unique_ptr<online::OnlineMonitor> monitor;
  std::size_t app = 0;
  fchain::obs::Counter* ingest_failures = nullptr;
  fchain::obs::Counter* slo_latches = nullptr;

  IngestDeployment(const Telemetry& tel, const std::string& dir, int cpu) {
    const std::size_t per_slave = tel.components / 2;
    monitor = std::make_unique<online::OnlineMonitor>();
    for (HostId h = 0; h < 2; ++h) {
      const std::vector<ComponentId> ids = idRange(h * per_slave, per_slave);
      slaves.push_back(std::make_unique<core::FChainSlave>(h));
      for (ComponentId id : ids) slaves.back()->addComponent(id, 0);
      const std::string state = dir + "/slave" + std::to_string(h);
      freshDir(state);
      checkpointers.push_back(
          std::make_unique<core::SlaveCheckpointer>(*slaves.back(), state));
      hosts.push_back(std::make_unique<ServiceHost>(
          *slaves.back(), dir + "/s" + std::to_string(h) + ".sock", cpu,
          checkpointers.back().get()));
      auto endpoint = makeEndpoint(hosts.back()->address(), &client_registry);
      // Connect and handshake now, so no timed tick pays for it.
      if (endpoint->listComponents().status != runtime::EndpointStatus::Ok) {
        throw std::runtime_error("ingest: slave handshake failed");
      }
      monitor->addEndpoint(std::make_shared<TracedEndpoint>(endpoint), ids);
    }
    online::AppSpec spec;
    spec.name = "mesh";
    spec.components = idRange(0, tel.components);
    spec.slo.latency_threshold_sec = tel.slo_threshold_sec;
    app = monitor->addApplication(spec);
    ingest_failures = &monitor->metrics().counter("online.ingest_failures");
    slo_latches = &monitor->metrics().counter("online.slo_latches");
  }

  /// One tick: every component's sample, the SLO signal, then pump().
  /// Returns false when an ingest RPC failed or an SLO latch fired.
  bool tick(const Telemetry& tel, TimeSec t) {
    const std::uint64_t failed_before = ingest_failures->value();
    for (ComponentId c = 0; c < tel.components; ++c) {
      monitor->ingest(c, t, tel.at(t, c));
    }
    const bool fired = monitor->observeLatency(app, t, tel.latency[t]);
    monitor->pump();
    return !fired && ingest_failures->value() == failed_before &&
           slo_latches->value() == 0;
  }

  std::uint64_t epochs() const {
    std::uint64_t sum = 0;
    for (const auto& cp : checkpointers) sum += cp->epoch();
    return sum;
  }
};

}  // namespace

Report runIngest(const Options& options) {
  Report report;
  const Sizes sizes = sizesFor(options);
  const std::string dir = options.work_dir + "/ingest";
  // The client and both service threads share one CPU: a round-trip then costs
  // two context switches instead of two cross-CPU wake-ups.
  const int cpu = cpuSlot(0);
  pinThisThread(cpu);

  MeshSpec mesh;
  mesh.services = sizes.ingest_services;
  mesh.seed = options.seed;
  mesh.ticks = sizes.ingest_ticks;
  mesh.keep_record = options.trace;

  // Set-up: generation, fresh deployment, handshakes, one warm-up tick.
  Samples setup_s;
  Telemetry tel;
  std::unique_ptr<IngestDeployment> deployment;
  const int setups = options.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    // Tearing down the previous set-up is not part of this one.
    deployment.reset();
    const Clock::time_point start = k == 0 ? processStart() : Clock::now();
    tel = generateMesh(mesh);
    if (tel.latch) throw std::runtime_error("ingest: healthy mesh latched");
    deployment = std::make_unique<IngestDeployment>(tel, dir, cpu);
    report.check(deployment->tick(tel, 0), "ingest: warm-up tick failed");
    setup_s.push(secSince(start));
  }
  const std::size_t cs_per_tick = tel.components;

  // Timed phase: whole rounds of the stream, each on a fresh deployment
  // (tick 0 is the round's untimed warm-up), so every round does the same
  // work from the same state.
  Samples tick_ms;
  Samples traced_tick_ms;
  double busy_s = 0.0, traced_busy_s = 0.0;
  std::size_t cs = 0, traced_cs = 0;
  std::vector<std::array<std::uint64_t, 2>> round_hashes;
  Samples rtt_us, auto_checkpoints, round_cps;
  double frames = 0.0, traced_cpu_s = 0.0, ring_bytes = 0.0, retained = 0.0;
  const Clock::time_point phase = Clock::now();
  for (int round = 0;; ++round) {
    const Clock::time_point round_begin = Clock::now();
    if (round > 0) {
      deployment.reset();
      deployment = std::make_unique<IngestDeployment>(tel, dir, cpu);
      report.check(deployment->tick(tel, 0), "ingest: warm-up tick failed");
    }
    const bool traced = options.trace && secSince(phase) >= options.seconds / 2;
    setTracing(traced);
    const std::uint64_t epochs_before = deployment->epochs();
    const double cpu_before = processCpuSec();
    const std::uint64_t frames_before =
        deployment->client_registry.counter("runtime.socket.frames_tx").value() +
        deployment->client_registry.counter("runtime.socket.frames_rx").value();
    Samples& sink = traced ? traced_tick_ms : tick_ms;
    const Clock::time_point round_start = Clock::now();
    for (TimeSec t = 1; t < tel.ticks; ++t) {
      const Clock::time_point start = Clock::now();
      const bool ok = deployment->tick(tel, t);
      sink.push(msSince(start));
      report.check(ok, ok ? "" : "ingest: tick " + std::to_string(t) + " failed");
      if (traced && t % 64 == 0) {
        // Drain the tracer as the stream runs, so it stays small.
        for (const auto& span : fchain::obs::tracer().records()) {
          if (span.name == "bench.ingest_rpc") rtt_us.push(static_cast<double>(span.dur_us));
        }
        fchain::obs::tracer().clear();
      }
    }
    const double round_s = secSince(round_start);
    const std::size_t round_cs = (static_cast<std::size_t>(tel.ticks) - 1) * cs_per_tick;
    if (traced) {
      for (const auto& span : fchain::obs::tracer().records()) {
        if (span.name == "bench.ingest_rpc") rtt_us.push(static_cast<double>(span.dur_us));
      }
      setTracing(false);
      traced_busy_s += round_s;
      traced_cs += round_cs;
      traced_cpu_s += processCpuSec() - cpu_before;
      frames += static_cast<double>(
          deployment->client_registry.counter("runtime.socket.frames_tx").value() +
          deployment->client_registry.counter("runtime.socket.frames_rx").value() -
          frames_before);
      ring_bytes = static_cast<double>(deployment->monitor->ringOccupancy()) *
                   sizeof(Sample);
    } else {
      busy_s += round_s;
      cs += round_cs;
      round_cps.push(static_cast<double>(round_cs) / round_s);
    }
    for (auto& host : deployment->hosts) host->shutdown();
    auto_checkpoints.push(static_cast<double>(deployment->epochs() - epochs_before));
    const fchain::MetricSeries* series = deployment->slaves[0]->seriesOf(0);
    retained = series != nullptr ? static_cast<double>(series->size()) : 0.0;
    round_hashes.push_back({hashBytes(stateBytes(*deployment->slaves[0])),
                            hashBytes(stateBytes(*deployment->slaves[1]))});
    // Only whole rounds: stop when another would overrun the budget.
    if (secSince(phase) + secSince(round_begin) > options.seconds) break;
  }
  const double rss = peakRssMiB();
  deployment.reset();

  // Gates: each round's slaves must hold exactly the state of in-process
  // replicas fed the same samples.
  const std::size_t per_slave = tel.components / 2;
  for (HostId h = 0; h < 2; ++h) {
    core::FChainSlave replica(h);
    const std::vector<ComponentId> ids = idRange(h * per_slave, per_slave);
    for (ComponentId id : ids) replica.addComponent(id, 0);
    feed(replica, tel, ids, 0, tel.ticks);
    std::uint64_t expected = hashBytes(stateBytes(replica));
    if (options.corrupt_reference && h == 0) expected ^= 1;
    for (std::size_t r = 0; r < round_hashes.size(); ++r) {
      report.check(round_hashes[r][h] == expected,
                   "ingest: round " + std::to_string(r) + " slave " +
                       std::to_string(h) + " state differs from its replica");
    }
  }

  if (!options.trace) {
    // One block per round: a round's ticks share its checkpoints.
    addEndToEnd(report, setup_s, tick_ms, static_cast<std::size_t>(tel.ticks) - 1,
                static_cast<double>(cs_per_tick), rss);
    report.note(strf("ingest: %.0f rounds of %.0f ticks, %.0f component-s, "
                     "component-s/s per round %.0f..%.0f",
                     static_cast<double>(round_hashes.size()),
                     static_cast<double>(tel.ticks), static_cast<double>(cs),
                     round_cps.quantile(0.0), round_cps.quantile(1.0)));
    return report;
  }

  report.note(strf("ingest: %.0f untraced + %.0f traced ticks",
                  static_cast<double>(tick_ms.size()),
                  static_cast<double>(traced_tick_ms.size())));
  noteOverhead(report, "op_ms_p50", tick_ms.median(), traced_tick_ms.median());
  noteOverhead(report, "op_ms_p90", tick_ms.quantile(0.9),
               traced_tick_ms.quantile(0.9));
  if (cs > 0 && traced_cs > 0) {
    noteOverhead(report, "throughput_per_s",
                 static_cast<double>(cs) / busy_s,
                 static_cast<double>(traced_cs) / traced_busy_s);
  }
  Layers layers;
  if (!rtt_us.empty()) layers["runtime.ingest_rtt_us"] = {rtt_us.median(), rtt_us.size()};
  if (traced_cs > 0) {
    const double traced_cs_d = static_cast<double>(traced_cs);
    layers["runtime.frames_per_cs"] = {frames / traced_cs_d, traced_cs};
    layers["proc.cpu_us_per_cs"] = {traced_cpu_s * 1e6 / traced_cs_d, traced_cs};
    layers["online.ring_bytes"] = {ring_bytes, 1};
  }
  layers["persist.auto_checkpoints"] = {auto_checkpoints.median(), auto_checkpoints.size()};
  layers["fchain.retained_samples_per_vm"] = {retained, 1};
  layers["sim.generate_ms"] = {tel.generate_ms, 1};
  ProbeInput probe;
  probe.tel = &tel;
  probe.ids = idRange(0, per_slave);
  probe.tv = tel.ticks - 1;
  probe.app_components = tel.components;
  probe.dir = options.work_dir + "/probe";
  probe.cpu = cpu;
  probeLayers(probe, layers, report);
  emitLayers(layers, report);
  return report;
}

// =============================================================================
// diagnose
// =============================================================================

namespace {

struct DiagnoseStack {
  Telemetry tel;
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  std::vector<std::vector<ComponentId>> ids;
  fchain::netdep::DependencyGraph deps;
  double discover_ms = 0.0;
  double slave_ingest_us = 0.0;
  std::vector<std::unique_ptr<ServiceHost>> hosts;
  fchain::obs::MetricRegistry client_registry;
  std::unique_ptr<core::FChainMaster> master;
  std::vector<ComponentId> all;

  DiagnoseStack(const Options& options, const Sizes& sizes,
                const std::string& dir) {
    MeshSpec mesh;
    mesh.services = 64;
    mesh.seed = options.seed;
    mesh.ticks = sizes.fault_start + 900;
    mesh.fault_start = sizes.fault_start;
    mesh.after_latch = kSweep + 5;
    mesh.keep_record = true;
    tel = generateMesh(mesh);
    if (!tel.latch) throw std::runtime_error("diagnose: the SLO never latched");

    // History is built in-process; only the localizations cross sockets.
    const std::size_t per_slave = tel.components / 2;
    const Clock::time_point feed_start = Clock::now();
    for (HostId h = 0; h < 2; ++h) {
      ids.push_back(idRange(h * per_slave, per_slave));
      slaves.push_back(std::make_unique<core::FChainSlave>(h));
      for (ComponentId id : ids.back()) slaves.back()->addComponent(id, 0);
      feed(*slaves.back(), tel, ids.back(), 0, tel.ticks);
    }
    slave_ingest_us = msSince(feed_start) * 1e3 /
                      static_cast<double>(tel.ticks * tel.components);
    const Clock::time_point discover_start = Clock::now();
    deps = fchain::netdep::discoverDependencies(tel.record);
    discover_ms = msSince(discover_start);

    // Each slave thread gets its own CPU; the client thread and the master's pool
    // threads (created by the warm-up localize) share a third.
    master = std::make_unique<core::FChainMaster>();
    master->setWorkerThreads(2);
    for (HostId h = 0; h < 2; ++h) {
      hosts.push_back(std::make_unique<ServiceHost>(
          *slaves[h], dir + "/d" + std::to_string(h) + ".sock",
          cpuSlot(1 + h)));
      auto endpoint = makeEndpoint(hosts.back()->address(), &client_registry);
      const runtime::ComponentListReply reply = endpoint->listComponents();
      if (reply.status != runtime::EndpointStatus::Ok) {
        throw std::runtime_error("diagnose: slave handshake failed");
      }
      master->registerEndpoint(std::make_shared<TracedEndpoint>(endpoint),
                               reply.components);
    }
    master->setDependencies(deps);
    all = idRange(0, tel.components);
    master->localize(all, *tel.latch);  // warm-up
  }
};

struct LocalizeOp {
  TimeSec tv = 0;
  std::uint64_t verdict = 0;
  double coverage = 0.0;
  bool hit = false;
};

bool pinpoints(const core::PinpointResult& verdict, ComponentId store) {
  return std::find(verdict.pinpointed.begin(), verdict.pinpointed.end(), store) !=
         verdict.pinpointed.end();
}

/// The verdict detects the injected store as abnormal and blames either the
/// store or only components whose abnormal change began before the store's:
/// FChain blames the earliest changes, and on a few seeds a flash crowd just
/// before the fault turns most of the mesh abnormal first (seed 9: most
/// services by t = 1 714, the store at t = 1 749, so no verdict of that run
/// pinpoints the store).
bool accountsFor(const core::PinpointResult& verdict, ComponentId store) {
  const auto onsetOf = [&](ComponentId id) -> std::optional<TimeSec> {
    for (const core::ComponentFinding& f : verdict.chain) {
      if (f.component == id) return f.onset;
    }
    return std::nullopt;
  };
  const std::optional<TimeSec> store_onset = onsetOf(store);
  if (!store_onset || verdict.pinpointed.empty()) return false;
  if (pinpoints(verdict, store)) return true;
  return std::all_of(verdict.pinpointed.begin(), verdict.pinpointed.end(),
                     [&](ComponentId id) {
                       const std::optional<TimeSec> onset = onsetOf(id);
                       return onset && *onset < *store_onset;
                     });
}

using fchain::obs::SpanRecord;

bool within(const SpanRecord& outer, const SpanRecord& inner) {
  return inner.start_us >= outer.start_us &&
         inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us;
}

std::uint64_t endOf(const SpanRecord& span) { return span.start_us + span.dur_us; }

/// Stage check over traced localizations: along the blocking path — the
/// client thread plus the slower slave's pool task, RPC and analysis — span
/// self times must add up to the localize wall time within 10 %.
struct StageCheck {
  Samples analyze_batch_ms, rpc_ms, fanout_wait_ms, gap_frac;
  SelectorSplit split;
  double client_us = 0, worker_us = 0, transport_us = 0, slave_us = 0,
         wall_us = 0, path_us = 0;
  std::size_t checked = 0;

  /// The spans of one localization, opened inside "bench.localize".
  void add(const std::vector<SpanRecord>& spans) {
    const std::vector<double> self = selfTimesUs(spans);
    split.add(spans, self);
    const auto localize = std::find_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
      return s.name == "bench.localize";
    });
    if (localize == spans.end()) return;
    double client_self = self[localize - spans.begin()];
    // Each RPC served the slave.analyze_batch that ends last inside it: the
    // other slave's batch, if it ran longer, ends after the faster RPC.
    const SpanRecord* slow_rpc = nullptr;
    const SpanRecord* slow_batch = nullptr;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      const SpanRecord& span = spans[s];
      if (!within(*localize, span)) continue;
      if (span.tid == localize->tid &&
          (span.name == "master.localize" || span.name == "master.merge")) {
        client_self += self[s];
      }
      if (span.name == "slave.analyze_batch") analyze_batch_ms.push(span.dur_us / 1e3);
      if (span.name != "bench.analyze_rpc") continue;
      const SpanRecord* batch = nullptr;
      for (const SpanRecord& other : spans) {
        if (other.name == "slave.analyze_batch" && other.tid != span.tid &&
            within(span, other) && (batch == nullptr || endOf(other) > endOf(*batch))) {
          batch = &other;
        }
      }
      if (batch == nullptr) continue;
      rpc_ms.push(static_cast<double>(span.dur_us - batch->dur_us) / 1e3);
      if (slow_rpc == nullptr || span.dur_us > slow_rpc->dur_us) {
        slow_rpc = &span;
        slow_batch = batch;
      }
    }
    if (slow_rpc == nullptr) return;
    double task_self = 0.0, batch_self = 0.0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (spans[s].tid != slow_rpc->tid || !within(spans[s], *slow_rpc)) continue;
      if (spans[s].name == "pool.task") task_self = self[s];
      if (spans[s].name == "master.batch") batch_self = self[s];
    }
    const double slave = static_cast<double>(slow_batch->dur_us);
    const double transport = static_cast<double>(slow_rpc->dur_us) - slave;
    const double path = client_self + task_self + batch_self + transport + slave;
    const double wall = static_cast<double>(localize->dur_us);
    client_us += client_self;
    worker_us += task_self + batch_self;
    transport_us += transport;
    slave_us += slave;
    wall_us += wall;
    path_us += path;
    gap_frac.push(1.0 - path / wall);
    fanout_wait_ms.push((wall - slave) / 1e3);
    ++checked;
  }
};

}  // namespace

Report runDiagnose(const Options& options) {
  Report report;
  const Sizes sizes = sizesFor(options);
  const std::string dir = options.work_dir + "/diagnose";
  freshDir(dir);
  pinThisThread(cpuSlot(0));

  Samples setup_s;
  std::unique_ptr<DiagnoseStack> stack;
  const int setups = options.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    stack.reset();
    const Clock::time_point start = k == 0 ? processStart() : Clock::now();
    stack = std::make_unique<DiagnoseStack>(options, sizes, dir);
    setup_s.push(secSince(start));
  }
  const TimeSec latch = *stack->tel.latch;

  // Timed phase. Consecutive calls never share a violation time.
  Samples localize_ms, traced_localize_ms;
  std::vector<LocalizeOp> ops;
  StageCheck stages;
  double busy_s = 0.0, traced_busy_s = 0.0, traced_cpu_s = 0.0;
  const Clock::time_point phase = Clock::now();
  for (std::size_t i = 0; secSince(phase) < options.seconds; ++i) {
    const bool traced = options.trace && secSince(phase) >= options.seconds / 2;
    setTracing(traced);
    LocalizeOp op;
    op.tv = latch + static_cast<TimeSec>(i % kSweep);
    const double cpu_before = processCpuSec();
    const Clock::time_point start = Clock::now();
    core::PinpointResult result;
    {
      fchain::obs::Span span(fchain::obs::tracer(), "bench.localize");
      result = stack->master->localize(stack->all, op.tv);
    }
    const double wall_ms = msSince(start);
    (traced ? traced_localize_ms : localize_ms).push(wall_ms);
    (traced ? traced_busy_s : busy_s) += wall_ms / 1000.0;
    op.verdict = hashBytes(verdictBytes(result));
    op.coverage = result.coverage;
    op.hit = pinpoints(result, stack->tel.store);
    if (traced) {
      traced_cpu_s += processCpuSec() - cpu_before;
      stages.add(fchain::obs::tracer().records());
      fchain::obs::tracer().clear();
    }
    ops.push_back(op);
  }
  setTracing(false);
  const double rss = peakRssMiB();
  for (auto& host : stack->hosts) host->shutdown();

  // Gates: an in-process LocalEndpoint master's verdict for each violation
  // time must account for the injected store, and every socket verdict must
  // equal that verdict, with full coverage. The first catches a verdict that
  // is wrong in both masters alike.
  core::FChainMaster reference;
  for (auto& slave : stack->slaves) reference.registerSlave(slave.get());
  reference.setDependencies(stack->deps);
  std::vector<std::uint64_t> expected(kSweep);
  for (TimeSec k = 0; k < kSweep; ++k) {
    const core::PinpointResult verdict = reference.localize(stack->all, latch + k);
    expected[k] = hashBytes(verdictBytes(verdict));
    report.check(accountsFor(verdict, stack->tel.store),
                 "diagnose: reference verdict at tv=" + std::to_string(latch + k) +
                     " does not account for the injected store");
  }
  if (options.corrupt_reference) expected[0] ^= 1;
  std::size_t hits = 0;
  for (const LocalizeOp& op : ops) {
    report.check(op.verdict == expected[op.tv - latch] && op.coverage == 1.0,
                 "diagnose: verdict at tv=" + std::to_string(op.tv) +
                     " differs from the in-process reference");
    hits += op.hit ? 1 : 0;
  }
  report.note(strf("diagnose: latch at t=%.0f, %.0f localizations, "
                  "localized_frac %.3f",
                  static_cast<double>(latch), static_cast<double>(ops.size()),
                  static_cast<double>(hits) / static_cast<double>(ops.size())));

  if (!options.trace) {
    addEndToEnd(report, setup_s, localize_ms, kDiagnoseBlock, 1.0, rss);
    return report;
  }

  noteOverhead(report, "op_ms_p50", localize_ms.median(), traced_localize_ms.median());
  noteOverhead(report, "op_ms_p90", localize_ms.quantile(0.9),
               traced_localize_ms.quantile(0.9));
  noteOverhead(report, "throughput_per_s",
               static_cast<double>(localize_ms.size()) / busy_s,
               static_cast<double>(traced_localize_ms.size()) / traced_busy_s);

  // Pinpointing the gathered findings, in-process, for each violation time.
  Samples pinpoint_us;
  core::IntegratedPinpointer pinpointer;
  for (TimeSec k = 0; k < kSweep; ++k) {
    std::vector<core::ComponentFinding> findings;
    for (std::size_t h = 0; h < 2; ++h) {
      for (auto& f : stack->slaves[h]->analyzeBatch(stack->ids[h], latch + k)) {
        if (f) findings.push_back(std::move(*f));
      }
    }
    const Clock::time_point start = Clock::now();
    pinpointer.pinpoint(findings, stack->all.size(), &stack->deps);
    pinpoint_us.push(msSince(start) * 1e3);
  }

  const double n = static_cast<double>(std::max<std::size_t>(stages.checked, 1));
  report.note(strf("stage check: %zu traced localizations, mean wall %.3f ms, "
                   "blocking-path self time %.3f ms",
                   stages.checked, stages.wall_us / n / 1e3, stages.path_us / n / 1e3));
  report.note(strf("  client %.3f ms, pool task + batch %.3f ms, rpc transport "
                   "%.3f ms, slave analyze_batch %.3f ms",
                   stages.client_us / n / 1e3, stages.worker_us / n / 1e3,
                   stages.transport_us / n / 1e3, stages.slave_us / n / 1e3));
  const double gap = stages.wall_us > 0 ? 1.0 - stages.path_us / stages.wall_us : 1.0;
  report.note(strf("  gap (wall - path) / wall = %.4f (median per call %.4f), "
                   "limit 0.10",
                   gap, stages.gap_frac.median()));
  report.check(stages.checked > 0 && std::abs(gap) <= 0.10,
               "diagnose: blocking-path self times miss the localize wall time "
               "by more than 10 %");

  Layers layers;
  layers["fchain.pinpoint_us"] = {pinpoint_us.median(), pinpoint_us.size()};
  if (stages.checked > 0) {
    layers["fchain.analyze_batch_ms"] = {stages.analyze_batch_ms.median(),
                                         stages.analyze_batch_ms.size()};
    layers["runtime.analyze_rpc_ms"] = {stages.rpc_ms.median(), stages.rpc_ms.size()};
    layers["fchain.fanout_wait_ms"] = {stages.fanout_wait_ms.quantile(0.9),
                                       stages.fanout_wait_ms.size()};
    layers["proc.cpu_ms_per_localize"] = {
        traced_cpu_s * 1e3 / static_cast<double>(traced_localize_ms.size()),
        traced_localize_ms.size()};
  }
  const SelectorSplit& split = stages.split;
  if (split.selector_calls > 0) {
    layers["fchain.selector_metric_us"] = {
        split.selector_us / static_cast<double>(split.selector_calls),
        split.selector_calls};
    layers["signal.cusum_share"] = {split.cusum_us / split.selector_us, split.selector_calls};
    layers["signal.burst_share"] = {split.burst_us / split.selector_us, split.selector_calls};
  }
  layers["fchain.slave_ingest_us"] = {stack->slave_ingest_us,
                                      static_cast<std::size_t>(stack->tel.ticks) *
                                          stack->tel.components};
  layers["netdep.discover_ms"] = {stack->discover_ms, 1};
  layers["sim.generate_ms"] = {stack->tel.generate_ms, 1};
  ProbeInput probe;
  probe.tel = &stack->tel;
  probe.ids = stack->ids[0];
  probe.tv = latch;
  probe.deps = &stack->deps;
  probe.app_components = stack->tel.components;
  probe.dir = options.work_dir + "/probe";
  probe.cpu = cpuSlot(0);
  probeLayers(probe, layers, report);
  emitLayers(layers, report);
  return report;
}

// =============================================================================
// restart
// =============================================================================

namespace {

struct CrashImage {
  Telemetry tel;
  std::vector<ComponentId> ids;
  std::vector<std::uint8_t> snapshot, journal;
  /// The crashed slave's state, encoded as the restarted checkpointer's
  /// boot snapshot (same epoch) must encode it.
  std::vector<std::uint8_t> boot_snapshot;
  std::uint64_t boot_epoch = 0;
  std::uint64_t findings_hash = 0;  ///< the crashed slave's analyzeBatch at tv
  TimeSec tv = 0;
};

constexpr HostId kRestartHost = 0;

CrashImage buildCrashImage(const Options& options, const Sizes& sizes,
                           const std::string& dir) {
  CrashImage image;
  MeshSpec mesh;
  mesh.services = 32;
  mesh.seed = options.seed;
  mesh.ticks = sizes.restart_history + sizes.restart_tail;
  mesh.keep_record = options.trace;
  image.tel = generateMesh(mesh);
  image.ids = idRange(0, image.tel.components);
  image.tv = image.tel.ticks - 1;

  core::FChainSlave slave(kRestartHost);
  for (ComponentId id : image.ids) slave.addComponent(id, 0);
  feed(slave, image.tel, image.ids, 0, sizes.restart_history);
  freshDir(dir);
  {
    core::SlaveCheckpointer checkpointer(slave, dir);  // snapshot at uptime
    for (TimeSec t = sizes.restart_history; t < image.tel.ticks; ++t) {
      for (ComponentId id : image.ids) checkpointer.ingestAt(id, t, image.tel.at(t, id));
    }
    image.snapshot = fchain::persist::readFileBytes(checkpointer.snapshotPath());
    image.journal = fchain::persist::readFileBytes(checkpointer.journalPath());
    image.boot_epoch = checkpointer.epoch() + 1;
  }
  image.boot_snapshot = fchain::persist::encodeSlaveSnapshot(
      slave.snapshot(image.boot_epoch));
  image.findings_hash =
      hashBytes(findingsBytes(slave.analyzeBatch(image.ids, image.tv)));
  return image;
}

std::string snapshotFile(const std::string& dir) {
  return dir + "/slave_" + std::to_string(kRestartHost) + ".snap";
}
std::string journalFile(const std::string& dir) {
  return dir + "/slave_" + std::to_string(kRestartHost) + ".journal";
}

struct RestartCycle {
  double recover_ms = 0.0;
  double handshake_ms = 0.0;
  double checkpoint_ms = 0.0;
  bool ok = false;
};

/// Restores the crash image untimed, then times the fchain_slave boot
/// sequence up to the restarted slave's first handshake reply.
RestartCycle restartOnce(const CrashImage& image, const std::string& dir,
                         int cpu, bool corrupt, bool time_checkpoint) {
  writeFile(snapshotFile(dir), image.snapshot);
  writeFile(journalFile(dir), image.journal);
  RestartCycle cycle;
  fchain::obs::MetricRegistry registry;

  const Clock::time_point start = Clock::now();
  std::unique_ptr<core::FChainSlave> slave;
  {
    fchain::obs::Span span(fchain::obs::tracer(), "bench.recover");
    slave = std::make_unique<core::FChainSlave>(
        core::SlaveCheckpointer::recover(dir, kRestartHost).slave);
  }
  auto checkpointer = std::make_unique<core::SlaveCheckpointer>(*slave, dir);
  auto host = std::make_unique<ServiceHost>(*slave, dir + "/r.sock", cpu,
                                            checkpointer.get());
  auto endpoint = makeEndpoint(host->address(), &registry);
  const Clock::time_point handshake_start = Clock::now();
  const runtime::ComponentListReply reply = endpoint->listComponents();
  cycle.handshake_ms = msSince(handshake_start);
  cycle.recover_ms = msSince(start);

  // Gates: the recovered state equals the crashed slave's (the boot
  // checkpoint just encoded it), and so does the first analysis it serves
  // over the socket.
  runtime::AnalyzeBatchRequest request;
  request.components = image.ids;
  request.violation_time = image.tv;
  const runtime::AnalyzeBatchReply analysis = endpoint->analyzeBatch(request);
  const std::uint64_t expected_findings = image.findings_hash ^ (corrupt ? 1 : 0);
  cycle.ok = reply.status == runtime::EndpointStatus::Ok &&
             reply.components == image.ids &&
             analysis.status == runtime::EndpointStatus::Ok &&
             hashBytes(findingsBytes(analysis.findings)) == expected_findings &&
             checkpointer->epoch() == image.boot_epoch &&
             fchain::persist::readFileBytes(snapshotFile(dir)) == image.boot_snapshot;

  if (time_checkpoint) {
    // checkpointNow() on the live slave, timed on its own.
    const Clock::time_point checkpoint_start = Clock::now();
    checkpointer->checkpointNow();
    cycle.checkpoint_ms = msSince(checkpoint_start);
  }
  host->shutdown();
  return cycle;
}

}  // namespace

Report runRestart(const Options& options) {
  Report report;
  const Sizes sizes = sizesFor(options);
  const std::string crash_dir = options.work_dir + "/restart/crash";
  const std::string dir = options.work_dir + "/restart/state";
  const int cpu = cpuSlot(0);
  pinThisThread(cpu);

  Samples setup_s;
  CrashImage image;
  const int setups = options.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    image = CrashImage{};
    const Clock::time_point start = k == 0 ? processStart() : Clock::now();
    image = buildCrashImage(options, sizes, crash_dir);
    freshDir(dir);
    const RestartCycle warm =
        restartOnce(image, dir, cpu, options.corrupt_reference, false);
    report.check(warm.ok, "restart: warm-up recovery differs from the crash image");
    setup_s.push(secSince(start));
  }

  Samples recover_ms, traced_recover_ms, handshake_ms, checkpoint_ms;
  std::size_t cycles = 0;
  const Clock::time_point phase = Clock::now();
  while (secSince(phase) < options.seconds) {
    const bool traced = options.trace && secSince(phase) >= options.seconds / 2;
    setTracing(traced);
    const RestartCycle cycle =
        restartOnce(image, dir, cpu, options.corrupt_reference, traced);
    (traced ? traced_recover_ms : recover_ms).push(cycle.recover_ms);
    handshake_ms.push(cycle.handshake_ms);
    if (traced) checkpoint_ms.push(cycle.checkpoint_ms);
    report.check(cycle.ok, "restart: cycle " + std::to_string(cycles) +
                               " recovered state differs from the crash image");
    ++cycles;
  }
  setTracing(false);
  const double rss = peakRssMiB();
  report.note(strf("restart: %.0f recoveries of %.0f VMs x %.0f s",
                  static_cast<double>(cycles),
                  static_cast<double>(image.ids.size()),
                  static_cast<double>(image.tel.ticks)));

  if (!options.trace) {
    // 40–70 recoveries a run: too few to split, so one block.
    addEndToEnd(report, setup_s, recover_ms, recover_ms.size(), 1.0, rss);
    return report;
  }
  noteOverhead(report, "op_ms_p50", recover_ms.median(), traced_recover_ms.median());
  noteOverhead(report, "op_ms_p90", recover_ms.quantile(0.9),
               traced_recover_ms.quantile(0.9));

  Layers layers;
  layers["runtime.handshake_ms"] = {handshake_ms.median(), handshake_ms.size()};
  if (!checkpoint_ms.empty()) {
    layers["persist.checkpoint_ms"] = {checkpoint_ms.median(), checkpoint_ms.size()};
  }
  layers["sim.generate_ms"] = {image.tel.generate_ms, 1};
  // The probe rebuilds the crash image: the history in-process, then a
  // checkpointer over it journaling the last restart_tail seconds.
  ProbeInput probe;
  probe.tel = &image.tel;
  probe.ids = image.ids;
  probe.tail = sizes.restart_tail;
  probe.tv = image.tv;
  probe.app_components = image.ids.size();
  probe.dir = options.work_dir + "/probe";
  probe.cpu = cpu;
  probeLayers(probe, layers, report);
  emitLayers(layers, report);
  return report;
}

}  // namespace perfbench
