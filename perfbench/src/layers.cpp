// Per-layer metrics for the traced run. Each workload first records what
// its own traced phase measured live; probeLayers() then rebuilds the
// workload's slave state on replicas and times, on them, only the calls
// behind the metrics still missing (see perfbench/README.md).
#include <algorithm>
#include <initializer_list>

#include "bench.h"
#include "fchain/master.h"
#include "online/monitor.h"
#include "persist/snapshot.h"
#include "runtime/wire.h"

namespace perfbench {

namespace core = fchain::core;
namespace runtime = fchain::runtime;
using fchain::obs::SpanRecord;

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in its order.
constexpr LayerDef kLayers[] = {
    {"runtime.ingest_rtt_us", "us"},
    {"runtime.frames_per_cs", "count"},
    {"runtime.wire_bytes_per_cs", "B"},
    {"runtime.analyze_rpc_ms", "ms"},
    {"runtime.handshake_ms", "ms"},
    {"fchain.slave_ingest_us", "us"},
    {"fchain.analyze_batch_ms", "ms"},
    {"fchain.selector_metric_us", "us"},
    {"fchain.pinpoint_us", "us"},
    {"fchain.fanout_wait_ms", "ms"},
    {"fchain.retained_samples_per_vm", "count"},
    {"signal.cusum_share", "fraction"},
    {"signal.burst_share", "fraction"},
    {"persist.journal_append_us", "us"},
    {"persist.auto_checkpoints", "count"},
    {"persist.capture_ms", "ms"},
    {"persist.save_ms", "ms"},
    {"persist.snapshot_bytes", "B"},
    {"persist.load_ms", "ms"},
    {"persist.restore_ms", "ms"},
    {"persist.replay_ms", "ms"},
    {"persist.checkpoint_ms", "ms"},
    {"online.monitor_ingest_us", "us"},
    {"online.ring_bytes", "B"},
    {"netdep.discover_ms", "ms"},
    {"sim.generate_ms", "ms"},
    {"proc.cpu_us_per_cs", "us"},
    {"proc.cpu_ms_per_localize", "ms"},
};

constexpr int kReps = 5;

}  // namespace

void setTracing(bool on) {
  fchain::obs::tracer().setEnabled(on);
  fchain::obs::tracer().clear();
}

std::vector<double> selfTimesUs(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].dur_us);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  // Sweep each thread's spans in start order; the parent of a span is the
  // nearest still-open span one level up.
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const SpanRecord& span = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].tid != span.tid) open.clear();
    while (!open.empty() && spans[open.back()].depth >= span.depth) open.pop_back();
    if (!open.empty() && spans[open.back()].depth + 1 == span.depth) {
      self[open.back()] -= static_cast<double>(span.dur_us);
    }
    open.push_back(order[k]);
  }
  return self;
}

void SelectorSplit::add(const std::vector<SpanRecord>& spans,
                        const std::vector<double>& self_us) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (name == "selector.metric") {
      selector_us += static_cast<double>(spans[i].dur_us);
      ++selector_calls;
    } else if (name == "signal.cusum") {
      cusum_us += self_us[i];
    } else if (name == "signal.burst_threshold" || name == "signal.fft" ||
               name == "signal.ifft") {
      burst_us += self_us[i];
    }
  }
}

void emitLayers(const Layers& layers, Report& report) {
  for (const LayerDef& def : kLayers) {
    const auto it = layers.find(def.name);
    if (it == layers.end()) {
      report.check(false, std::string("layer metric not measured: ") + def.name);
      report.add(def.name, 0.0, def.unit, 0);
    } else {
      report.add(def.name, it->second.first, def.unit, it->second.second);
    }
  }
}

void probeLayers(const ProbeInput& in, Layers& layers, Report& report) {
  const auto needs = [&](std::initializer_list<const char*> names) {
    return std::any_of(names.begin(), names.end(),
                       [&](const char* name) { return layers.count(name) == 0; });
  };
  const auto put = [&](const char* name, double value, std::size_t samples) {
    layers.emplace(name, std::make_pair(value, samples));
  };
  const Telemetry& tel = *in.tel;
  const std::vector<ComponentId>& ids = in.ids;
  const TimeSec end = tel.ticks;
  const TimeSec tail = std::min<TimeSec>(in.tail, end / 3);
  const TimeSec base_end = end - tail;
  const double tail_cs = static_cast<double>(tail) * static_cast<double>(ids.size());
  const auto tail_samples = static_cast<std::size_t>(tail_cs);
  freshDir(in.dir);

  // The workload's slave state at base_end, built in-process.
  core::FChainSlave base(0);
  for (ComponentId id : ids) base.addComponent(id, 0);
  Clock::time_point start = Clock::now();
  feed(base, tel, ids, 0, base_end);
  put("fchain.slave_ingest_us",
      msSince(start) * 1e3 / (static_cast<double>(base_end) * static_cast<double>(ids.size())),
      static_cast<std::size_t>(base_end) * ids.size());

  // Snapshot capture, save, load and restore.
  Samples capture_ms, save_ms, load_ms, restore_ms;
  const std::string snap_path = in.dir + "/probe.snap";
  fchain::persist::SlaveSnapshot snap;
  std::size_t snap_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    start = Clock::now();
    snap = base.snapshot(1);
    snap_bytes = fchain::persist::encodeSlaveSnapshot(snap).size();
    capture_ms.push(msSince(start));
    start = Clock::now();
    fchain::persist::saveSlaveSnapshot(snap_path, snap);
    save_ms.push(msSince(start));
    start = Clock::now();
    const fchain::persist::SlaveSnapshot loaded =
        fchain::persist::loadSlaveSnapshot(snap_path);
    load_ms.push(msSince(start));
    start = Clock::now();
    const core::FChainSlave restored = core::FChainSlave::fromSnapshot(loaded);
    restore_ms.push(msSince(start));
  }
  put("persist.capture_ms", capture_ms.median(), capture_ms.size());
  put("persist.save_ms", save_ms.median(), save_ms.size());
  put("persist.snapshot_bytes", static_cast<double>(snap_bytes), 1);
  put("persist.load_ms", load_ms.median(), load_ms.size());
  put("persist.restore_ms", restore_ms.median(), restore_ms.size());

  // The last `tail` seconds in-process: the baseline the journal and monitor
  // costs are taken over, and the state analysis runs on.
  core::FChainSlave inproc = core::FChainSlave::fromSnapshot(snap);
  start = Clock::now();
  feed(inproc, tel, ids, base_end, end);
  const double inproc_us = msSince(start) * 1e3 / tail_cs;
  const fchain::MetricSeries* series = inproc.seriesOf(ids.front());
  put("fchain.retained_samples_per_vm",
      series != nullptr ? static_cast<double>(series->size()) : 0.0, 1);

  // The same tail through a checkpointer (journal append), then recovery
  // from its snapshot + journal and checkpointNow() on it.
  if (needs({"persist.journal_append_us", "persist.auto_checkpoints",
             "persist.replay_ms", "persist.checkpoint_ms"})) {
    const std::string cp_dir = in.dir + "/checkpoint";
    freshDir(cp_dir);
    core::FChainSlave journaled = core::FChainSlave::fromSnapshot(snap);
    core::SlaveCheckpointer checkpointer(journaled, cp_dir);
    const std::uint64_t boot_epoch = checkpointer.epoch();
    start = Clock::now();
    for (TimeSec t = base_end; t < end; ++t) {
      for (ComponentId id : ids) checkpointer.ingestAt(id, t, tel.at(t, id));
    }
    put("persist.journal_append_us", msSince(start) * 1e3 / tail_cs - inproc_us,
        tail_samples);
    put("persist.auto_checkpoints",
        static_cast<double>(checkpointer.epoch() - boot_epoch), 1);
    if (needs({"persist.replay_ms"})) {
      Samples replay_ms;
      for (int rep = 0; rep < 3; ++rep) {
        start = Clock::now();
        const fchain::persist::SlaveSnapshot loaded =
            fchain::persist::loadSlaveSnapshot(checkpointer.snapshotPath());
        const core::FChainSlave restored = core::FChainSlave::fromSnapshot(loaded);
        const double load_restore = msSince(start);
        start = Clock::now();
        const auto recovered = core::SlaveCheckpointer::recover(cp_dir, 0);
        replay_ms.push(msSince(start) - load_restore);
      }
      put("persist.replay_ms", replay_ms.median(), replay_ms.size());
    }
    if (needs({"persist.checkpoint_ms"})) {
      Samples checkpoint_ms;
      for (int rep = 0; rep < 3; ++rep) {
        start = Clock::now();
        checkpointer.checkpointNow();
        checkpoint_ms.push(msSince(start));
      }
      put("persist.checkpoint_ms", checkpoint_ms.median(), checkpoint_ms.size());
    }
  }

  // The same tail through an OnlineMonitor over a LocalEndpoint.
  if (needs({"online.monitor_ingest_us", "online.ring_bytes"})) {
    core::FChainSlave monitored = core::FChainSlave::fromSnapshot(snap);
    fchain::online::OnlineMonitor monitor;
    monitor.addSlave(&monitored);
    start = Clock::now();
    for (TimeSec t = base_end; t < end; ++t) {
      for (ComponentId id : ids) monitor.ingest(id, t, tel.at(t, id));
    }
    put("online.monitor_ingest_us", msSince(start) * 1e3 / tail_cs - inproc_us,
        tail_samples);
    put("online.ring_bytes",
        static_cast<double>(monitor.ringOccupancy()) * sizeof(Sample), 1);
  }

  {
    runtime::IngestRequest request;
    request.sample = tel.at(base_end, ids.front());
    const double bytes = static_cast<double>(
        runtime::wire::encodeIngestRequest(request).size() +
        runtime::wire::encodeIngestReply({runtime::EndpointStatus::Ok, 0.0}).size());
    put("runtime.wire_bytes_per_cs", bytes, tail_samples);
  }

  // A replica served over a unix socket on the calling thread's CPU, which
  // gets the tail over the socket when the ingest RPC is measured here and
  // in-process otherwise, so it always holds the state `inproc` holds.
  const bool socket_tail = needs({"runtime.ingest_rtt_us", "runtime.frames_per_cs",
                                  "proc.cpu_us_per_cs"});
  const bool remote_analysis = needs({"runtime.analyze_rpc_ms", "fchain.fanout_wait_ms",
                                      "proc.cpu_ms_per_localize"});
  core::FChainSlave served = core::FChainSlave::fromSnapshot(snap);
  fchain::obs::MetricRegistry registry;
  std::optional<ServiceHost> host;
  std::shared_ptr<runtime::SocketEndpoint> endpoint;
  if (socket_tail || remote_analysis || needs({"runtime.handshake_ms"})) {
    if (!socket_tail) feed(served, tel, ids, base_end, end);
    host.emplace(served, in.dir + "/p.sock", in.cpu);
    endpoint = makeEndpoint(host->address(), &registry);
    start = Clock::now();
    const runtime::ComponentListReply hello = endpoint->listComponents();
    put("runtime.handshake_ms", msSince(start), 1);
    report.check(hello.status == runtime::EndpointStatus::Ok,
                 "probe: handshake failed");
  }
  if (socket_tail) {
    fchain::obs::Counter& tx = registry.counter("runtime.socket.frames_tx");
    fchain::obs::Counter& rx = registry.counter("runtime.socket.frames_rx");
    const std::uint64_t frames_before = tx.value() + rx.value();
    Samples rtt_us;
    bool ingested = true;
    const double cpu_before = processCpuSec();
    for (TimeSec t = base_end; t < end; ++t) {
      for (ComponentId id : ids) {
        runtime::IngestRequest request;
        request.component = id;
        request.t = t;
        request.sample = tel.at(t, id);
        start = Clock::now();
        const runtime::IngestReply reply = endpoint->ingest(request);
        rtt_us.push(msSince(start) * 1e3);
        ingested = ingested && reply.status == runtime::EndpointStatus::Ok;
      }
    }
    put("proc.cpu_us_per_cs", (processCpuSec() - cpu_before) * 1e6 / tail_cs,
        tail_samples);
    report.check(ingested, "probe: socket ingest failed");
    put("runtime.ingest_rtt_us", rtt_us.median(), rtt_us.size());
    put("runtime.frames_per_cs",
        static_cast<double>(tx.value() + rx.value() - frames_before) / tail_cs,
        tail_samples);
  }

  // In-process analysis of the tail's end, checked against the served
  // replica's analysis over the socket.
  std::vector<core::ComponentFinding> findings;
  if (needs({"fchain.analyze_batch_ms", "fchain.selector_metric_us", "signal.cusum_share",
             "signal.burst_share", "fchain.pinpoint_us"})) {
    Samples inproc_ms;
    SelectorSplit split;
    setTracing(true);
    for (int rep = 0; rep < kReps; ++rep) {
      start = Clock::now();
      auto batch = inproc.analyzeBatch(ids, in.tv);
      inproc_ms.push(msSince(start));
      const std::vector<SpanRecord> spans = fchain::obs::tracer().records();
      fchain::obs::tracer().clear();
      split.add(spans, selfTimesUs(spans));
      if (rep > 0) continue;
      for (auto& f : batch) {
        if (f) findings.push_back(*f);
      }
      if (endpoint) {
        runtime::AnalyzeBatchRequest request;
        request.components = ids;
        request.violation_time = in.tv;
        setTracing(false);
        const runtime::AnalyzeBatchReply remote = endpoint->analyzeBatch(request);
        setTracing(true);
        report.check(remote.status == runtime::EndpointStatus::Ok &&
                         findingsBytes(remote.findings) == findingsBytes(batch),
                     "probe: socket analysis differs from in-process analysis");
      }
    }
    setTracing(false);
    put("fchain.analyze_batch_ms", inproc_ms.median(), inproc_ms.size());
    if (split.selector_calls > 0) {
      put("fchain.selector_metric_us",
          split.selector_us / static_cast<double>(split.selector_calls),
          split.selector_calls);
      put("signal.cusum_share", split.cusum_us / split.selector_us, split.selector_calls);
      put("signal.burst_share", split.burst_us / split.selector_us, split.selector_calls);
    }
  }

  // The RPC's cost is its wall time minus the server-side analyzeBatch span
  // of the same call; the fan-out wait is a localize's wall time minus it.
  const auto served_us = [] {
    double us = 0.0;
    for (const SpanRecord& span : fchain::obs::tracer().records()) {
      if (span.name == "slave.analyze_batch") us += static_cast<double>(span.dur_us);
    }
    fchain::obs::tracer().clear();
    return us;
  };
  if (needs({"runtime.analyze_rpc_ms"})) {
    runtime::AnalyzeBatchRequest request;
    request.components = ids;
    request.violation_time = in.tv;
    Samples rpc_ms;
    setTracing(true);
    for (int rep = 0; rep < kReps; ++rep) {
      start = Clock::now();
      endpoint->analyzeBatch(request);
      rpc_ms.push(msSince(start) - served_us() / 1e3);
    }
    setTracing(false);
    put("runtime.analyze_rpc_ms", rpc_ms.median(), rpc_ms.size());
  }

  if (needs({"fchain.pinpoint_us"})) {
    core::IntegratedPinpointer pinpointer;
    Samples pinpoint_us;
    for (int rep = 0; rep < kReps; ++rep) {
      start = Clock::now();
      pinpointer.pinpoint(findings, in.app_components, in.deps);
      pinpoint_us.push(msSince(start) * 1e3);
    }
    put("fchain.pinpoint_us", pinpoint_us.median(), pinpoint_us.size());
  }

  if (needs({"fchain.fanout_wait_ms", "proc.cpu_ms_per_localize"})) {
    core::FChainMaster master;
    master.setWorkerThreads(1);
    master.registerEndpoint(endpoint, ids);
    if (in.deps != nullptr) master.setDependencies(*in.deps);
    master.localize(ids, in.tv);  // creates the pool
    Samples fanout_ms;
    double cpu_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double cpu_start = processCpuSec();
      setTracing(true);
      start = Clock::now();
      master.localize(ids, in.tv);
      fanout_ms.push(msSince(start) - served_us() / 1e3);
      setTracing(false);
      cpu_s += processCpuSec() - cpu_start;
    }
    put("proc.cpu_ms_per_localize", cpu_s * 1e3 / kReps, kReps);
    put("fchain.fanout_wait_ms", fanout_ms.quantile(0.9), fanout_ms.size());
  }
  if (host) host->shutdown();

  if (needs({"netdep.discover_ms"}) && !tel.record.metrics.empty()) {
    start = Clock::now();
    const fchain::netdep::DependencyGraph graph =
        fchain::netdep::discoverDependencies(tel.record);
    put("netdep.discover_ms", msSince(start), 1);
  }
}

}  // namespace perfbench
