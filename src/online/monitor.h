// Online monitoring runtime: streaming ingest + auto-triggered localization.
//
// Everything built so far diagnoses *after the fact*: a finished RunRecord
// (or a set of fully-ingested slaves) and an externally supplied violation
// time go in, a PinpointResult comes out. The paper's FChain is an always-on
// system — slaves learn continuously from live 1 Hz telemetry, an SLO
// monitor watches the application signal, and the master's localization is
// *triggered by* the violation, not requested by an operator. OnlineMonitor
// closes that loop:
//
//   StreamingSource ──samples──▶ ingest() ──route──▶ per-slave batch of tick t
//                                                          │ flush: one
//                                                          ▼ IngestRequest
//                                              SlaveEndpoint::ingest RPC
//                  ──SLO signal─▶ observe*() ──latch──▶ localizer.localize
//
// Triggering semantics (all in deterministic *sample* time, never wall
// time, so a replayed stream reproduces the same incidents bit-for-bit):
//   - an SLO latch triggers localization immediately when no cooldown is
//     active; during a cooldown the incident is queued (bounded) and fires
//     from pump() once the cooldown expires — overlapping incidents from
//     several applications serialize instead of storming the slaves;
//   - the latched violation time tv is preserved across queueing: the
//     analysis window is anchored at the violation, however late the
//     fan-out runs;
//   - a handled application re-arms only after `rearm_good_sec` of
//     recovered signal — faults that persist (every injected fault does)
//     do not re-trigger once per sustain window.
//
// Equivalence contract (tested in online_vs_offline_test / the soak tier):
// an incident triggered at its latch tick is bit-identical to offline
// `localizeRecord` on the record as of that tick — the slaves have consumed
// exactly the recorded samples, and replayModel(series, tv + 1) is exactly
// the slave's continuously learned model because the series *ends* at tv.
// For a queued incident the slaves have kept learning past tv; the offline
// equivalent replays the model to the trigger-time series end instead.
//
// As in the paper, the monitor only reports the violation at tv; the fan-out
// belongs to the localizer it is handed (core::LocalizationTier): one
// FChainMaster, or the sharded fleet::FleetMaster. The caller configures
// that localizer (FChainConfig, retries, worker threads, watchdog, incident
// journal) and keeps it alive for the monitor's lifetime. A default-built
// monitor owns a default FChainMaster instead. Transports registered
// through addSlave()/addEndpoint() are registered with the localizer for
// the analysis RPCs and serve the monitor's streaming ingest RPC
// (runtime::IngestRequest). The monitor keeps no telemetry of its own: the
// slaves hold the metric streams and the localizer only ever sees their
// findings. Ingest is fire-and-forget: a lost batch is repaired by the
// slave's gap-fill on the next arrival, so there is no retry path to storm
// a degraded slave with.
//
// Ingest is batched per slave per tick: ingest() buffers the sample in its
// slave's pending request, and a flush sends each slave's request as one
// RPC, in registration order. A flush runs at the start of every
// observe*(), pump() and drain(), and when ingest() sees a tick other than
// the buffered one. Every localization runs from observe*()/pump()/drain(),
// so it sees every sample ingested before that call, exactly as if each
// sample had been sent on its own.
//
// The driver loop contract, per simulated second:
//   1. ingest() every component's sample for tick t;
//   2. observe*() each application's SLO signal at t (may fire);
//   3. pump() once, so queued incidents fire on tick boundaries only —
//      every registered slave then holds *complete* data through t when a
//      late incident fans out.
// A sample reaches its slave by the next observe*()/pump()/drain(), or by
// the first sample of a later tick, whichever comes first. A caller that
// reads a slave directly must pump() first. Destroying the monitor sends
// nothing: a LocalEndpoint's slave may already be gone, and a durable
// endpoint's journal write can throw. Samples still buffered then count as
// failed ingest, so a driver that wants them delivered pumps before it lets
// the monitor go.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fchain/master.h"
#include "sim/slo.h"
#include "sim/stream.h"

namespace fchain::online {

/// Which SLO guards an application, with the paper's defaults (§III-A).
struct SloSpec {
  enum class Kind : std::uint8_t {
    Latency,   ///< sustained `latency > threshold` (RUBiS, System S)
    Progress,  ///< no progress over a trailing window (Hadoop)
  };
  Kind kind = Kind::Latency;
  double latency_threshold_sec = 0.1;
  std::size_t sustain_sec = 30;
  std::size_t progress_window_sec = 30;
  double progress_min_delta = 5e-4;
};

/// One monitored application: a name, the (global) components it runs on,
/// and its SLO.
struct AppSpec {
  std::string name;
  std::vector<ComponentId> components;
  SloSpec slo;
};

struct OnlineMonitorConfig {
  /// Seconds of sample time after a trigger during which further latches
  /// queue instead of firing (localization storm control).
  TimeSec cooldown_sec = 60;

  /// Queued-incident bound; latches past it are counted dropped.
  std::size_t max_pending_incidents = 8;

  /// Consecutive seconds of recovered SLO signal before a handled
  /// application's monitor re-arms. For progress SLOs the equivalent
  /// criterion is cumulative progress of rearm_good_sec x min_delta since
  /// the trigger.
  TimeSec rearm_good_sec = 30;

  /// Deadline stamped on every ingest RPC (0 disables).
  double ingest_deadline_ms = 0.0;
};

/// One auto-triggered localization.
struct OnlineIncident {
  std::size_t app = 0;  ///< index returned by addApplication()
  std::string app_name;
  TimeSec violation_time = 0;  ///< the SLO latch (analysis anchor tv)
  TimeSec triggered_at = 0;    ///< sample clock when localize actually ran
  TimeSec queued_delay_sec = 0;  ///< triggered_at - violation_time
  double localize_wall_ms = 0.0;
  /// Supervision deltas across *this* localization (0 when the watchdog is
  /// off): endpoint calls abandoned on timeout and components shed by the
  /// localize deadline, read from the localizer's master.watchdog_trips and
  /// master.deadline_skips counters (a FleetMaster keeps those in its shard
  /// masters, so under a fleet both read 0). Unlike localize_wall_ms these
  /// are deterministic under a deterministic transport, so offline analytics
  /// (the fault campaign's timed-out classification) can key on them
  /// without reintroducing wall-clock noise into reports.
  std::size_t watchdog_trips_delta = 0;
  std::size_t deadline_skips_delta = 0;
  core::PinpointResult result;
};

class OnlineMonitor {
 public:
  using IncidentCallback = std::function<void(const OnlineIncident&)>;

  /// Hands latched incidents to `localizer`, which must outlive the monitor.
  OnlineMonitor(OnlineMonitorConfig config,
                core::LocalizationTier& localizer);
  /// Owns a default FChainMaster as its localizer.
  explicit OnlineMonitor(OnlineMonitorConfig config = {});
  /// Counts every still-buffered sample in online.ingest_failures; sends
  /// no RPC (see the driver loop contract above).
  ~OnlineMonitor();
  /// Ingest routes point into the monitor's own slave list.
  OnlineMonitor(const OnlineMonitor&) = delete;
  OnlineMonitor& operator=(const OnlineMonitor&) = delete;

  // --- Registration (before streaming starts) ----------------------------

  /// Registers an in-process slave (ingest + analysis via LocalEndpoint).
  /// The slave must outlive the monitor; its components must already be
  /// registered.
  void addSlave(core::FChainSlave* slave);

  /// Registers a slave behind an arbitrary transport, with the localizer
  /// and as the ingest route of its components. The endpoint must implement
  /// the ingest RPC (LocalEndpoint, SocketEndpoint and FlakyEndpoint all
  /// do).
  void addEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                   const std::vector<ComponentId>& components);

  /// Registers an application; returns its index (used by observe*() and
  /// OnlineIncident::app).
  std::size_t addApplication(AppSpec spec);

  /// Cluster-wide dependency graph (global id space): the default for every
  /// application without a graph of its own.
  void setDependencies(netdep::DependencyGraph graph);

  /// Per-application dependency graph (global id space), installed on the
  /// localizer for this application's localizations only. Localization
  /// semantics are per-application: an app whose discovery found *nothing*
  /// (the paper's data-stream negative finding) must fall back to
  /// chronology-only pinpointing even when other apps on the same monitor
  /// have rich graphs — a merged cluster graph would silently defeat that
  /// fallback and mark every unconnected component an independent fault.
  void setDependencies(std::size_t app, netdep::DependencyGraph graph);

  // --- Streaming ---------------------------------------------------------

  /// Buffers one component-second for the owning slave (see the header
  /// comment for when it is sent). Advances the monitor's sample clock.
  void ingest(ComponentId id, TimeSec t,
              const std::array<double, kMetricCount>& sample);
  void ingest(const sim::StreamSample& sample) {
    ingest(sample.component, sample.t, sample.values);
  }

  /// Sends the buffered samples, then feeds one application's SLO signal
  /// for one tick; returns true when an incident fired synchronously (latch
  /// with no active cooldown).
  bool observeLatency(std::size_t app, TimeSec t, double latency_sec);
  bool observeProgress(std::size_t app, TimeSec t, double progress);
  /// Dispatches on the app's SloSpec::Kind from a StreamTick.
  bool observe(std::size_t app, const sim::StreamTick& tick);

  /// Sends the buffered samples, then fires queued incidents whose cooldown
  /// has expired (call once per tick, after every ingest/observe of that
  /// tick). Returns the number fired.
  std::size_t pump();

  /// Sends the buffered samples, then fires the queue regardless of
  /// cooldown (end-of-stream drain).
  std::size_t drain();

  // --- Results / introspection -------------------------------------------

  /// Callback invoked synchronously as each incident completes — the hook
  /// where an equivalence harness captures the comparator state at the
  /// exact trigger moment.
  void onIncident(IncidentCallback callback) {
    callback_ = std::move(callback);
  }

  const std::vector<OnlineIncident>& incidents() const { return incidents_; }
  std::size_t pendingTriggers() const { return pending_.size(); }
  TimeSec clock() const { return clock_; }

  /// The monitor retains no telemetry; kept only for perfbench's reader.
  std::size_t ringOccupancy() const { return 0; }

  /// The localizer's registry, extended with the monitor's own instruments:
  ///   online.ingest_samples    (counter: samples routed to a slave)
  ///   online.ingest_failures   (counter: samples unroutable, in an
  ///                             ingest RPC that failed — a failed batch
  ///                             adds its sample count — or still buffered
  ///                             when the monitor is destroyed)
  ///   online.slo_latches       (counter: SLO violations latched)
  ///   online.triggers          (counter: localizations auto-triggered)
  ///   online.incidents_queued  (counter: latches deferred by a cooldown)
  ///   online.incidents_dropped (counter: latches shed by the queue bound)
  ///   online.trigger_latency_ms (histogram: latch-to-pinpoint wall time of
  ///                              synchronously fired incidents; queued
  ///                              incidents additionally report their
  ///                              sample-time delay in queued_delay_sec)
  obs::MetricRegistry& metrics() { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }

 private:
  struct AppState {
    explicit AppState(AppSpec app)
        : spec(std::move(app)),
          latency(spec.slo.latency_threshold_sec, spec.slo.sustain_sec),
          progress(spec.slo.progress_window_sec, spec.slo.progress_min_delta) {}

    AppSpec spec;
    sim::LatencySloMonitor latency;
    sim::ProgressSloMonitor progress;
    /// True from latch until re-arm: the incident is fired/queued and the
    /// stale latch must not re-trigger.
    bool handled = false;
    TimeSec good_streak = 0;       ///< latency re-arm progress
    double progress_anchor = 0.0;  ///< progress at latch (progress re-arm)
    netdep::DependencyGraph deps;  ///< per-app graph (when has_deps)
    bool has_deps = false;
  };
  struct PendingTrigger {
    std::size_t app = 0;
    TimeSec tv = 0;
  };

  /// Routes a latch: fire now, queue, or drop.
  bool latch(std::size_t app, TimeSec tv);
  void fire(std::size_t app, TimeSec tv);
  bool cooldownExpired() const;
  /// Advances the re-arm state machine; returns true while handled (the
  /// caller must then skip the latched monitor).
  bool updateRearm(AppState& state, double signal_good);

  OnlineMonitorConfig config_;
  /// The default-built monitor's own master (null when handed a localizer).
  std::unique_ptr<core::FChainMaster> owned_master_;
  core::LocalizationTier& localizer_;
  /// One registered slave and its samples of the buffered tick.
  struct PendingIngest {
    std::shared_ptr<runtime::SlaveEndpoint> endpoint;
    runtime::IngestRequest request;  ///< valid when samples > 0
    std::size_t samples = 0;
  };

  /// Sends every slave's buffered samples as one IngestRequest per slave,
  /// in registration order, and empties the buffer.
  void flush();

  /// Registered slaves in registration order (a deque: routes point in).
  std::deque<PendingIngest> batches_;
  /// Owning slave of each component; a miss is an unroutable sample.
  std::map<ComponentId, PendingIngest*> ingest_routes_;
  /// The tick of the buffered samples; nullopt when nothing is buffered.
  std::optional<TimeSec> buffered_tick_;

  std::vector<AppState> apps_;
  netdep::DependencyGraph default_deps_;
  std::deque<PendingTrigger> pending_;
  std::vector<OnlineIncident> incidents_;
  IncidentCallback callback_;

  TimeSec clock_ = 0;
  bool fired_once_ = false;
  TimeSec last_fire_clock_ = 0;

  obs::MetricRegistry& registry_ = localizer_.metrics();
  obs::Counter& metric_ingest_samples_ =
      registry_.counter("online.ingest_samples");
  obs::Counter& metric_ingest_failures_ =
      registry_.counter("online.ingest_failures");
  obs::Counter& metric_slo_latches_ = registry_.counter("online.slo_latches");
  obs::Counter& metric_triggers_ = registry_.counter("online.triggers");
  obs::Counter& metric_incidents_queued_ =
      registry_.counter("online.incidents_queued");
  obs::Counter& metric_incidents_dropped_ =
      registry_.counter("online.incidents_dropped");
  obs::Histogram& metric_trigger_latency_ms_ = registry_.histogram(
      "online.trigger_latency_ms",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
       5000.0, 10000.0});
  /// The localizer's supervision counters (zero unless it runs a watchdog).
  const obs::Counter& metric_watchdog_trips_ =
      registry_.counter("master.watchdog_trips");
  const obs::Counter& metric_deadline_skips_ =
      registry_.counter("master.deadline_skips");
};

}  // namespace fchain::online
