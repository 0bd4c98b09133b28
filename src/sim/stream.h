// Streaming sample source: the simulator adapted to online consumption.
//
// The offline evaluation path runs a Simulation to completion and localizes
// from the finished RunRecord (core::localizeRecord). The online monitoring
// runtime (src/online) instead consumes telemetry one second at a time, as a
// production deployment would: this adapter advances the simulation tick by
// tick and emits each component's six metric samples plus the application's
// per-tick SLO signal (latency, or progress for batch jobs) to a caller-
// supplied sink.
//
// Component ids can be offset so several applications can stream into one
// monitor without id collisions — the monitor routes global ids, while the
// underlying simulation keeps its local 0..n-1 space. record() still returns
// the *local*-id record, which is exactly what the offline comparator
// consumes; callers shift the online result back by the id offset they
// passed in when comparing.
#pragma once

#include <array>
#include <functional>

#include "sim/simulator.h"

namespace fchain::sim {

/// One component's metric samples for one tick, in global (offset) id space.
struct StreamSample {
  ComponentId component = kNoComponent;
  TimeSec t = 0;
  std::array<double, kMetricCount> values{};
};

/// The streamed application's SLO signal after one tick.
struct StreamTick {
  TimeSec t = 0;           ///< timestamp of the samples just emitted
  bool batch = false;      ///< true: `progress` is the SLO signal
  double latency_sec = 0;  ///< end-to-end latency estimate (latency apps)
  double progress = 0;     ///< job progress in [0, 1] (batch apps)
};

class StreamingSource {
 public:
  using SampleSink = std::function<void(const StreamSample&)>;

  explicit StreamingSource(const ScenarioConfig& config,
                           ComponentId id_offset = 0)
      : sim_(config), id_offset_(id_offset) {}

  std::size_t componentCount() const { return sim_.app().componentCount(); }

  /// Global (offset) component ids, ascending.
  std::vector<ComponentId> componentIds() const;

  TimeSec now() const { return sim_.now(); }
  bool batch() const { return sim_.batch(); }
  AppKind kind() const { return sim_.kind(); }
  const Simulation& simulation() const { return sim_; }

  /// Advances one second, emits one StreamSample per component to `sink`
  /// (ascending component order), and returns the tick's SLO signal.
  StreamTick step(const SampleSink& sink);

  /// Everything recorded so far (local component ids) — the offline
  /// comparator's input for the online-vs-offline equivalence check.
  RunRecord record() const { return sim_.record(); }

 private:
  Simulation sim_;
  ComponentId id_offset_;
};

}  // namespace fchain::sim
