// Online pinpointing validation (paper §II-A / §III-D, after PREPARE [20]).
//
// FChain knows which metrics were fault-related on each pinpointed
// component, so it can scale the matching resource (CPU cap, memory
// allocation, disk bandwidth) on that component and watch whether the SLO
// improves. Scaling a true culprit relieves the bottleneck; scaling a false
// alarm changes nothing — those components are dropped. Validation takes
// about 30 s per component because the scaling impact needs time to show
// (Table II), and it improves precision but cannot recover missed
// components (no recall improvement; §III-D).
//
// In this reproduction the "cloud actuator" is the simulator: the validator
// copies the simulation snapshot taken at violation time and runs a scaled
// copy against an unscaled control copy.
#pragma once

#include <vector>

#include "fchain/pinpoint.h"
#include "sim/simulator.h"

namespace fchain::core {

struct ValidationConfig {
  /// Multiplier applied to the fault-related resource.
  double scale_factor = 2.5;
  /// How long each what-if run is observed (paper: ~30 s per component).
  std::size_t observe_sec = 30;
  /// The SLO signal of the scaled run must drop below this fraction of the
  /// control run's to count as an improvement. The scaled and control runs
  /// replay identical noise streams, so even a *partial* relief (scaling one
  /// of two concurrent culprits) separates cleanly from a false alarm
  /// (ratio ~= 1.0).
  double improvement_ratio = 0.85;
};

class OnlineValidator {
 public:
  explicit OnlineValidator(ValidationConfig config = {})
      : config_(config) {}

  /// Returns the subset of `result.pinpointed` whose resource scaling
  /// measurably improves the SLO. `snapshot` is the simulation state at
  /// violation time; it is copied, never mutated.
  ///
  /// Concurrent faults are handled with group validation: first scale every
  /// pinpointed component together (the SLO must recover — otherwise the
  /// validation is inconclusive and the set is returned unchanged), then
  /// attribute by leave-one-out: a component whose scaling can be removed
  /// without hurting the recovered SLO was a false alarm. A single
  /// pinpointed component degenerates to the paper's per-component check.
  std::vector<ComponentId> validate(const sim::Simulation& snapshot,
                                    const PinpointResult& result) const;

  /// Validates a single component: validate() when one component is
  /// pinpointed, and tests that check one component alone.
  bool validateComponent(const sim::Simulation& snapshot,
                         const ComponentFinding& finding) const;

 private:
  ValidationConfig config_;
};

}  // namespace fchain::core
