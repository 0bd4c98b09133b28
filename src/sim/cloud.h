// The IaaS cloud layer: physical hosts, guest-VM placement, multi-tenant
// interference, and per-host clocks.
//
// The paper's testbed is NCSU's Virtual Computing Lab: dual-core Xeon hosts
// running Xen, with the three benchmark applications deployed *concurrently*
// on the same set of hosts to create realistic cross-tenant noise
// (§III-A). The Cloud reproduces that setting: applications are deployed
// side by side, components are placed round-robin onto hosts, and each host
// carries an AR(1)-wandering interference level that transiently steals CPU
// from every VM it hosts. Host clocks are NTP-synchronized with a bounded
// residual skew (the paper cites < 5 ms, far below the 1 Hz sampling grid
// and the multi-second anomaly propagation delays — which is why FChain's
// cross-host timestamp comparisons are safe).
#pragma once

#include <vector>

#include "common/rng.h"
#include "sim/application.h"

namespace fchain::sim {

struct HostSpec {
  double cpu_capacity = 2.0;  ///< cores (dual-core Xeon, as in the paper)
};

struct CloudConfig {
  std::size_t host_count = 6;
  /// Peak cores transiently stolen from a VM by co-located tenants.
  double interference_level = 0.06;
  /// Residual NTP skew bound per host, milliseconds.
  double max_clock_skew_ms = 5.0;
};

class Cloud {
 public:
  explicit Cloud(CloudConfig config, std::uint64_t seed);

  /// Deploys an application; its components are placed round-robin across
  /// the hosts (interleaving tenants, as multi-tenant clouds do). Returns
  /// the application's index.
  std::size_t deploy(Application app);

  Application& app(std::size_t index) { return apps_[index]; }
  const Application& app(std::size_t index) const { return apps_[index]; }

  std::size_t hostCount() const { return config_.host_count; }

  /// Host running one application's component.
  HostId hostOf(std::size_t app_index, ComponentId component) const;

  /// Components of one application hosted on `host` (for per-host slaves).
  std::vector<ComponentId> componentsOn(std::size_t app_index,
                                        HostId host) const;

  /// Residual clock skew of a host in milliseconds (fixed per run).
  double clockSkewMs(HostId host) const { return skew_ms_[host]; }

  /// Advances every tenant by one second, refreshing per-host interference
  /// first so co-located VMs see correlated contention.
  void step();

  TimeSec now() const { return apps_.empty() ? 0 : apps_.front().now(); }

 private:
  CloudConfig config_;
  Rng rng_;
  std::vector<Application> apps_;
  std::vector<std::vector<HostId>> placement_;  // [app][component] -> host
  std::vector<double> interference_ar_;         // per-host AR(1) state
  std::vector<double> skew_ms_;
  std::size_t next_host_ = 0;
};

}  // namespace fchain::sim
