// Fleet-scale localization benchmark: components-per-second through the
// sharded master tier (fleet/fleet.h) as the shard count grows.
//
// A synthetic fleet — default 1200 components spread over 24 applications
// on 16 slave hosts — is ingested once: every component streams all six
// metrics (diurnal baseline + per-component noise), and one component per
// application takes a level-shift fault shortly before the violation
// instant. The same warmed slaves then back a FleetMaster at N in
// {1, 2, 4, 8} shards, and every application is localized at its violation
// time. Reported per shard count:
//
//   components_per_sec  — components routed through localize() per wall
//                         second across the whole app sweep (the ROADMAP's
//                         fleet scaling metric)
//   faulty_found        — apps whose injected component was pinpointed
//
// Every number lands in bench_fleet_scale.json so CI can archive the
// scaling curve and gate on the floor. With FCHAIN_TRACE=1 the run also
// writes bench_fleet_scale.trace.json: at shards > 1 the fleet fans out on a
// worker pool and every shard master records its master / slave / signal
// spans, which is the trace CI checks for the required span names.
//
// Exit status is a gate, not just a report: nonzero when any shard count's
// per-app results diverge from the single-shard reference (the identity
// contract the golden suite pins, re-checked here at fleet scale), when
// localization misses the injected fault in too many apps, or when the
// best components-per-second falls below `floor_cps`.
//
// Usage: bench_fleet_scale [components] [apps] [floor_cps] [seed]
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "fchain/slave.h"
#include "fleet/fleet.h"
#include "netdep/dependency.h"

namespace {

using namespace fchain;

constexpr std::size_t kHosts = 16;
constexpr TimeSec kTicks = 1500;
constexpr TimeSec kFaultStart = 1300;
constexpr TimeSec kViolation = 1330;

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct SyntheticFleet {
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  /// Component id ranges per application: [first, first + count).
  std::vector<std::pair<ComponentId, std::size_t>> apps;
  std::vector<ComponentId> faulty;  ///< one injected component per app
};

/// Streams kTicks seconds of telemetry for every component into its host
/// slave. Healthy components follow a diurnal baseline with per-component
/// phase and noise; each app's designated faulty component level-shifts its
/// cpu and memory metrics at kFaultStart — the canonical resource-fault
/// shape the change-point chain detects.
SyntheticFleet buildFleet(std::size_t components, std::size_t apps,
                          std::uint64_t seed) {
  SyntheticFleet fleet;
  for (std::size_t h = 0; h < kHosts; ++h) {
    fleet.slaves.push_back(
        std::make_unique<core::FChainSlave>(static_cast<HostId>(h)));
  }
  const std::size_t per_app = components / apps;
  for (std::size_t a = 0; a < apps; ++a) {
    const ComponentId first = static_cast<ComponentId>(a * per_app);
    const std::size_t count =
        (a + 1 == apps) ? components - first : per_app;
    fleet.apps.emplace_back(first, count);
    fleet.faulty.push_back(first +
                           static_cast<ComponentId>((a * 7) % count));
  }
  for (ComponentId id = 0; id < components; ++id) {
    fleet.slaves[id % kHosts]->addComponent(id, 0);
  }

  std::vector<bool> is_faulty(components, false);
  for (const ComponentId id : fleet.faulty) is_faulty[id] = true;

  for (ComponentId id = 0; id < components; ++id) {
    Rng rng(mixSeed(seed, 0xf1ee7, id));
    const double phase = rng.uniform(0.0, 6.28);
    std::array<double, kMetricCount> base{};
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      base[m] = rng.uniform(20.0, 45.0);
    }
    core::FChainSlave& slave = *fleet.slaves[id % kHosts];
    for (TimeSec t = 0; t < kTicks; ++t) {
      std::array<double, kMetricCount> sample{};
      const double diurnal =
          3.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(t) / 300.0 +
                         phase);
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        sample[m] = base[m] + diurnal + rng.uniform(-1.0, 1.0);
      }
      if (is_faulty[id] && t >= kFaultStart) {
        // Ramp to a sustained level shift over ~8 s, cpu + memory.
        const double ramp =
            std::min(1.0, static_cast<double>(t - kFaultStart) / 8.0);
        sample[metricIndex(MetricKind::CpuUsage)] += 30.0 * ramp;
        sample[metricIndex(MetricKind::MemoryUsage)] += 25.0 * ramp;
      }
      slave.ingest(id, sample);
    }
  }
  return fleet;
}

/// Stable one-line digest of a pinpoint result, for the cross-shard-count
/// identity gate (the full rendering lives in the test tier; the bench only
/// needs equality).
std::string digest(const core::PinpointResult& result) {
  std::ostringstream out;
  out << (result.external_factor ? "ext" : "int") << "|c="
      << result.coverage << "|p=";
  for (const ComponentId id : result.pinpointed) out << id << ',';
  out << "|chain=";
  for (const auto& finding : result.chain) {
    out << finding.component << '@' << finding.onset << '#'
        << finding.metrics.size() << ';';
  }
  return out.str();
}

struct CurvePoint {
  std::size_t shards = 0;
  double wall_ms = 0.0;
  double components_per_sec = 0.0;
  std::size_t faulty_found = 0;
  bool identical = true;
};

CurvePoint runShardCount(const SyntheticFleet& fleet, std::size_t components,
                         std::size_t shards,
                         const netdep::DependencyGraph& deps,
                         std::vector<std::string>* reference) {
  fleet::FleetConfig config;
  config.shards = shards;
  // Cross-shard fan-out on as many threads as there are shards — the
  // deployment shape the tier exists for (N independent masters).
  config.fleet_threads = shards > 1 ? static_cast<int>(shards) : 0;
  fleet::FleetMaster master(config);
  for (const auto& slave : fleet.slaves) master.addSlave(slave.get());
  master.setDependencies(deps);

  CurvePoint point;
  point.shards = shards;
  std::vector<core::PinpointResult> results;
  results.reserve(fleet.apps.size());

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [first, count] : fleet.apps) {
    std::vector<ComponentId> app_components(count);
    for (std::size_t i = 0; i < count; ++i) {
      app_components[i] = first + static_cast<ComponentId>(i);
    }
    results.push_back(master.localize(app_components, kViolation));
  }
  point.wall_ms = msSince(t0);
  point.components_per_sec =
      static_cast<double>(components) / (point.wall_ms / 1000.0);

  for (std::size_t a = 0; a < fleet.apps.size(); ++a) {
    const auto& pinpointed = results[a].pinpointed;
    if (std::find(pinpointed.begin(), pinpointed.end(), fleet.faulty[a]) !=
        pinpointed.end()) {
      ++point.faulty_found;
    }
    const std::string d = digest(results[a]);
    if (reference->size() <= a) {
      reference->push_back(d);
    } else if ((*reference)[a] != d) {
      point.identical = false;
      std::fprintf(stderr,
                   "identity violation: app %zu at %zu shards\n  ref: %s\n"
                   "  got: %s\n",
                   a, shards, (*reference)[a].c_str(), d.c_str());
    }
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t components = 1200;
  std::size_t apps = 24;
  double floor_cps = 0.0;
  std::uint64_t seed = 42;
  if (argc > 1) components = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) apps = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) floor_cps = std::strtod(argv[3], nullptr);
  if (argc > 4) seed = std::strtoull(argv[4], nullptr, 10);
  if (apps == 0 || components < apps) {
    std::fprintf(stderr, "need components >= apps >= 1\n");
    return 2;
  }

  std::printf("Fleet-scale sharded localization\n");
  std::printf("(%zu components, %zu apps, %zu hosts, %lld ingested ticks, "
              "seed %llu)\n\n",
              components, apps, kHosts, static_cast<long long>(kTicks),
              static_cast<unsigned long long>(seed));

  const auto t_ingest = std::chrono::steady_clock::now();
  const SyntheticFleet fleet = buildFleet(components, apps, seed);
  std::printf("ingest: %.0f ms (shared across shard counts)\n\n",
              msSince(t_ingest));

  const netdep::DependencyGraph deps{components};
  std::vector<std::string> reference;
  std::vector<CurvePoint> curve;
  std::printf("%8s %12s %18s %14s %10s\n", "shards", "wall ms",
              "components/s", "faulty found", "identical");
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    curve.push_back(
        runShardCount(fleet, components, shards, deps, &reference));
    const CurvePoint& p = curve.back();
    std::printf("%8zu %12.1f %18.0f %10zu/%zu %10s\n", p.shards, p.wall_ms,
                p.components_per_sec, p.faulty_found, apps,
                p.identical ? "yes" : "NO");
  }

  double best_cps = 0.0;
  bool all_identical = true;
  std::size_t min_found = apps;
  for (const CurvePoint& p : curve) {
    best_cps = std::max(best_cps, p.components_per_sec);
    all_identical = all_identical && p.identical;
    min_found = std::min(min_found, p.faulty_found);
  }

  std::ofstream out("bench_fleet_scale.json",
                    std::ios::binary | std::ios::trunc);
  out << "{\n  \"components\": " << components << ",\n  \"apps\": " << apps
      << ",\n  \"hosts\": " << kHosts << ",\n  \"ticks\": " << kTicks
      << ",\n  \"seed\": " << seed
      << ",\n  \"floor_components_per_sec\": " << floor_cps
      << ",\n  \"best_components_per_sec\": " << best_cps
      << ",\n  \"curve\": [\n";
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& p = curve[i];
    out << "    {\"shards\": " << p.shards << ", \"wall_ms\": " << p.wall_ms
        << ", \"components_per_sec\": " << p.components_per_sec
        << ", \"faulty_found\": " << p.faulty_found
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}"
        << (i + 1 < curve.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote bench_fleet_scale.json\n");
  benchutil::maybeDumpTrace("bench_fleet_scale");

  if (!all_identical) {
    std::printf("FAIL: shard counts disagree — the partitioned-replay "
                "identity contract is broken at fleet scale\n");
    return 1;
  }
  // The level shift is unambiguous; every shard layout must find nearly all
  // of them (leave slack for boundary effects of the synthetic stream).
  if (min_found * 10 < apps * 9) {
    std::printf("FAIL: only %zu/%zu injected faults pinpointed\n", min_found,
                apps);
    return 1;
  }
  if (floor_cps > 0.0 && best_cps < floor_cps) {
    std::printf("FAIL: best throughput %.0f components/s is below the floor "
                "%.0f\n",
                best_cps, floor_cps);
    return 1;
  }
  return 0;
}
