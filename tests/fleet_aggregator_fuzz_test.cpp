// Seeded fuzz for FleetAggregator::merge: for random incidents and random
// shard partitions, per-shard pinpointing (exactly what a shard master
// computes over its slice) re-merged through the aggregator must reproduce
// the unpartitioned IntegratedPinpointer result byte-for-byte — onset
// ordering, concurrency-window pinning, external-factor classification,
// dependency refinement, and coverage/unanalyzed accounting all compose.
#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fleet/aggregator.h"
#include "netdep/dependency.h"
#include "pinpoint_render.h"

namespace fchain::fleet {
namespace {

constexpr TimeSec kTv = 1000;

struct FuzzIncident {
  core::FChainConfig config;
  std::size_t total = 0;
  /// Aligned with component id: nullopt = analyzed + normal.
  std::vector<std::optional<core::ComponentFinding>> findings;
  std::vector<bool> unanalyzed;
  netdep::DependencyGraph deps{0};
  bool use_deps = false;
};

core::ComponentFinding makeFinding(ComponentId id, TimeSec onset, Trend trend,
                                   Rng& rng) {
  core::ComponentFinding finding;
  finding.component = id;
  finding.onset = onset;
  finding.trend = trend;
  const std::size_t metric_count = 1 + rng.below(3);
  for (std::size_t m = 0; m < metric_count; ++m) {
    core::MetricFinding metric;
    metric.metric = kAllMetrics[rng.below(kMetricCount)];
    metric.onset = onset + static_cast<TimeSec>(rng.below(3));
    metric.change_point = metric.onset - static_cast<TimeSec>(rng.below(5));
    metric.trend = trend;
    metric.prediction_error = rng.uniform(1.0, 9.0);
    metric.expected_error = rng.uniform(0.1, 1.0);
    finding.metrics.push_back(metric);
  }
  return finding;
}

FuzzIncident makeIncident(std::uint64_t seed) {
  Rng rng(mixSeed(0xF1EE7A66, seed));
  FuzzIncident incident;
  incident.total = 1 + rng.below(12);
  incident.config.concurrency_threshold_sec =
      static_cast<TimeSec>(rng.below(3) * 2);  // 0, 2, 4

  // Occasionally shape an external-factor incident (every component
  // abnormal, uniform trend, tight onsets) so that branch composes too.
  const bool external_shape = rng.chance(0.2);
  const Trend uniform_trend = rng.chance(0.5) ? Trend::Up : Trend::Down;

  incident.findings.resize(incident.total);
  incident.unanalyzed.assign(incident.total, false);
  for (ComponentId id = 0; id < incident.total; ++id) {
    if (external_shape) {
      incident.findings[id] = makeFinding(
          id, kTv - 5 - static_cast<TimeSec>(rng.below(10)), uniform_trend,
          rng);
      continue;
    }
    if (rng.chance(0.2)) {
      incident.unanalyzed[id] = true;  // this component's slave was dark
      continue;
    }
    if (rng.chance(0.6)) {
      const Trend trend =
          rng.chance(0.7) ? Trend::Up
                          : (rng.chance(0.5) ? Trend::Down : Trend::Flat);
      incident.findings[id] = makeFinding(
          id, kTv - 1 - static_cast<TimeSec>(rng.below(40)), trend, rng);
    }
  }

  incident.use_deps = rng.chance(0.7);
  incident.deps = netdep::DependencyGraph(incident.total);
  if (incident.use_deps) {
    for (ComponentId a = 0; a < incident.total; ++a) {
      for (ComponentId b = a + 1; b < incident.total; ++b) {
        if (rng.chance(0.3)) incident.deps.addEdge(a, b);
      }
    }
  }
  return incident;
}

/// What a shard master reports for its slice: pinpoint over the slice's
/// findings with slice-local totals, unanalyzed = the slice's dark
/// components (sorted), exactly as FChainMaster::localize builds it.
ShardPartial shardLocalize(const FuzzIncident& incident, ShardId shard,
                           std::vector<ComponentId> slice) {
  const core::IntegratedPinpointer pinpointer(incident.config);
  std::vector<core::ComponentFinding> findings;
  std::vector<ComponentId> unanalyzed;
  for (const ComponentId id : slice) {
    if (incident.unanalyzed[id]) {
      unanalyzed.push_back(id);
    } else if (incident.findings[id].has_value()) {
      findings.push_back(*incident.findings[id]);
    }
  }
  ShardPartial partial;
  partial.shard = shard;
  partial.result = pinpointer.pinpoint(
      std::move(findings), slice.size(),
      incident.use_deps ? &incident.deps : nullptr,
      slice.size() - unanalyzed.size());
  std::sort(unanalyzed.begin(), unanalyzed.end());
  partial.result.unanalyzed = std::move(unanalyzed);
  partial.components = std::move(slice);
  return partial;
}

core::PinpointResult directLocalize(const FuzzIncident& incident) {
  const core::IntegratedPinpointer pinpointer(incident.config);
  std::vector<core::ComponentFinding> findings;
  std::vector<ComponentId> unanalyzed;
  for (ComponentId id = 0; id < incident.total; ++id) {
    if (incident.unanalyzed[id]) {
      unanalyzed.push_back(id);
    } else if (incident.findings[id].has_value()) {
      findings.push_back(*incident.findings[id]);
    }
  }
  core::PinpointResult result = pinpointer.pinpoint(
      std::move(findings), incident.total,
      incident.use_deps ? &incident.deps : nullptr,
      incident.total - unanalyzed.size());
  result.unanalyzed = std::move(unanalyzed);
  return result;
}

TEST(FleetAggregatorFuzz, RandomSplitsRemergeToTheUnpartitionedResult) {
  std::size_t external_cases = 0;
  std::size_t multi_shard_cases = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const FuzzIncident incident = makeIncident(seed);
    const core::PinpointResult direct = directLocalize(incident);
    if (direct.external_factor) ++external_cases;

    Rng rng(mixSeed(0x5A117, seed));
    const std::size_t shard_count = 1 + rng.below(5);
    std::vector<std::vector<ComponentId>> slices(shard_count);
    for (ComponentId id = 0; id < incident.total; ++id) {
      slices[rng.below(shard_count)].push_back(id);
    }
    std::vector<ShardPartial> partials;
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (slices[s].empty()) continue;
      partials.push_back(shardLocalize(incident, static_cast<ShardId>(s),
                                       std::move(slices[s])));
    }
    if (partials.size() > 1) ++multi_shard_cases;

    const FleetAggregator aggregator(incident.config);
    const core::PinpointResult merged = aggregator.merge(
        partials, incident.total,
        incident.use_deps ? &incident.deps : nullptr);

    ASSERT_EQ(core::renderPinpoint(merged, kTv),
              core::renderPinpoint(direct, kTv))
        << "seed " << seed << " diverged across " << partials.size()
        << " shards";
    ASSERT_DOUBLE_EQ(merged.coverage, direct.coverage) << "seed " << seed;
    ASSERT_EQ(merged.pinpointed, direct.pinpointed) << "seed " << seed;
  }
  // The corpus must actually exercise the interesting branches.
  EXPECT_GT(external_cases, 20u);
  EXPECT_GT(multi_shard_cases, 600u);
}

}  // namespace
}  // namespace fchain::fleet
