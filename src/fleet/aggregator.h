// Cross-shard merge of per-shard PinpointResults (fleet tier).
//
// Each master shard localizes only its owned slice of an application, so a
// shard-local verdict is computed on partial evidence: the shard's chain
// head may not be the application's chain head, its external-factor check
// sees only a fraction of the components, and its dependency refinement
// cannot reach components owned elsewhere. The aggregator therefore ignores
// every shard-local *decision* and re-derives the verdict from the shard
// results' *evidence*:
//
//   - `chain` carries every abnormal ComponentFinding of the slice, with
//     full metric detail — and component analysis is strictly
//     component-local (a slave analyzes one VM's look-back window without
//     reference to any other VM), so the union of the shard chains is
//     exactly the finding set a single master would have collected;
//   - analyzed/unanalyzed accounting is additive across disjoint slices.
//
// merge() feeds that union through the *same* IntegratedPinpointer a single
// master runs: findings re-sort by (onset, component) — a total order, since
// a component appears in exactly one slice — so the head onset, the
// concurrency-threshold window around it, the external-factor uniformity
// check (which sees sum-of-slice-sizes == total on full coverage), and the
// dependency refinement against the full graph all compose exactly. The
// result is byte-identical to the single-master PinpointResult; the
// partitioned-replay golden suite (tests/fleet_identity_test.cpp) and the
// seeded split fuzzer (tests/fleet_aggregator_fuzz_test.cpp) pin this.
#pragma once

#include <cstdint>
#include <vector>

#include "fchain/pinpoint.h"
#include "netdep/dependency.h"

namespace fchain::fleet {

/// Identifier of one master shard in the fleet tier.
using ShardId = std::uint32_t;

/// One shard's contribution to a fleet localization: the slice it owns (in
/// fleet-caller order) and its master's PinpointResult over that slice.
/// Slice components whose slave did not answer are in `result.unanalyzed`,
/// as the shard master reports them.
struct ShardPartial {
  ShardId shard = 0;
  std::vector<ComponentId> components;
  core::PinpointResult result;
};

class FleetAggregator {
 public:
  explicit FleetAggregator(core::FChainConfig config = {})
      : pinpointer_(config) {}

  /// Merges per-shard partials into the application-level PinpointResult.
  /// `total_components` is the full application size (the partials may
  /// cover less when components were unrouted); `dependencies` is the
  /// application's graph — the same one a single master would hold (pass
  /// nullptr or an empty graph for the chronology-only fallback).
  core::PinpointResult merge(const std::vector<ShardPartial>& partials,
                             std::size_t total_components,
                             const netdep::DependencyGraph* dependencies) const;

 private:
  core::IntegratedPinpointer pinpointer_;
};

}  // namespace fchain::fleet
