#include "fleet/aggregator.h"

#include <algorithm>

namespace fchain::fleet {

core::PinpointResult FleetAggregator::merge(
    const std::vector<ShardPartial>& partials, std::size_t total_components,
    const netdep::DependencyGraph* dependencies) const {
  // Union the evidence. Order does not matter — pinpoint() re-sorts by
  // (onset, component), a total order because slices are disjoint — but
  // walking partials in the given (ascending-shard) order keeps the
  // pre-sort layout deterministic too.
  std::vector<core::ComponentFinding> findings;
  std::vector<ComponentId> unanalyzed;
  std::size_t analyzed = 0;
  for (const ShardPartial& partial : partials) {
    findings.insert(findings.end(), partial.result.chain.begin(),
                    partial.result.chain.end());
    unanalyzed.insert(unanalyzed.end(), partial.result.unanalyzed.begin(),
                      partial.result.unanalyzed.end());
    // Every slice component was either analyzed or reported unanalyzed by
    // its shard master; the counts are additive across disjoint slices.
    analyzed += partial.components.size() - partial.result.unanalyzed.size();
  }

  core::PinpointResult result = pinpointer_.pinpoint(
      std::move(findings), total_components, dependencies, analyzed);
  std::sort(unanalyzed.begin(), unanalyzed.end());
  result.unanalyzed = std::move(unanalyzed);
  return result;
}

}  // namespace fchain::fleet
