#include "fleet/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "runtime/worker_pool.h"

namespace fchain::fleet {

FleetMaster::FleetMaster(FleetConfig config)
    : config_(config), aggregator_(config.fchain) {
  shards_.resize(std::max<std::size_t>(1, config.shards));
  for (ShardId s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.master =
        std::make_unique<core::FChainMaster>(config_.fchain, config_.retry);
    shard.master->setWorkerThreads(config_.shard_worker_threads);
    if (!config_.journal_dir.empty()) {
      shard.journal =
          std::make_unique<persist::IncidentJournal>(shardJournalPath(s));
      shard.master->setIncidentJournal(shard.journal.get());
    }
  }
}

FleetMaster::~FleetMaster() = default;

FleetMaster::Shard& FleetMaster::checkedShard(ShardId shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetMaster: unknown shard");
  }
  return shards_[shard];
}

void FleetMaster::registerEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  // Check everything before recording anything, so a refused registration
  // leaves no trace in the routing and takes no shard slot.
  if (endpoint == nullptr) {
    throw std::invalid_argument("cannot register a null endpoint");
  }
  if (endpoints_.contains(endpoint.get())) {
    throw std::invalid_argument("endpoint registered twice");
  }
  std::unordered_set<ComponentId> claimed;
  for (const ComponentId id : components) {
    if (owner_.contains(id) || !claimed.insert(id).second) {
      throw std::invalid_argument(
          "component " + std::to_string(id) +
          " is already monitored by another registered slave");
    }
  }

  const auto shard = static_cast<ShardId>(endpoints_.size() %
                                          shards_.size());
  for (const ComponentId id : components) owner_.emplace(id, shard);
  endpoints_.insert(endpoint.get());
  shards_[shard].master->registerEndpoint(std::move(endpoint), components);
}

void FleetMaster::addSlave(core::FChainSlave* slave) {
  registerEndpoint(std::make_shared<runtime::LocalEndpoint>(slave),
                   slave->components());
}

void FleetMaster::setDependencies(netdep::DependencyGraph graph) {
  dependencies_ = std::move(graph);
  for (Shard& shard : shards_) shard.master->setDependencies(dependencies_);
}

core::PinpointResult FleetMaster::localize(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  metric_localizations_.add();
  metric_components_.add(components.size());

  std::vector<ShardPartial> partials = partition(components);
  const auto runSlice = [&](ShardPartial& partial) {
    metric_shard_fanouts_.add();
    partial.result = shards_[partial.shard].master->localize(
        partial.components, violation_time);
  };

  if (config_.fleet_threads >= 1 && partials.size() > 1) {
    if (!pool_) {
      pool_ = std::make_unique<runtime::WorkerPool>(config_.fleet_threads);
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(partials.size());
    for (ShardPartial& partial : partials) {
      tasks.push_back([&runSlice, &partial] { runSlice(partial); });
    }
    pool_->run(std::move(tasks));
  } else {
    for (ShardPartial& partial : partials) runSlice(partial);
  }

  return aggregator_.merge(partials, components.size(), &dependencies_);
}

std::vector<ShardPartial> FleetMaster::partition(
    const std::vector<ComponentId>& components) const {
  std::vector<ShardPartial> slices(shards_.size());
  for (ShardId s = 0; s < slices.size(); ++s) slices[s].shard = s;
  for (const ComponentId id : components) {
    const auto owner = owner_.find(id);
    slices[owner == owner_.end() ? 0 : owner->second].components.push_back(
        id);
  }
  std::erase_if(slices, [](const ShardPartial& slice) {
    return slice.components.empty();
  });
  return slices;
}

core::FChainMaster& FleetMaster::shardMaster(ShardId shard) {
  return *checkedShard(shard).master;
}

persist::IncidentJournal* FleetMaster::shardJournal(ShardId shard) {
  return checkedShard(shard).journal.get();
}

std::string FleetMaster::shardJournalPath(ShardId shard) const {
  return config_.journal_dir + "/shard-" + std::to_string(shard) +
         ".incidents";
}

}  // namespace fchain::fleet
