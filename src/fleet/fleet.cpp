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
    if (!config_.journal_dir.empty()) {
      shards_[s].journal =
          std::make_unique<persist::IncidentJournal>(shardJournalPath(s));
    }
    shards_[s].master = buildMaster(s);
  }
}

FleetMaster::~FleetMaster() = default;

FleetMaster::Shard& FleetMaster::checkedShard(ShardId shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetMaster: unknown shard");
  }
  return shards_[shard];
}

const FleetMaster::Shard& FleetMaster::checkedShard(ShardId shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("FleetMaster: unknown shard");
  }
  return shards_[shard];
}

std::unique_ptr<core::FChainMaster> FleetMaster::buildMaster(ShardId shard) {
  auto master =
      std::make_unique<core::FChainMaster>(config_.fchain, config_.retry);
  master->setWorkerThreads(config_.shard_worker_threads);
  master->setDependencies(dependencies_);
  if (shards_[shard].journal) {
    master->setIncidentJournal(shards_[shard].journal.get());
  }
  for (std::size_t k = shard; k < registrations_.size();
       k += shards_.size()) {
    master->registerEndpoint(registrations_[k].endpoint,
                             registrations_[k].components);
  }
  return master;
}

void FleetMaster::registerEndpoint(
    std::shared_ptr<runtime::SlaveEndpoint> endpoint,
    const std::vector<ComponentId>& components) {
  // Check everything before recording anything, so a refused registration
  // leaves no trace in the routing a recovered shard is rebuilt from.
  if (endpoint == nullptr) {
    throw std::invalid_argument("cannot register a null endpoint");
  }
  for (const Registration& reg : registrations_) {
    if (reg.endpoint == endpoint) {
      throw std::invalid_argument("endpoint registered twice");
    }
  }
  std::unordered_set<ComponentId> claimed;
  for (const ComponentId id : components) {
    if (owner_.contains(id) || !claimed.insert(id).second) {
      throw std::invalid_argument(
          "component " + std::to_string(id) +
          " is already monitored by another registered slave");
    }
  }

  const auto shard = static_cast<ShardId>(registrations_.size() %
                                          shards_.size());
  for (const ComponentId id : components) owner_.emplace(id, shard);
  registrations_.push_back(Registration{std::move(endpoint), components});
  if (shards_[shard].master) {
    shards_[shard].master->registerEndpoint(registrations_.back().endpoint,
                                            components);
  }
}

void FleetMaster::addSlave(core::FChainSlave* slave) {
  registerEndpoint(std::make_shared<runtime::LocalEndpoint>(slave),
                   slave->components());
}

void FleetMaster::setDependencies(netdep::DependencyGraph graph) {
  dependencies_ = std::move(graph);
  for (Shard& shard : shards_) {
    if (shard.master) shard.master->setDependencies(dependencies_);
  }
}

core::PinpointResult FleetMaster::localize(
    const std::vector<ComponentId>& components, TimeSec violation_time) {
  metric_localizations_.add();
  metric_components_.add(components.size());

  std::vector<ShardPartial> partials = partition(components);
  const auto runSlice = [&](ShardPartial& partial) {
    Shard& shard = shards_[partial.shard];
    if (!shard.master) {
      metric_dark_slices_.add();
      partial = FleetAggregator::darkShard(partial.shard,
                                           std::move(partial.components));
      return;
    }
    metric_shard_fanouts_.add();
    partial.result = shard.master->localize(partial.components,
                                            violation_time);
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

void FleetMaster::crashShard(ShardId shard) {
  Shard& s = checkedShard(shard);
  // Order matters: the master holds a raw journal pointer, so it must die
  // first. The journal object closes its stream; the file stays — that IS
  // the crash state recoverShard() reads back.
  s.master.reset();
  s.journal.reset();
}

std::vector<core::RerunIncident> FleetMaster::recoverShard(ShardId shard) {
  Shard& s = checkedShard(shard);
  if (s.master) return {};
  if (!config_.journal_dir.empty()) {
    s.journal = std::make_unique<persist::IncidentJournal>(
        shardJournalPath(shard));
  }
  s.master = buildMaster(shard);
  if (!s.journal) return {};
  return core::rerunPendingIncidents(*s.master, *s.journal);
}

bool FleetMaster::shardAlive(ShardId shard) const {
  return checkedShard(shard).master != nullptr;
}

core::FChainMaster& FleetMaster::shardMaster(ShardId shard) {
  Shard& s = checkedShard(shard);
  if (!s.master) throw std::logic_error("FleetMaster: shard is crashed");
  return *s.master;
}

persist::IncidentJournal* FleetMaster::shardJournal(ShardId shard) {
  return checkedShard(shard).journal.get();
}

std::string FleetMaster::shardJournalPath(ShardId shard) const {
  return config_.journal_dir + "/shard-" + std::to_string(shard) +
         ".incidents";
}

}  // namespace fchain::fleet
