// Fleet-scale sharded localization tier (ROADMAP "fleet-scale master
// tier"; see docs/ARCHITECTURE.md "Fleet-scale sharding").
//
// One FChainMaster owns every component of every application it serves, so
// a single process bounds the fleet's components-per-second. FleetMaster
// splits that ownership across N independent master shards. The unit of
// ownership is the slave, as in the paper's master/slave split: each
// registered endpoint goes whole to one shard, the k-th registration to
// shard k mod N.
//
//               ┌── shard 0: FChainMaster ── slaves 0, N, 2N, ...
//   FleetMaster ┼── shard 1: FChainMaster ── slaves 1, N+1, ...
//               └── shard N-1 ...
//        │
//        └─ localize(app, tv): partition → per-shard localize →
//           FleetAggregator::merge  (byte-identical to one master for any
//           disjoint partition; see fleet/aggregator.h)
//
// Registration records each slave's components in a component → shard
// table, and partition() slices an application's component list by it.
// Every slave therefore gets exactly one analyze batch per localization,
// whatever the shard count, and no endpoint is shared between shard
// masters. A component no registered slave monitors goes to shard 0, whose
// master reports it unanalyzed exactly as a single master does.
// Applications span shards transparently: localize() fans out to every
// shard owning a piece of the app and re-derives the application verdict
// from the union of shard evidence.
//
// Recovery reuses the single-master crash story unchanged. The shards are
// objects in one process, so they fail only when that process does. Each
// shard has its own persist::IncidentJournal under FleetConfig::journal_dir,
// so a process that dies mid-localization leaves a pending entry in the
// journal of every shard whose slice was in flight. To recover, rebuild the
// fleet over the same journal_dir with the same registrations in the same
// order (registration k lands on shard k mod N again), then re-run each
// shard's pending slices with
// core::rerunPendingIncidents(fleet.shardMaster(k), *fleet.shardJournal(k)),
// as for a single master.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fchain/master.h"
#include "fleet/aggregator.h"
#include "obs/metrics.h"
#include "persist/journal.h"

namespace fchain::runtime {
class WorkerPool;
}  // namespace fchain::runtime

namespace fchain::fleet {

struct FleetConfig {
  /// Number of master shards (ids 0..shards-1). 1 collapses the tier to a
  /// single master behind the fleet interface.
  std::size_t shards = 2;

  /// Per-shard master configuration — identical across shards, and it must
  /// equal the single-master config the goldens were produced with for the
  /// byte-identity contract to hold.
  core::FChainConfig fchain;
  runtime::RetryPolicy retry;

  /// Worker threads inside each shard master's own fan-out (0 = run the
  /// per-slave batches inline on the calling thread).
  int shard_worker_threads = 0;

  /// Threads for the cross-shard fan-out of one fleet localize() (0 =
  /// serial, shards walked in ascending id order). Each endpoint belongs to
  /// exactly one shard master, so no transport sees requests from two
  /// shards.
  int fleet_threads = 0;

  /// Directory for per-shard incident journals ("" disables journaling).
  /// Shard k journals to <journal_dir>/shard-<k>.incidents.
  std::string journal_dir;
};

class FleetMaster final : public core::LocalizationTier {
 public:
  explicit FleetMaster(FleetConfig config = {});
  ~FleetMaster();

  // --- Registration (before localizations start) -------------------------

  /// Registers an in-process slave through registerEndpoint() behind one
  /// LocalEndpoint. The slave must outlive the fleet; components must be
  /// registered first.
  void addSlave(core::FChainSlave* slave);

  /// Registers a transport endpoint under a manifest component list with
  /// one shard: the k-th registration goes to shard k mod N. The whole
  /// registration is checked before anything is recorded: a null or
  /// repeated endpoint, or a component already claimed (here or earlier),
  /// throws std::invalid_argument, as FChainMaster does.
  void registerEndpoint(std::shared_ptr<runtime::SlaveEndpoint> endpoint,
                        const std::vector<ComponentId>& components) override;

  /// Cluster dependency graph (global id space), installed on every shard
  /// and used by the cross-shard merge.
  void setDependencies(netdep::DependencyGraph graph) override;

  // --- Localization ------------------------------------------------------

  /// Localizes the fault for the application made of `components`,
  /// whichever shards own them. A slave that does not answer leaves its
  /// components unanalyzed (degraded coverage), as under one master.
  core::PinpointResult localize(const std::vector<ComponentId>& components,
                                TimeSec violation_time) override;

  // --- Introspection -----------------------------------------------------

  std::size_t shardCount() const { return shards_.size(); }

  /// Splits `components` into the per-shard slices localize() runs: each
  /// component goes to the shard of the slave that monitors it (shard 0
  /// when none does), in the caller's order inside each slice. Slices come
  /// in ascending ShardId order and only shards that own something appear.
  /// The `result` fields are default-constructed.
  std::vector<ShardPartial> partition(
      const std::vector<ComponentId>& components) const;

  /// The shard's master.
  core::FChainMaster& shardMaster(ShardId shard);

  /// The shard's journal (nullptr when journaling is disabled); the on-disk
  /// path is valid either way.
  persist::IncidentJournal* shardJournal(ShardId shard);
  std::string shardJournalPath(ShardId shard) const;

  /// Fleet-tier instruments:
  ///   fleet.localizations   (counter: fleet-level localize() calls)
  ///   fleet.shard_fanouts   (counter: per-shard localizations issued)
  ///   fleet.components      (counter: components routed through localize)
  obs::MetricRegistry& metrics() override { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }

 private:
  struct Shard {
    /// Declared first so it outlives the master, which holds a raw pointer.
    std::unique_ptr<persist::IncidentJournal> journal;
    std::unique_ptr<core::FChainMaster> master;
  };

  Shard& checkedShard(ShardId shard);

  FleetConfig config_;
  FleetAggregator aggregator_;
  netdep::DependencyGraph dependencies_;
  std::vector<Shard> shards_;  ///< index == ShardId
  /// Every registered endpoint; registration k went to shard k mod N.
  std::unordered_set<const runtime::SlaveEndpoint*> endpoints_;
  std::unordered_map<ComponentId, ShardId> owner_;
  std::unique_ptr<runtime::WorkerPool> pool_;

  obs::MetricRegistry registry_;
  obs::Counter& metric_localizations_ =
      registry_.counter("fleet.localizations");
  obs::Counter& metric_shard_fanouts_ =
      registry_.counter("fleet.shard_fanouts");
  obs::Counter& metric_components_ = registry_.counter("fleet.components");
};

}  // namespace fchain::fleet
