// FChainSlave::snapshot() / fromSnapshot(): the capture/restore half of the
// crash-tolerance story. The byte layout lives in persist/snapshot.h; this
// file owns the mapping between a live slave's private state and that value
// type, via the persist::StateAccess friend bridge.
#include "fchain/slave.h"
#include "persist/state_access.h"

namespace fchain::core {

persist::SlaveSnapshot FChainSlave::snapshot(std::uint64_t epoch) const {
  persist::SlaveSnapshot snap;
  snap.host = host_;
  snap.epoch = epoch;
  snap.vms.reserve(vms_.size());
  // vms_ is id-sorted, so snapshot order matches the old map layout exactly.
  for (const VmEntry& entry : vms_) {
    const VmState& vm = entry.state;
    persist::VmSnapshotState out;
    out.component = entry.id;
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const TimeSeries& series = vm.series.of(kAllMetrics[m]);
      out.series[m].start = series.startTime();
      out.series[m].values.assign(series.values().begin(),
                                  series.values().end());
      out.predictors[m] =
          persist::StateAccess::capture(vm.model.predictorOf(kAllMetrics[m]));
    }
    out.gaps_filled = vm.stats.gaps_filled;
    out.quarantined = vm.stats.quarantined;
    out.duplicates = vm.stats.duplicates;
    out.stale_dropped = vm.stats.stale_dropped;
    out.future_dropped = vm.stats.future_dropped;
    snap.vms.push_back(std::move(out));
  }
  return snap;
}

FChainSlave FChainSlave::fromSnapshot(persist::SlaveSnapshot snapshot,
                                      FChainConfig config) {
  FChainSlave slave(snapshot.host, std::move(config));
  for (persist::VmSnapshotState& vm : snapshot.vms) {
    // Register through the normal path first, then overwrite the learned
    // state field by field with the persisted bits.
    slave.addComponent(vm.component, vm.series[0].start);
    VmState& state = *slave.findVm(vm.component);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      state.series.of(kAllMetrics[m]) =
          TimeSeries(vm.series[m].start, std::move(vm.series[m].values));
      persist::StateAccess::predictors(state.model)[m] =
          persist::StateAccess::restore(std::move(vm.predictors[m]));
    }
    state.stats.gaps_filled = static_cast<std::size_t>(vm.gaps_filled);
    state.stats.quarantined = static_cast<std::size_t>(vm.quarantined);
    state.stats.duplicates = static_cast<std::size_t>(vm.duplicates);
    state.stats.stale_dropped = static_cast<std::size_t>(vm.stale_dropped);
    state.stats.future_dropped = static_cast<std::size_t>(vm.future_dropped);
  }
  return slave;
}

}  // namespace fchain::core
