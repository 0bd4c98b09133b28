#include "persist/snapshot.h"

namespace fchain::persist {

namespace {

void encodeSeries(Encoder& out, const SeriesState& series) {
  out.i64(series.start);
  out.doubles(series.values);
}

SeriesState decodeSeries(Decoder& in) {
  SeriesState series;
  series.start = in.i64();
  series.values = in.doubles();
  return series;
}

void encodePredictor(Encoder& out, const PredictorState& p) {
  out.u64(p.bins);
  out.u64(p.calibration_samples);
  out.f64(p.padding);
  out.doubles(p.calibration_buffer);
  out.u8(p.calibrated ? 1 : 0);
  out.f64(p.lo);
  out.f64(p.hi);
  out.f64(p.width);
  out.f64(p.decay);
  out.f64(p.laplace);
  out.doubles(p.counts);
  out.doubles(p.row_mass);
  encodeSeries(out, p.errors);
  out.u8(p.has_last_state ? 1 : 0);
  out.u64(p.last_state);
  out.u8(p.has_predicted_next ? 1 : 0);
  out.f64(p.predicted_next);
}

PredictorState decodePredictor(Decoder& in) {
  PredictorState p;
  p.bins = in.u64();
  p.calibration_samples = in.u64();
  p.padding = in.f64();
  p.calibration_buffer = in.doubles();
  p.calibrated = in.u8() != 0;
  p.lo = in.f64();
  p.hi = in.f64();
  p.width = in.f64();
  p.decay = in.f64();
  p.laplace = in.f64();
  p.counts = in.doubles();
  p.row_mass = in.doubles();
  p.errors = decodeSeries(in);
  p.has_last_state = in.u8() != 0;
  p.last_state = in.u64();
  p.has_predicted_next = in.u8() != 0;
  p.predicted_next = in.f64();

  // Structural validation: reject inconsistent state before it can reach a
  // MarkovModel (whose indexing trusts counts.size() == bins^2).
  if (p.bins == 0) in.fail("predictor state: zero bins");
  if (p.counts.size() != static_cast<std::size_t>(p.bins) * p.bins) {
    in.fail("predictor state: transition matrix size " +
            std::to_string(p.counts.size()) + " != bins^2");
  }
  if (p.row_mass.size() != p.bins) {
    in.fail("predictor state: row-mass size " +
            std::to_string(p.row_mass.size()) + " != bins");
  }
  if (p.calibrated && p.has_last_state && p.last_state >= p.bins) {
    in.fail("predictor state: last state out of range");
  }
  return p;
}

/// An upper bound on the payload encodeSlaveSnapshot writes, so it
/// allocates its buffer once. Every field but a double array takes at most
/// 8 bytes; the double arrays are nearly all of a snapshot's bytes.
std::size_t payloadSizeBound(const SlaveSnapshot& snapshot) {
  std::size_t fields = 3;  // host, epoch, VM count
  std::size_t doubles = 0;
  for (const VmSnapshotState& vm : snapshot.vms) {
    fields += 6;  // component and the five ingest counters
    for (const SeriesState& series : vm.series) {
      fields += 2;  // start, count
      doubles += series.values.size();
    }
    for (const PredictorState& p : vm.predictors) {
      fields += 18;  // encodePredictor's scalars and array counts
      doubles += p.calibration_buffer.size() + p.counts.size() +
                 p.row_mass.size() + p.errors.values.size();
    }
  }
  return 8 * (fields + doubles);
}

}  // namespace

std::vector<std::uint8_t> encodeSlaveSnapshot(const SlaveSnapshot& snapshot) {
  Encoder payload = beginFrame(payloadSizeBound(snapshot));
  payload.u32(snapshot.host);
  payload.u64(snapshot.epoch);
  payload.u64(snapshot.vms.size());
  for (const VmSnapshotState& vm : snapshot.vms) {
    payload.u32(vm.component);
    for (const SeriesState& series : vm.series) encodeSeries(payload, series);
    for (const PredictorState& p : vm.predictors) encodePredictor(payload, p);
    payload.u64(vm.gaps_filled);
    payload.u64(vm.quarantined);
    payload.u64(vm.duplicates);
    payload.u64(vm.stale_dropped);
    payload.u64(vm.future_dropped);
  }
  return sealFrame(std::move(payload), kSnapshotMagic, kSnapshotVersion);
}

SlaveSnapshot decodeSlaveSnapshot(std::span<const std::uint8_t> bytes) {
  const FrameView view = unframe(bytes, kSnapshotMagic, kSnapshotVersion);
  Decoder in(view.payload);
  SlaveSnapshot snapshot;
  snapshot.host = in.u32();
  snapshot.epoch = in.u64();
  const std::uint64_t vm_count = in.u64();
  // A VM entry costs well over 100 bytes; a count past remaining/8 is a
  // corrupt field, not a big cluster.
  if (vm_count > in.remaining() / 8) {
    in.fail("vm count " + std::to_string(vm_count) +
            " exceeds remaining bytes");
  }
  snapshot.vms.reserve(static_cast<std::size_t>(vm_count));
  for (std::uint64_t v = 0; v < vm_count; ++v) {
    VmSnapshotState vm;
    vm.component = in.u32();
    for (SeriesState& series : vm.series) series = decodeSeries(in);
    for (PredictorState& p : vm.predictors) p = decodePredictor(in);
    vm.gaps_filled = in.u64();
    vm.quarantined = in.u64();
    vm.duplicates = in.u64();
    vm.stale_dropped = in.u64();
    vm.future_dropped = in.u64();

    // All six metric series of one VM advance in lockstep, and the error
    // series stays time-aligned with the metric series.
    for (std::size_t m = 1; m < kMetricCount; ++m) {
      if (vm.series[m].start != vm.series[0].start ||
          vm.series[m].values.size() != vm.series[0].values.size()) {
        in.fail("vm state: metric series misaligned");
      }
    }
    for (const PredictorState& p : vm.predictors) {
      if (p.errors.start != vm.series[0].start ||
          p.errors.values.size() != vm.series[0].values.size()) {
        in.fail("vm state: error series misaligned with metrics");
      }
    }
    snapshot.vms.push_back(std::move(vm));
  }
  if (!in.done()) in.fail("trailing bytes after snapshot payload");
  return snapshot;
}

void saveSlaveSnapshot(const std::string& path,
                       const SlaveSnapshot& snapshot) {
  writeFileAtomic(path, encodeSlaveSnapshot(snapshot));
}

SlaveSnapshot loadSlaveSnapshot(const std::string& path) {
  return decodeSlaveSnapshot(readFileBytes(path));
}

}  // namespace fchain::persist
