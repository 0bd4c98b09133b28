// Retention: a slave keeps only the history analysis can read.
//
// FChainSlave trims each VM to the newest retentionSec(config) seconds once
// it is a quarter past them (slave.h). These tests pin what that trim may
// and may not change:
//   - the retention relation: an analysis at most 600 s behind the newest
//     sample returns, bit for bit, what the selector returns over the full
//     record with the model replayed over all of it — at the default config
//     and at the 500 s look-back;
//   - the stale-versus-duplicate rule at the retained start;
//   - flat state over a simulated day: retained samples stay in
//     [R, R + R/4], the encoded snapshot never outgrows the state the first
//     trim cut back, and recover() rebuilds the live slave's bytes from
//     journals that cross many trim boundaries.
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "persist/snapshot.h"
#include "pinpoint_equal.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

std::string tempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> stateBytes(const FChainSlave& slave) {
  return persist::encodeSlaveSnapshot(slave.snapshot());
}

std::array<double, kMetricCount> sampleAt(const MetricSeries& series,
                                          TimeSec t) {
  std::array<double, kMetricCount> sample{};
  for (MetricKind kind : kAllMetrics) {
    sample[metricIndex(kind)] = series.of(kind).at(t);
  }
  return sample;
}

faults::FaultSpec cpuHog(ComponentId target, TimeSec start) {
  faults::FaultSpec spec;
  spec.type = faults::FaultType::CpuHog;
  spec.targets = {target};
  spec.start_time = start;
  return spec;
}

// --- The retention relation -----------------------------------------------

/// A RUBiS run of `duration` seconds with CPU hogs starting 650, 350 and
/// 50 s before its end, so that each analysed window holds a fresh onset.
sim::RunRecord faultedRun(TimeSec duration) {
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = 31;
  config.duration_sec = static_cast<std::size_t>(duration);
  config.faults = {cpuHog(1, duration - 650), cpuHog(3, duration - 350),
                   cpuHog(2, duration - 50)};
  sim::Simulation sim(config);
  sim.runUntil(duration);
  return sim.record();
}

void expectRetentionRelation(const FChainConfig& config,
                             const sim::RunRecord& record) {
  const auto keep = static_cast<std::size_t>(retentionSec(config));
  const TimeSec end = record.metrics.front().endTime();
  ASSERT_GE(end, 3 * retentionSec(config)) << "run too short to trim twice";

  FChainSlave slave(0, config);
  std::vector<ComponentId> ids;
  for (ComponentId id = 0; id < record.metrics.size(); ++id) {
    ids.push_back(id);
    slave.addComponent(id, 0);
  }
  for (TimeSec t = 0; t < end; ++t) {
    for (ComponentId id : ids) {
      slave.ingestAt(id, t, sampleAt(record.metrics[id], t));
    }
  }
  for (ComponentId id : ids) {
    const MetricSeries& series = *slave.seriesOf(id);
    EXPECT_GT(series.of(MetricKind::CpuUsage).startTime(), 0);
    EXPECT_GE(series.size(), keep);
    EXPECT_LE(series.size(), keep + keep / 4);
  }

  // The reference is the unbounded slave: the selector over the full record,
  // with the model replayed from its first sample to the end.
  const AbnormalChangeSelector selector(config);
  std::vector<NormalFluctuationModel> models;
  for (ComponentId id : ids) {
    models.push_back(replayModel(record.metrics[id], end, config.predictor));
  }
  for (const TimeSec lag : {TimeSec{1}, TimeSec{300}, TimeSec{600}}) {
    const TimeSec tv = end - lag;
    const auto findings = slave.analyzeBatch(ids, tv);
    ASSERT_EQ(findings.size(), ids.size());
    std::size_t found = 0;
    for (ComponentId id : ids) {
      const std::optional<ComponentFinding> expected =
          selector.analyzeComponent(id, record.metrics[id], models[id], tv);
      ASSERT_EQ(findings[id].has_value(), expected.has_value())
          << "component " << id << " at tv = end - " << lag;
      if (!expected.has_value()) continue;
      ++found;
      EXPECT_TRUE(sameFinding(*findings[id], *expected))
          << "component " << id << " at tv = end - " << lag;
    }
    // Each window holds a fresh fault onset: the relation is not vacuous.
    EXPECT_GT(found, 0u) << "no finding at tv = end - " << lag;
  }
}

TEST(Retention, DerivedFromTheAnalysisReach) {
  EXPECT_EQ(retentionSec(FChainConfig{}), 1650);
  FChainConfig long_lookback;
  long_lookback.lookback_sec = 500;
  EXPECT_EQ(retentionSec(long_lookback), 2050);
}

TEST(Retention, LateAnalysisMatchesTheUnboundedSlave) {
  // 3 x R of the longer (500 s look-back) retention serves both configs.
  const sim::RunRecord record = faultedRun(6200);
  FChainConfig long_lookback;
  long_lookback.lookback_sec = 500;
  {
    SCOPED_TRACE("default config");
    expectRetentionRelation(FChainConfig{}, record);
  }
  {
    SCOPED_TRACE("500 s look-back");
    expectRetentionRelation(long_lookback, record);
  }
}

// --- Stale versus duplicate -----------------------------------------------

TEST(Retention, StaleBeforeTheRetainedStartDuplicateInside) {
  const FChainConfig config;
  const auto keep = static_cast<std::size_t>(retentionSec(config));
  FChainSlave slave(0, config);
  slave.addComponent(7, 0);
  Rng rng(5);
  const auto noisy = [&rng] {
    std::array<double, kMetricCount> sample{};
    for (double& value : sample) value = rng.gaussian(40.0, 3.0);
    return sample;
  };
  for (TimeSec t = 0; t < 2 * static_cast<TimeSec>(keep); ++t) {
    slave.ingestAt(7, t, noisy());
  }
  const TimeSec start =
      slave.seriesOf(7)->of(MetricKind::CpuUsage).startTime();
  ASSERT_GT(start, 0) << "the slave never trimmed";

  // A re-sent second inside the retention overwrites its value and leaves
  // the model alone.
  persist::SlaveSnapshot expected = slave.snapshot();
  const std::array<double, kMetricCount> resent = noisy();
  slave.ingestAt(7, start, resent);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    expected.vms[0].series[m].values[0] = resent[m];
  }
  expected.vms[0].duplicates += 1;
  EXPECT_EQ(slave.ingestStatsOf(7)->duplicates, 1u);
  EXPECT_EQ(persist::encodeSlaveSnapshot(expected), stateBytes(slave));

  // One second earlier is before the retained start: dropped and counted
  // as stale, every other state byte unchanged — as for t = 0, which the
  // slave once held.
  for (const TimeSec t : {start - 1, TimeSec{0}}) {
    slave.ingestAt(7, t, noisy());
    expected.vms[0].stale_dropped += 1;
    EXPECT_EQ(persist::encodeSlaveSnapshot(expected), stateBytes(slave))
        << "t = " << t;
  }
  EXPECT_EQ(slave.ingestStatsOf(7)->stale_dropped, 2u);
  EXPECT_EQ(slave.ingestStatsOf(7)->duplicates, 1u);
}

// --- A simulated day through a checkpointer --------------------------------

/// Noisy diurnal telemetry with a level shift every 5 000 s.
std::array<double, kMetricCount> dayTelemetry(Rng& rng, ComponentId id,
                                              TimeSec t) {
  constexpr double kTwoPi = 6.283185307179586;
  const double diurnal = std::sin(kTwoPi * static_cast<double>(t) / 86400.0);
  const double shift = (t / 5000) % 2 == 0 ? 0.0 : 8.0;
  std::array<double, kMetricCount> sample{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    sample[m] = 30.0 + 5.0 * static_cast<double>(m + id) + 15.0 * diurnal +
                shift + rng.gaussian(0.0, 2.0);
  }
  return sample;
}

TEST(Retention, StateStaysFlatOverTwentyFourSimulatedHours) {
  constexpr TimeSec kDay = 86400;
  constexpr ComponentId kVms = 4;
  const FChainConfig config;
  const auto keep = static_cast<std::size_t>(retentionSec(config));
  const std::size_t limit = keep + keep / 4;
  const std::string dir = tempDir("retention_day");

  FChainSlave slave(0, config);
  for (ComponentId id = 0; id < kVms; ++id) slave.addComponent(id, 0);
  CheckpointPolicy policy;
  // Four-hour epochs: each journal replay below crosses ~35 trims.
  policy.snapshot_interval_sec = 4 * 3600;
  SlaveCheckpointer checkpointer(slave, dir, policy);

  const auto expectRecoveryMatchesLive = [&] {
    const SlaveCheckpointer::Recovered recovered =
        SlaveCheckpointer::recover(dir, 0, config);
    EXPECT_TRUE(recovered.journal_clean);
    EXPECT_GE(recovered.replayed, kVms * 10 * (keep / 4))
        << "the journal replay crossed fewer than 10 trims";
    EXPECT_EQ(persist::encodeSlaveSnapshot(recovered.slave.snapshot(1)),
              persist::encodeSlaveSnapshot(slave.snapshot(1)));
  };

  Rng rng(2024);
  std::size_t first_trim_bytes = 0;
  std::vector<persist::SampleRecord> batch;
  for (TimeSec t = 0; t < kDay; ++t) {
    if (static_cast<std::size_t>(t) == limit) {
      // Every VM holds R + R/4 samples: the state this tick's trim cuts.
      first_trim_bytes = stateBytes(slave).size();
    }
    batch.clear();
    for (ComponentId id = 0; id < kVms; ++id) {
      batch.push_back({id, t, dayTelemetry(rng, id, t)});
    }
    // Now and then a re-sent second and a late one older than any retained
    // start ride along, so replay crosses the duplicate and stale paths too.
    if (t % 1009 == 0 && t > 0) {
      const auto id = static_cast<ComponentId>(t % kVms);
      batch.push_back({id, t - 1, dayTelemetry(rng, id, t - 1)});
    }
    if (t % 2003 == 0 && t > static_cast<TimeSec>(limit)) {
      batch.push_back({0, t - static_cast<TimeSec>(limit), {}});
    }
    checkpointer.ingestBatch(batch);

    if (static_cast<std::size_t>(t) < limit) continue;
    for (ComponentId id = 0; id < kVms; ++id) {
      const std::size_t retained = slave.seriesOf(id)->size();
      ASSERT_GE(retained, keep) << "VM " << id << " at t = " << t;
      ASSERT_LE(retained, limit) << "VM " << id << " at t = " << t;
    }
    if (t % 3600 == 0) {
      EXPECT_LE(stateBytes(slave).size(), first_trim_bytes) << "t = " << t;
    }
    if (t == kDay / 2) expectRecoveryMatchesLive();
  }
  EXPECT_GT(slave.ingestStatsOf(0)->stale_dropped, 0u);
  EXPECT_GT(slave.ingestStatsOf(0)->duplicates, 0u);
  expectRecoveryMatchesLive();
}

}  // namespace
}  // namespace fchain::core
