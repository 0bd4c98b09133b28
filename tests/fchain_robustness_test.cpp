// Telemetry-fault tolerance tests: gap-filled/duplicate/NaN ingestion,
// flaky slave endpoints with retries and health tracking, degraded-mode
// pinpointing with partial coverage, and the monitoring-fault injector.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "fchain/fchain.h"
#include "pinpoint_equal.h"
#include "pinpoint_render.h"
#include "runtime/flaky_endpoint.h"
#include "sim/injector.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::array<double, kMetricCount> flatSample(double value) {
  std::array<double, kMetricCount> sample{};
  sample.fill(value);
  return sample;
}

// --- FChainSlave ingestion hardening --------------------------------------

TEST(SlaveIngest, GapsAreFilledAndCounted) {
  FChainSlave slave(0);
  slave.addComponent(1, 0);
  slave.ingestAt(1, 0, flatSample(3.0));
  slave.ingestAt(1, 5, flatSample(3.0));  // 4 missing seconds
  const IngestStats* stats = slave.ingestStatsOf(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->gaps_filled, 4u);
  EXPECT_EQ(stats->quarantined, 0u);
  // Series and model error series stay aligned.
  EXPECT_FALSE(slave.analyze(1, 6).has_value());  // too short, not UB
}

TEST(SlaveIngest, GapHoldsTheLastValue) {
  FChainSlave slave(0);
  slave.addComponent(1, 0);
  std::array<double, kMetricCount> before{};
  std::array<double, kMetricCount> after{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    before[m] = 1.0 + static_cast<double>(m);
    after[m] = 20.0 + static_cast<double>(m);
  }
  slave.ingestAt(1, 0, before);
  slave.ingestAt(1, 4, after);  // seconds 1-3 missing
  const MetricSeries* series = slave.seriesOf(1);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 5u);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const TimeSeries& metric = series->of(kAllMetrics[m]);
    for (TimeSec t = 1; t <= 3; ++t) {
      EXPECT_DOUBLE_EQ(metric.at(t), before[m]) << "metric " << m << " t=" << t;
    }
    EXPECT_DOUBLE_EQ(metric.at(4), after[m]);
  }
}

TEST(SlaveIngest, GapBeforeTheFirstSampleIsBackFilledWithIt) {
  FChainSlave slave(0);
  slave.addComponent(1, 10);
  std::array<double, kMetricCount> first{};
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    first[m] = 5.0 + static_cast<double>(m);
  }
  slave.ingestAt(1, 13, first);  // seconds 10-12 missing
  const IngestStats* stats = slave.ingestStatsOf(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->gaps_filled, 3u);
  const MetricSeries* series = slave.seriesOf(1);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 4u);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const TimeSeries& metric = series->of(kAllMetrics[m]);
    EXPECT_EQ(metric.startTime(), 10);
    for (TimeSec t = 10; t <= 13; ++t) {
      EXPECT_DOUBLE_EQ(metric.at(t), first[m]) << "metric " << m << " t=" << t;
    }
  }
}

TEST(SlaveIngest, NonFiniteValuesAreQuarantined) {
  FChainSlave slave(0);
  slave.addComponent(1, 0);
  slave.ingestAt(1, 0, flatSample(5.0));
  auto bad = flatSample(5.0);
  bad[0] = kNan;
  bad[3] = kInf;
  bad[5] = -kInf;
  slave.ingestAt(1, 1, bad);
  const IngestStats* stats = slave.ingestStatsOf(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->quarantined, 3u);
  // Analysis over the repaired stream is safe (no finding on 2 samples).
  EXPECT_FALSE(slave.analyze(1, 1).has_value());
}

TEST(SlaveIngest, QuarantinedDuplicateKeepsValueAlreadyStoredAtThatSecond) {
  // Regression: a non-finite metric arriving as a duplicate/out-of-order
  // delivery used to be substituted with the series *tail* value, silently
  // overwriting the correct history at time t with a stale newer value.
  FChainSlave slave(0);
  slave.addComponent(1, 0);
  slave.ingestAt(1, 0, flatSample(1.0));
  slave.ingestAt(1, 1, flatSample(2.0));
  slave.ingestAt(1, 2, flatSample(3.0));

  auto resend = flatSample(9.0);
  resend[0] = kNan;  // corrupt re-send of second 1
  slave.ingestAt(1, 1, resend);

  const IngestStats* stats = slave.ingestStatsOf(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->quarantined, 1u);
  EXPECT_EQ(stats->duplicates, 1u);
  const MetricSeries* series = slave.seriesOf(1);
  ASSERT_NE(series, nullptr);
  // The corrupted metric keeps the good value already stored at t=1 (2.0),
  // not the tail value (3.0); the finite metrics take the re-sent value.
  EXPECT_DOUBLE_EQ(series->of(kAllMetrics[0]).at(1), 2.0);
  EXPECT_DOUBLE_EQ(series->of(kAllMetrics[1]).at(1), 9.0);
  // History before and after the re-sent second is untouched.
  EXPECT_DOUBLE_EQ(series->of(kAllMetrics[0]).at(0), 1.0);
  EXPECT_DOUBLE_EQ(series->of(kAllMetrics[0]).at(2), 3.0);
}

TEST(SlaveIngest, QuarantineBeforeFirstSampleUsesZero) {
  FChainSlave slave(0);
  slave.addComponent(1, 0);
  slave.ingestAt(1, 0, flatSample(kNan));
  const IngestStats* stats = slave.ingestStatsOf(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->quarantined, kMetricCount);
}

TEST(SlaveIngest, DuplicatesStaleAndWildTimestampsCounted) {
  FChainSlave slave(10);
  slave.addComponent(2, 100);
  slave.ingestAt(2, 100, flatSample(1.0));
  slave.ingestAt(2, 101, flatSample(2.0));
  slave.ingestAt(2, 100, flatSample(9.0));        // duplicate
  slave.ingestAt(2, 50, flatSample(9.0));         // stale
  slave.ingestAt(2, 1'000'000, flatSample(9.0));  // clock corruption
  const IngestStats* stats = slave.ingestStatsOf(2);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->duplicates, 1u);
  EXPECT_EQ(stats->stale_dropped, 1u);
  EXPECT_EQ(stats->future_dropped, 1u);
}

TEST(SlaveIngest, LegacyIngestStillAppends) {
  FChainSlave slave(0);
  slave.addComponent(3, 0);
  for (int i = 0; i < 10; ++i) slave.ingest(3, flatSample(1.0));
  const IngestStats* stats = slave.ingestStatsOf(3);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->gaps_filled, 0u);
  EXPECT_EQ(stats->duplicates, 0u);
}

// --- FChainSlave::analyze edge cases --------------------------------------

TEST(SlaveAnalyze, EmptySeriesReturnsNullopt) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  EXPECT_FALSE(slave.analyze(0, 100).has_value());
}

TEST(SlaveAnalyze, TooShortSeriesReturnsNullopt) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  // Far fewer samples than the 100 s look-back window.
  for (int i = 0; i < 30; ++i) slave.ingest(0, flatSample(4.0));
  EXPECT_FALSE(slave.analyze(0, 30).has_value());
}

TEST(SlaveAnalyze, GappedConstantSeriesReturnsNullopt) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  for (TimeSec t = 0; t < 400; t += 3) {  // two of every three samples lost
    slave.ingestAt(0, t, flatSample(4.0));
  }
  EXPECT_FALSE(slave.analyze(0, 399).has_value());
  EXPECT_GT(slave.ingestStatsOf(0)->gaps_filled, 0u);
}

TEST(SlaveAnalyze, ViolationBeforeSeriesStartIsSafe) {
  FChainSlave slave(0);
  slave.addComponent(0, 1000);
  for (int i = 0; i < 200; ++i) slave.ingest(0, flatSample(4.0));
  EXPECT_FALSE(slave.analyze(0, 500).has_value());  // tv predates the data
}

// --- Master registration guards -------------------------------------------

TEST(MasterRegistration, RejectsSameSlaveTwice) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  FChainMaster master;
  master.registerSlave(&slave);
  EXPECT_THROW(master.registerSlave(&slave), std::invalid_argument);
}

TEST(MasterRegistration, RejectsDuplicateComponentClaims) {
  FChainSlave a(0), b(1);
  a.addComponent(5, 0);
  // The same ComponentId on another host, after two unclaimed ones.
  for (const ComponentId id : {2, 3, 5}) b.addComponent(id, 0);
  FChainMaster master;
  master.registerSlave(&a);
  EXPECT_THROW(master.registerSlave(&b), std::invalid_argument);
  // The refused registration leaves no route behind: 2 and 3 stay
  // unrouted, and another slave may claim them.
  EXPECT_EQ(master.localize({2, 3}, 100).unanalyzed,
            (std::vector<ComponentId>{2, 3}));
  FChainSlave c(2);
  for (const ComponentId id : {2, 3}) c.addComponent(id, 0);
  master.registerSlave(&c);
  EXPECT_TRUE(master.localize({2, 3}, 100).unanalyzed.empty());
}

TEST(MasterRegistration, RejectsNullSlave) {
  FChainMaster master;
  EXPECT_THROW(master.registerSlave(nullptr), std::invalid_argument);
}

// --- Endpoint health and retry behaviour ----------------------------------

TEST(EndpointHealth, TransitionsHealthyDegradedDownAndRecovers) {
  runtime::EndpointHealth health(1, 3);
  EXPECT_EQ(health.state(), runtime::HealthState::Healthy);
  health.recordFailure();
  EXPECT_EQ(health.state(), runtime::HealthState::Degraded);
  health.recordFailure();
  health.recordFailure();
  EXPECT_EQ(health.state(), runtime::HealthState::Down);
  health.recordSuccess();
  EXPECT_EQ(health.state(), runtime::HealthState::Healthy);
}

TEST(FlakyEndpoint, RetriesRecoverFromColdStart) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  auto local = std::make_shared<runtime::LocalEndpoint>(&slave);
  runtime::FlakyConfig flaky;
  flaky.fail_first = 2;  // first two analyze attempts fail, the third lands
  auto endpoint =
      std::make_shared<runtime::FlakyEndpoint>(std::move(local), flaky);

  FChainMaster master;
  master.registerEndpoint(endpoint, {0});
  const auto result = master.localize({0}, 100);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_TRUE(result.unanalyzed.empty());
  EXPECT_GT(master.metrics().snapshot().counters.at("master.retries"), 0u);
  EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Healthy);
}

TEST(FlakyEndpoint, DeadSlaveYieldsPartialCoverageNotFailure) {
  FChainSlave alive(0);
  alive.addComponent(0, 0);

  FChainMaster master;
  master.registerSlave(&alive);

  // An endpoint that registered but dies afterwards:
  runtime::FlakyConfig late_death;
  late_death.outage_windows = {{50, 1'000'000}};
  FChainSlave dying(2);
  dying.addComponent(2, 0);
  auto dying_ep = std::make_shared<runtime::FlakyEndpoint>(
      std::make_shared<runtime::LocalEndpoint>(&dying), late_death);
  master.registerEndpoint(dying_ep, {2});

  const auto result = master.localize({0, 2}, 100);  // tv inside the outage
  EXPECT_DOUBLE_EQ(result.coverage, 0.5);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{2}));
  EXPECT_GT(master.metrics().snapshot().counters.at("master.failures"), 0u);
  const auto health = master.endpointHealth();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0], runtime::HealthState::Healthy);
  EXPECT_EQ(health[1], runtime::HealthState::Down);
}

TEST(FlakyEndpoint, DownEndpointRecoversAfterOutage) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{100, 200}};
  auto endpoint = std::make_shared<runtime::FlakyEndpoint>(
      std::make_shared<runtime::LocalEndpoint>(&slave), outage);
  FChainMaster master;
  master.registerEndpoint(endpoint, {0});

  auto during = master.localize({0}, 150);
  EXPECT_DOUBLE_EQ(during.coverage, 0.0);
  EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Down);

  auto after = master.localize({0}, 250);  // single probe succeeds
  EXPECT_DOUBLE_EQ(after.coverage, 1.0);
  EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Healthy);
}

TEST(FlakyEndpoint, TimeoutWhenLatencyExceedsDeadline) {
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  runtime::FlakyConfig slow;
  slow.latency_mean_ms = 500.0;  // above the default 200 ms deadline
  auto endpoint = std::make_shared<runtime::FlakyEndpoint>(
      std::make_shared<runtime::LocalEndpoint>(&slave), slow);

  runtime::AnalyzeRequest request;
  request.component = 0;
  request.violation_time = 10;
  request.deadline_ms = 200.0;
  EXPECT_EQ(endpoint->analyze(request).status,
            runtime::EndpointStatus::Timeout);
  request.deadline_ms = 0.0;  // no deadline: the slow reply is accepted
  EXPECT_EQ(endpoint->analyze(request).status, runtime::EndpointStatus::Ok);
}

// --- Degraded-mode pinpointing, end to end --------------------------------

TEST(DegradedMode, LocalizesDespiteLossAndDeadSlave) {
  // One RUBiS CpuHog incident (as in the master/slave integration test).
  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = 77;
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  config.faults = {fault};

  sim::TelemetryFaultSpec loss;
  loss.type = sim::TelemetryFaultType::SampleDropBurst;
  loss.rate = 0.10;  // 10 % uniform sample loss for the whole run
  loss.seed = 9;
  sim::TelemetryFaultInjector telemetry({loss});

  // Four slaves, one per component; slave 0 (web) will be unreachable.
  std::vector<FChainSlave> slaves;
  for (HostId h = 0; h < 4; ++h) slaves.emplace_back(h);
  for (ComponentId id = 0; id < 4; ++id) slaves[id].addComponent(id, 0);

  sim::Simulation sim(config);
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    for (ComponentId id = 0; id < 4; ++id) {
      if (telemetry.sampleDropped(id, t)) continue;  // slave sees a gap
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
      }
      slaves[id].ingestAt(id, t, sample);
    }
  }
  ASSERT_TRUE(sim.violationTime().has_value());
  const TimeSec tv = *sim.violationTime();

  // A fresh master, and a fresh dead endpoint whose fate stream starts
  // over, per fan-out thread count.
  const auto localizeAt = [&](int threads) {
    FChainMaster master;
    master.setWorkerThreads(threads);
    runtime::FlakyConfig dead;
    dead.outage_windows = {{0, 1'000'000}};
    master.registerEndpoint(
        std::make_shared<runtime::FlakyEndpoint>(
            std::make_shared<runtime::LocalEndpoint>(&slaves[0]), dead),
        {0});
    for (ComponentId id = 1; id < 4; ++id) master.registerSlave(&slaves[id]);
    return master.localize({0, 1, 2, 3}, tv);
  };

  const auto result = localizeAt(0);
  EXPECT_LT(result.coverage, 1.0);
  EXPECT_DOUBLE_EQ(result.coverage, 0.75);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{0}));
  // The faulty component is still pinpointed from partial findings.
  EXPECT_FALSE(result.pinpointed.empty());
  EXPECT_NE(std::find(result.pinpointed.begin(), result.pinpointed.end(),
                      ComponentId{3}),
            result.pinpointed.end());
  // Some telemetry was actually lost and repaired along the way.
  EXPECT_GT(slaves[3].ingestStatsOf(3)->gaps_filled, 0u);
  // Lossy telemetry and a dead slave leave the pooled fan-out's verdict
  // identical to the inline one, prediction-error doubles included.
  const auto pooled = localizeAt(4);
  EXPECT_EQ(renderPinpoint(pooled, tv), renderPinpoint(result, tv));
  EXPECT_TRUE(samePinpoint(pooled, result));
}

// --- TelemetryFaultInjector -----------------------------------------------

TEST(TelemetryInjector, DropWindowAndRateRespected) {
  sim::TelemetryFaultSpec spec;
  spec.type = sim::TelemetryFaultType::SampleDropBurst;
  spec.start_time = 100;
  spec.duration_sec = 50;
  spec.rate = 1.0;
  spec.targets = {2};
  sim::TelemetryFaultInjector injector({spec});

  EXPECT_FALSE(injector.sampleDropped(2, 99));    // before the window
  EXPECT_TRUE(injector.sampleDropped(2, 100));    // inside
  EXPECT_TRUE(injector.sampleDropped(2, 149));
  EXPECT_FALSE(injector.sampleDropped(2, 150));   // after
  EXPECT_FALSE(injector.sampleDropped(1, 120));   // untargeted component
}

TEST(TelemetryInjector, DropDecisionsAreDeterministic) {
  sim::TelemetryFaultSpec spec;
  spec.rate = 0.5;
  spec.seed = 4;
  sim::TelemetryFaultInjector a({spec}), b({spec});
  std::size_t dropped = 0;
  for (TimeSec t = 0; t < 1000; ++t) {
    EXPECT_EQ(a.sampleDropped(0, t), b.sampleDropped(0, t));
    if (a.sampleDropped(0, t)) ++dropped;
  }
  EXPECT_GT(dropped, 400u);  // ~500 expected
  EXPECT_LT(dropped, 600u);
}

TEST(TelemetryInjector, CorruptionProducesNonFiniteOrWildValues) {
  sim::TelemetryFaultSpec spec;
  spec.type = sim::TelemetryFaultType::ValueCorruption;
  spec.rate = 1.0;
  spec.seed = 11;
  sim::TelemetryFaultInjector injector({spec});
  auto sample = flatSample(1.0);
  EXPECT_TRUE(injector.corruptSample(0, 10, sample));
  bool any_bad = false;
  for (double v : sample) {
    if (!std::isfinite(v) || std::fabs(v) > 1e6) any_bad = true;
  }
  EXPECT_TRUE(any_bad);
}

TEST(TelemetryInjector, SlaveOutageWindows) {
  sim::TelemetryFaultSpec spec;
  spec.type = sim::TelemetryFaultType::SlaveOutage;
  spec.start_time = 10;
  spec.duration_sec = 5;
  spec.hosts = {1};
  sim::TelemetryFaultInjector injector({spec});
  EXPECT_FALSE(injector.slaveDown(1, 9));
  EXPECT_TRUE(injector.slaveDown(1, 12));
  EXPECT_FALSE(injector.slaveDown(1, 15));
  EXPECT_FALSE(injector.slaveDown(0, 12));  // other hosts unaffected
}

// EndpointHealth is copied while worker threads record outcomes (endpoints
// live in a vector that registration can grow). The copy must be race-free
// (TSan-checked in CI) and land in a consistent state.
TEST(EndpointHealth, CopyAndAssignWhileConcurrentlyRecording) {
  runtime::EndpointHealth health(1, 3);
  constexpr int kWrites = 100000;
  std::thread success_writer([&] {
    for (int i = 0; i < kWrites; ++i) health.recordSuccess();
  });
  std::thread failure_writer([&] {
    for (int i = 0; i < kWrites; ++i) health.recordFailure();
  });

  for (int i = 0; i < 2000; ++i) {
    runtime::EndpointHealth copy(health);      // copy-construct under fire
    runtime::EndpointHealth assigned;
    assigned = health;                         // copy-assign under fire
    for (const auto* h : {&copy, &assigned}) {
      // A copy is a snapshot: internally consistent even mid-bombardment.
      const auto state = h->state();
      EXPECT_TRUE(state == runtime::HealthState::Healthy ||
                  state == runtime::HealthState::Degraded ||
                  state == runtime::HealthState::Down);
      EXPECT_GE(h->consecutiveFailures(), 0);
      EXPECT_LE(static_cast<std::size_t>(h->consecutiveFailures()),
                h->totalFailures() + 1);
    }
  }
  success_writer.join();
  failure_writer.join();
  // Atomic counters lose nothing under contention.
  EXPECT_EQ(health.totalSuccesses(), static_cast<std::size_t>(kWrites));
  EXPECT_EQ(health.totalFailures(), static_cast<std::size_t>(kWrites));
}

TEST(TelemetryInjector, CorruptedSamplesEndUpQuarantinedBySlave) {
  sim::TelemetryFaultSpec spec;
  spec.type = sim::TelemetryFaultType::ValueCorruption;
  spec.rate = 0.3;
  spec.seed = 5;
  sim::TelemetryFaultInjector injector({spec});

  FChainSlave slave(0);
  slave.addComponent(0, 0);
  for (TimeSec t = 0; t < 200; ++t) {
    auto sample = flatSample(2.0);
    injector.corruptSample(0, t, sample);
    slave.ingestAt(0, t, sample);
  }
  const IngestStats* stats = slave.ingestStatsOf(0);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->quarantined, 0u);
  // Analysis over the repaired stream must never see a non-finite value:
  // a constant series with quarantine substitutions yields no finding (the
  // wild-value corruptions are finite and *should* perturb the series, but
  // must not crash the selector).
  (void)slave.analyze(0, 199);
}

}  // namespace
}  // namespace fchain::core
