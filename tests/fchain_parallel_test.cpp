// Localization fan-out tests: the worker pool, batched slave analysis, and
// the determinism guarantee — localize() must return a PinpointResult
// bit-identical whether its per-slave batches run inline (0 threads) or on
// a pool of any size, including under injected endpoint outages (degraded
// mode).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fchain/fchain.h"
#include "obs/trace.h"
#include "netdep/dependency.h"
#include "pinpoint_equal.h"
#include "runtime/flaky_endpoint.h"
#include "runtime/worker_pool.h"
#include "scoped_trace.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

// --- WorkerPool -----------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskAcrossThreads) {
  runtime::WorkerPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, ThreadCountClampsToAtLeastOne) {
  runtime::WorkerPool pool(-3);
  EXPECT_EQ(pool.threadCount(), 1);
  std::atomic<int> counter{0};
  pool.run({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 1);
}

TEST(WorkerPool, ReusableAcrossRuns) {
  runtime::WorkerPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 30);
}

TEST(WorkerPool, PropagatesFirstTaskExceptionAndStaysUsable) {
  runtime::WorkerPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(counter.load(), 5);  // the other tasks still ran to completion
  pool.run({[&counter] { counter.fetch_add(1); }});
  EXPECT_EQ(counter.load(), 6);
}

// --- Shared incident fixture ----------------------------------------------

/// One RUBiS CpuHog incident ingested into two slaves of two VMs each:
/// slave_front hosts {web=0, app1=1}, slave_back hosts {app2=2, db=3}; the
/// fault is on the db VM (the golden SingleFault scenario). Built once —
/// localization is a read-only fan-out, so every test can share the
/// ingested state.
struct Cluster {
  FChainSlave front{0};  // components 0, 1
  FChainSlave back{1};   // components 2, 3
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
  /// Every sample ingested, tick by tick, components 0-3 within a tick.
  std::vector<std::array<double, kMetricCount>> samples;
};

/// Two slaves that have ingested the incident and analyzed nothing.
void ingestIncident(const Cluster& c, FChainSlave& front, FChainSlave& back) {
  front.addComponent(0, 0);
  front.addComponent(1, 0);
  back.addComponent(2, 0);
  back.addComponent(3, 0);
  for (std::size_t i = 0; i < c.samples.size(); ++i) {
    const auto id = static_cast<ComponentId>(i % 4);
    (id < 2 ? front : back).ingest(id, c.samples[i]);
  }
}

Cluster& cluster() {
  static Cluster& instance = *[] {
    auto* c = new Cluster();
    sim::ScenarioConfig config;
    config.kind = sim::AppKind::Rubis;
    config.seed = 77;
    faults::FaultSpec fault;
    fault.type = faults::FaultType::CpuHog;
    fault.targets = {3};
    fault.start_time = 2000;
    fault.intensity = 1.35;
    config.faults = {fault};

    sim::Simulation sim(config);
    while (!sim.violationTime().has_value() && sim.now() < 3600) {
      sim.step();
      const TimeSec t = sim.now() - 1;
      for (ComponentId id = 0; id < 4; ++id) {
        std::array<double, kMetricCount> sample{};
        for (MetricKind kind : kAllMetrics) {
          sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
        }
        c->samples.push_back(sample);
      }
    }
    ingestIncident(*c, c->front, c->back);
    EXPECT_TRUE(sim.violationTime().has_value());
    c->tv = *sim.violationTime();
    c->deps = netdep::discoverDependencies(sim.record());
    return c;
  }();
  return instance;
}

// --- Batched slave analysis -----------------------------------------------

TEST(SlaveBatch, BatchMatchesPerComponentAnalysis) {
  Cluster& c = cluster();
  const std::vector<ComponentId> ids = {2, 3, 99};  // 99 is unknown
  std::vector<std::optional<ComponentFinding>> reference;
  for (ComponentId id : ids) reference.push_back(c.back.analyze(id, c.tv));
  EXPECT_FALSE(reference[2].has_value());

  const auto batch = c.back.analyzeBatch(ids, c.tv);
  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].has_value(), reference[i].has_value()) << i;
    if (batch[i].has_value()) {
      EXPECT_TRUE(sameFinding(*batch[i], *reference[i])) << i;
    }
  }
}

// --- Master determinism: inline vs pool -----------------------------------

PinpointResult localizeHealthy(int threads) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(threads);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  return master.localize({0, 1, 2, 3}, c.tv);
}

TEST(ParallelLocalize, HealthyClusterIsIdenticalAcrossThreadCounts) {
  const PinpointResult inline_result = localizeHealthy(0);
  EXPECT_EQ(inline_result.pinpointed, (std::vector<ComponentId>{3}));
  EXPECT_DOUBLE_EQ(inline_result.coverage, 1.0);
  for (int threads : {1, 2, 8}) {
    const PinpointResult pool = localizeHealthy(threads);
    EXPECT_TRUE(samePinpoint(inline_result, pool)) << threads << " threads";
  }
}

/// The front slave (web + app1) is dark for the whole incident, so the
/// batch covering components {0, 1} exhausts its retries while {2, 3}
/// analyze normally — degraded mode at every thread count.
PinpointResult localizeWithOutage(int threads) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(threads);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
      {0, 1});
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  return master.localize({0, 1, 2, 3}, c.tv);
}

TEST(ParallelLocalize, EndpointOutageIsIdenticalAcrossThreadCounts) {
  const PinpointResult inline_result = localizeWithOutage(0);
  EXPECT_DOUBLE_EQ(inline_result.coverage, 0.5);
  EXPECT_EQ(inline_result.unanalyzed, (std::vector<ComponentId>{0, 1}));
  EXPECT_NE(std::find(inline_result.pinpointed.begin(),
                      inline_result.pinpointed.end(), ComponentId{3}),
            inline_result.pinpointed.end());
  for (int threads : {1, 2, 8}) {
    const PinpointResult pool = localizeWithOutage(threads);
    EXPECT_TRUE(samePinpoint(inline_result, pool)) << threads << " threads";
  }
}

// --- Verdicts do not depend on call history --------------------------------

/// The verdicts at `times`, localized in that order on one new master over
/// one new pair of slaves.
std::vector<PinpointResult> localizeInOrder(const std::vector<TimeSec>& times,
                                            int threads) {
  const Cluster& c = cluster();
  FChainSlave front(0);
  FChainSlave back(1);
  ingestIncident(c, front, back);
  FChainMaster master;
  master.setWorkerThreads(threads);
  master.registerSlave(&front);
  master.registerSlave(&back);
  master.setDependencies(c.deps);
  std::vector<PinpointResult> results;
  for (TimeSec tv : times) results.push_back(master.localize({0, 1, 2, 3}, tv));
  return results;
}

// Whatever an analysis leaves behind — thread scratch arenas, the
// permutation pool, any cache a slave or master keeps — must not reach a
// later verdict. The same 16 localizations, ascending, then descending,
// then each on a freshly built master and slaves, must agree at every
// time, inline and on a pool.
TEST(ParallelLocalize, VerdictsDoNotDependOnCallHistory) {
  const TimeSec last = cluster().tv;
  std::vector<TimeSec> ascending;
  for (TimeSec tv = last - 15; tv <= last; ++tv) ascending.push_back(tv);
  const std::vector<TimeSec> descending(ascending.rbegin(), ascending.rend());

  for (int threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const std::vector<PinpointResult> up = localizeInOrder(ascending, threads);
    const std::vector<PinpointResult> down =
        localizeInOrder(descending, threads);
    for (std::size_t i = 0; i < ascending.size(); ++i) {
      const PinpointResult fresh = localizeInOrder({ascending[i]}, threads)[0];
      EXPECT_TRUE(samePinpoint(fresh, up[i]))
          << "ascending, tv " << ascending[i];
      EXPECT_TRUE(samePinpoint(fresh, down[ascending.size() - 1 - i]))
          << "descending, tv " << ascending[i];
    }
    EXPECT_EQ(up.back().pinpointed, (std::vector<ComponentId>{3}));
  }
}

// --- Batch transport accounting -------------------------------------------

TEST(ParallelLocalize, OneBatchRequestPerSlave) {
  Cluster& c = cluster();
  for (int threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    FChainMaster master;
    master.setWorkerThreads(threads);
    master.registerSlave(&c.front);
    master.registerSlave(&c.back);
    (void)master.localize({0, 1, 2, 3}, c.tv);
    const auto snap = master.metrics().snapshot();
    // One batch per slave, not one per VM.
    EXPECT_EQ(snap.counters.at("master.requests"), 2u);
    EXPECT_EQ(snap.counters.at("master.retries"), 0u);
    EXPECT_EQ(snap.counters.at("master.failures"), 0u);
  }
}

TEST(ParallelLocalize, OutageExhaustsBatchRetriesAndMarksEndpointDown) {
  Cluster& c = cluster();
  for (int threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    FChainMaster master;
    master.setWorkerThreads(threads);
    runtime::FlakyConfig outage;
    outage.outage_windows = {{0, 1'000'000}};
    master.registerEndpoint(
        std::make_shared<runtime::FlakyEndpoint>(
            std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
        {0, 1});
    const auto result = master.localize({0, 1}, c.tv);
    EXPECT_DOUBLE_EQ(result.coverage, 0.0);
    const auto snap = master.metrics().snapshot();
    // The batch burned the full retry budget...
    EXPECT_EQ(snap.counters.at("master.requests"), 3u);
    EXPECT_EQ(snap.counters.at("master.retries"), 2u);
    // ...and both components stayed unanalyzed.
    EXPECT_EQ(snap.counters.at("master.failures"), 2u);
    EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Down);

    // A later localization outside the outage window probes once and fully
    // recovers the endpoint.
    const auto after = master.localize({0, 1}, 1'000'001);
    EXPECT_DOUBLE_EQ(after.coverage, 1.0);
    EXPECT_EQ(master.endpointHealth().front(), runtime::HealthState::Healthy);
  }
}

// --- Observability: pool drain + stats adapter ----------------------------

TEST(WorkerPool, PendingCountRisesWhileBlockedAndDrainsToZero) {
  runtime::WorkerPool pool(1);
  EXPECT_EQ(pool.pendingCount(), 0u);
  std::atomic<bool> release{false};
  std::atomic<std::size_t> observed_pending{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&pool, &release, &observed_pending] {
    // The single worker is parked here, so the remaining tasks are still
    // pending — the count must include them plus this running task.
    observed_pending.store(pool.pendingCount());
    while (!release.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 3; ++i) tasks.push_back([] {});
  std::thread runner([&pool, &tasks] { pool.run(std::move(tasks)); });
  while (observed_pending.load() == 0) std::this_thread::yield();
  EXPECT_EQ(observed_pending.load(), 4u);
  release.store(true);
  runner.join();
  EXPECT_EQ(pool.pendingCount(), 0u);
}

TEST(ParallelLocalize, PoolDrainsToZeroAfterLocalize) {
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(4);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  (void)master.localize({0, 1, 2, 3}, c.tv);
  // localize() waits for the fan-out, so no batch job may still be queued —
  // and the master records that drained depth as a gauge.
  EXPECT_DOUBLE_EQ(
      master.metrics().snapshot().gauges.at("master.pool_pending"), 0.0);
}

TEST(ParallelLocalize, OutageCountsLandInTheRegistry) {
  // Exercise retries *and* failures (dark front slave burns the full retry
  // budget) on the pool, then read the counts from the registry.
  Cluster& c = cluster();
  FChainMaster master;
  master.setWorkerThreads(2);
  runtime::FlakyConfig outage;
  outage.outage_windows = {{0, 1'000'000}};
  master.registerEndpoint(
      std::make_shared<runtime::FlakyEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(&c.front), outage),
      {0, 1});
  master.registerSlave(&c.back);
  (void)master.localize({0, 1, 2, 3}, c.tv);

  const obs::MetricsSnapshot snap = master.metrics().snapshot();
  EXPECT_GT(snap.counters.at("master.requests"), 0u);
  EXPECT_GT(snap.counters.at("master.retries"), 0u);
  EXPECT_GT(snap.counters.at("master.failures"), 0u);
  // Every localize() lands one observation in the latency histogram.
  EXPECT_EQ(snap.histograms.at("master.localize_ms").count, 1u);
}

TEST(ParallelLocalize, TracedLocalizeEmitsPipelineSpans) {
  // Flip the global tracer on around one pooled localization and check the
  // span taxonomy covers every pipeline layer; the verdict itself must be
  // untouched by tracing.
  const PinpointResult reference = localizeHealthy(0);
  obs::Tracer& tracer = obs::tracer();
  PinpointResult traced;
  {
    const obs::ScopedGlobalTrace tracing(true);
    tracer.clear();
    traced = localizeHealthy(2);
  }
  EXPECT_TRUE(samePinpoint(reference, traced));

  std::set<std::string> names;
  for (const obs::SpanRecord& r : tracer.records()) names.insert(r.name);
  tracer.clear();
  for (const char* expected :
       {"master.localize", "master.fanout", "master.merge", "master.batch",
        "pool.queue_wait", "pool.task", "slave.analyze_batch",
        "slave.analyze_vm", "selector.component", "selector.metric",
        "signal.cusum", "signal.burst_threshold"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }
}

// --- Concurrent localizations ---------------------------------------------

/// Four threads localize the healthy incident on one 4-thread master at
/// once; a warm-up call first, or none, so the callers race on the master's
/// very first localize (which must only read the pool setWorkerThreads()
/// built). Every result must match the inline reference.
void expectConcurrentCallsAgree(bool warm_up) {
  Cluster& c = cluster();
  const PinpointResult reference = localizeHealthy(0);
  FChainMaster master;
  master.setWorkerThreads(4);
  master.registerSlave(&c.front);
  master.registerSlave(&c.back);
  master.setDependencies(c.deps);
  if (warm_up) {
    EXPECT_TRUE(samePinpoint(reference, master.localize({0, 1, 2, 3}, c.tv)));
  }

  std::vector<PinpointResult> results(4);
  std::vector<std::thread> callers;
  callers.reserve(results.size());
  for (auto& slot : results) {
    callers.emplace_back([&master, &c, &slot] {
      slot = master.localize({0, 1, 2, 3}, c.tv);
    });
  }
  for (auto& caller : callers) caller.join();
  for (const PinpointResult& result : results) {
    EXPECT_TRUE(samePinpoint(reference, result));
  }
}

TEST(ParallelLocalize, ConcurrentLocalizeCallsAgree) {
  expectConcurrentCallsAgree(/*warm_up=*/true);
}

TEST(ParallelLocalize, ConcurrentFirstLocalizeCallsAgree) {
  expectConcurrentCallsAgree(/*warm_up=*/false);
}

}  // namespace
}  // namespace fchain::core
