// Crash-tolerance tests: slave snapshot/restore bit-identity, journaled
// warm restart against the checked-in localization goldens, incident-journal
// replay after a master restart, and the checked-in corrupt-snapshot
// fixtures.
//
// The warm-restart tests are the tentpole guarantee: a slave that crashes
// mid-run and recovers from snapshot + journal must drive the *same golden
// bytes* as the uncrashed run pinned by golden_localization_test.cpp.
//
// To regenerate the corrupt-snapshot fixtures after a format change:
//   FCHAIN_UPDATE_FIXTURES=1 ./build/tests/test_crash_recovery
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fchain/fchain.h"
#include "fchain/recovery.h"
#include "netdep/dependency.h"
#include "persist/codec.h"
#include "pinpoint_render.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "sim/injector.h"
#include "sim/simulator.h"

namespace fchain::core {
namespace {

std::string tempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Reads a golden pinned by golden_localization_test.cpp (read-only here:
/// that suite owns regeneration).
std::string readGolden(const std::string& name) {
  const std::string path =
      std::string(FCHAIN_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good())
      << "missing golden " << path
      << " (regenerate via FCHAIN_UPDATE_GOLDEN=1 test_golden_localization)";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- Incident construction with crash/recover cycles ----------------------

/// The canonical two-slave RUBiS deployment from the golden tests, but every
/// sample flows through a SlaveCheckpointer (journal-then-ingest), and the
/// CrashInjector schedule kills/recovers slave processes mid-run. A crash
/// takes effect after its tick's ingest (the dying process had durably
/// journaled that sample); a restart recovers from disk before its tick's
/// ingest — so a crash at t with restart at t+1 loses nothing, which is
/// exactly the warm-restart guarantee under test.
struct CrashRun {
  std::unique_ptr<FChainSlave> front;
  std::unique_ptr<FChainSlave> back;
  TimeSec tv = 0;
  netdep::DependencyGraph deps;
  int recoveries = 0;
  std::size_t replayed = 0;  ///< journal records replayed across recoveries
};

CrashRun runIncidentWithCrashes(const std::vector<faults::FaultSpec>& faults,
                                std::uint64_t seed,
                                const sim::CrashInjector& injector,
                                const std::string& dir) {
  CrashRun run;
  run.front = std::make_unique<FChainSlave>(0);
  run.back = std::make_unique<FChainSlave>(1);
  run.front->addComponent(0, 0);
  run.front->addComponent(1, 0);
  run.back->addComponent(2, 0);
  run.back->addComponent(3, 0);

  std::array<std::unique_ptr<FChainSlave>*, 2> slaves = {&run.front,
                                                         &run.back};
  std::array<std::unique_ptr<SlaveCheckpointer>, 2> checkpointers;
  checkpointers[0] = std::make_unique<SlaveCheckpointer>(*run.front, dir);
  checkpointers[1] = std::make_unique<SlaveCheckpointer>(*run.back, dir);

  sim::ScenarioConfig config;
  config.kind = sim::AppKind::Rubis;
  config.seed = seed;
  config.faults = faults;
  sim::Simulation sim(config);
  while (!sim.violationTime().has_value() && sim.now() < 3600) {
    sim.step();
    const TimeSec t = sim.now() - 1;
    for (HostId host = 0; host < 2; ++host) {
      if (injector.restartsAt(host, t)) {
        auto recovered = SlaveCheckpointer::recover(dir, host);
        run.replayed += recovered.replayed;
        *slaves[host] =
            std::make_unique<FChainSlave>(std::move(recovered.slave));
        checkpointers[host] =
            std::make_unique<SlaveCheckpointer>(**slaves[host], dir);
        ++run.recoveries;
      }
    }
    for (ComponentId id = 0; id < 4; ++id) {
      const HostId host = id < 2 ? 0 : 1;
      if (!checkpointers[host]) continue;  // no live slave process
      std::array<double, kMetricCount> sample{};
      for (MetricKind kind : kAllMetrics) {
        sample[metricIndex(kind)] = sim.app().metricsOf(id).of(kind).at(t);
      }
      checkpointers[host]->ingestAt(id, t, sample);
    }
    for (HostId host = 0; host < 2; ++host) {
      if (injector.crashesAt(host, t)) {
        // Process death: checkpointer and all in-memory state vanish.
        checkpointers[host].reset();
        slaves[host]->reset();
      }
    }
  }
  EXPECT_TRUE(sim.violationTime().has_value());
  run.tv = sim.violationTime().value_or(sim.now());
  run.deps = netdep::discoverDependencies(sim.record());
  return run;
}

faults::FaultSpec cpuHogOnDb() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::CpuHog;
  fault.targets = {3};
  fault.start_time = 2000;
  fault.intensity = 1.35;
  return fault;
}

faults::FaultSpec concurrentOffloadBug() {
  faults::FaultSpec fault;
  fault.type = faults::FaultType::OffloadBug;
  fault.targets = {1, 2};
  fault.start_time = 2000;
  return fault;
}

// --- Crash injector schedule ----------------------------------------------

TEST(CrashInjector, ScheduleQueries) {
  sim::CrashInjector injector;
  injector.add({/*host=*/1, /*crash_time=*/100, /*restart_time=*/150});
  injector.add({/*host=*/2, /*crash_time=*/200, /*restart_time=*/0});

  EXPECT_TRUE(injector.crashesAt(1, 100));
  EXPECT_FALSE(injector.crashesAt(1, 101));
  EXPECT_FALSE(injector.crashesAt(0, 100));
  EXPECT_TRUE(injector.restartsAt(1, 150));
  EXPECT_FALSE(injector.restartsAt(1, 149));
  EXPECT_FALSE(injector.restartsAt(2, 0));  // restart_time 0 = never

  EXPECT_FALSE(injector.down(1, 99));
  EXPECT_TRUE(injector.down(1, 100));
  EXPECT_TRUE(injector.down(1, 149));
  EXPECT_FALSE(injector.down(1, 150));
  EXPECT_TRUE(injector.down(2, 200));
  EXPECT_TRUE(injector.down(2, 100000));  // never restarted
}

// --- Slave snapshot bit-identity ------------------------------------------

TEST(SlaveSnapshot, RestoreIsBitIdentical) {
  FChainSlave original(3);
  original.addComponent(7, 0);
  original.addComponent(8, 0);
  // Drive the full ingest machinery: waves, a gap, and a NaN quarantine, so
  // the snapshot carries calibrated discretizers, Markov mass, error
  // history, and nonzero repair counters.
  for (TimeSec t = 0; t < 900; ++t) {
    if (t == 400) continue;  // gap, filled on the next ingest
    std::array<double, kMetricCount> sample{};
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      sample[m] = 0.5 + 0.3 * std::sin(0.05 * static_cast<double>(t) +
                                       static_cast<double>(m));
    }
    if (t == 500) sample[2] = std::numeric_limits<double>::quiet_NaN();
    original.ingestAt(7, t, sample);
    original.ingestAt(8, t, sample);
  }

  const persist::SlaveSnapshot snap = original.snapshot(/*epoch=*/4);
  FChainSlave restored = FChainSlave::fromSnapshot(snap);

  // Strongest check available: re-capturing the restored slave yields the
  // exact same bytes — every double bit, every counter.
  EXPECT_EQ(persist::encodeSlaveSnapshot(restored.snapshot(4)),
            persist::encodeSlaveSnapshot(snap));

  // And analysis agrees (same findings object by object).
  const auto a = original.analyzeBatch({7, 8}, 880);
  const auto b = restored.analyzeBatch({7, 8}, 880);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].has_value(), b[i].has_value());
    if (!a[i]) continue;
    EXPECT_EQ(a[i]->component, b[i]->component);
    EXPECT_EQ(a[i]->onset, b[i]->onset);
    EXPECT_EQ(a[i]->trend, b[i]->trend);
    ASSERT_EQ(a[i]->metrics.size(), b[i]->metrics.size());
  }

  // Further ingest continues deterministically on both.
  std::array<double, kMetricCount> next{};
  next.fill(0.9);
  original.ingestAt(7, 900, next);
  restored.ingestAt(7, 900, next);
  EXPECT_EQ(persist::encodeSlaveSnapshot(restored.snapshot(5)),
            persist::encodeSlaveSnapshot(original.snapshot(5)));
}

// --- Warm restart vs the checked-in goldens -------------------------------

TEST(WarmRestart, SingleFaultMatchesUncrashedGolden) {
  // The back slave (app2 + db — including the component the golden blames)
  // dies at t=1500 and a replacement recovers from disk one tick later.
  sim::CrashInjector injector;
  injector.add({/*host=*/1, /*crash_time=*/1500, /*restart_time=*/1501});
  CrashRun run = runIncidentWithCrashes({cpuHogOnDb()}, /*seed=*/77,
                                        injector, tempDir("warm_single"));
  EXPECT_EQ(run.recoveries, 1);
  EXPECT_GT(run.replayed, 0u);

  FChainMaster master;
  master.registerSlave(run.front.get());
  master.registerSlave(run.back.get());
  master.setDependencies(run.deps);
  const PinpointResult result = master.localize({0, 1, 2, 3}, run.tv);
  EXPECT_EQ(result.pinpointed, (std::vector<ComponentId>{3}));
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(renderPinpoint(result, run.tv), readGolden("single_fault"))
      << "restarted slave diverged from the uncrashed golden";
}

TEST(WarmRestart, ConcurrentFaultWithBothSlavesCrashingMatchesGolden) {
  // Both slave processes die at different times — the front one twice.
  sim::CrashInjector injector;
  injector.add({/*host=*/0, /*crash_time=*/1200, /*restart_time=*/1201});
  injector.add({/*host=*/1, /*crash_time=*/1700, /*restart_time=*/1701});
  injector.add({/*host=*/0, /*crash_time=*/1950, /*restart_time=*/1951});
  CrashRun run =
      runIncidentWithCrashes({concurrentOffloadBug()}, /*seed=*/77, injector,
                             tempDir("warm_concurrent"));
  EXPECT_EQ(run.recoveries, 3);

  FChainMaster master;
  master.registerSlave(run.front.get());
  master.registerSlave(run.back.get());
  master.setDependencies(run.deps);
  const PinpointResult result = master.localize({0, 1, 2, 3}, run.tv);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(renderPinpoint(result, run.tv), readGolden("concurrent_fault"))
      << "restarted slaves diverged from the uncrashed golden";
}

// --- Checkpointer mechanics -----------------------------------------------

TEST(Checkpointer, TornJournalTailLosesOnlyTheTornRecord) {
  const std::string dir = tempDir("torn_tail");
  std::string journal_path;
  {
    FChainSlave slave(0);
    slave.addComponent(0, 0);
    SlaveCheckpointer checkpointer(slave, dir);
    journal_path = checkpointer.journalPath();
    std::array<double, kMetricCount> sample{};
    for (TimeSec t = 0; t < 10; ++t) {
      sample.fill(0.5 + 0.01 * static_cast<double>(t));
      checkpointer.ingestAt(0, t, sample);
    }
    EXPECT_EQ(checkpointer.journaledSinceSnapshot(), 10u);
  }
  // Crash mid-append: chop bytes off the journal's last record.
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 3));
  }
  ASSERT_TRUE(SlaveCheckpointer::hasState(dir, 0));
  const auto recovered = SlaveCheckpointer::recover(dir, 0);
  EXPECT_FALSE(recovered.journal_clean);
  EXPECT_EQ(recovered.replayed, 9u);  // valid prefix only
  const auto* series = recovered.slave.seriesOf(0);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->of(MetricKind::CpuUsage).size(), 9u);
}

TEST(Checkpointer, AutoCheckpointCollapsesJournalAndAdvancesEpoch) {
  const std::string dir = tempDir("auto_checkpoint");
  FChainSlave slave(0);
  slave.addComponent(0, 0);
  CheckpointPolicy policy;
  policy.snapshot_interval_sec = 100;
  SlaveCheckpointer checkpointer(slave, dir, policy);
  const std::uint64_t first_epoch = checkpointer.epoch();
  std::array<double, kMetricCount> sample{};
  for (TimeSec t = 0; t < 350; ++t) {
    sample.fill(0.5);
    checkpointer.ingestAt(0, t, sample);
  }
  EXPECT_GT(checkpointer.epoch(), first_epoch + 1);
  // The journal only holds samples since the last collapse, not all 350.
  EXPECT_LT(checkpointer.journaledSinceSnapshot(), 150u);
  // Epoch numbering continues when a checkpointer re-attaches through the
  // proper recover()-first workflow.
  const std::uint64_t before = checkpointer.epoch();
  auto recovered = SlaveCheckpointer::recover(dir, 0);
  SlaveCheckpointer reattached(recovered.slave, dir, policy);
  EXPECT_GT(reattached.epoch(), before);
}

TEST(Checkpointer, RefusesToOverwritePersistedStateWithFreshSlave) {
  const std::string dir = tempDir("refuse_overwrite");
  {
    FChainSlave slave(0);
    slave.addComponent(0, 0);
    SlaveCheckpointer checkpointer(slave, dir);
    std::array<double, kMetricCount> sample{};
    for (TimeSec t = 0; t < 20; ++t) {
      sample.fill(0.5);
      checkpointer.ingestAt(0, t, sample);
    }
  }  // "crash": the persisted snapshot + journal survive the process

  // Wrapping a fresh slave would overwrite hours of learned state with an
  // empty snapshot and truncate the journal — it must throw, not truncate.
  FChainSlave fresh(0);
  fresh.addComponent(0, 0);
  EXPECT_THROW(SlaveCheckpointer(fresh, dir), std::runtime_error);
  // The refusal left the persisted state untouched and recoverable.
  auto recovered = SlaveCheckpointer::recover(dir, 0);
  const auto* series = recovered.slave.seriesOf(0);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->of(MetricKind::CpuUsage).size(), 20u);

  // recover()-first re-attaches cleanly; explicit discard is the opt-out.
  SlaveCheckpointer reattached(recovered.slave, dir);
  CheckpointPolicy discard;
  discard.discard_unrecovered_state = true;
  FChainSlave fresh2(0);
  fresh2.addComponent(0, 0);
  SlaveCheckpointer discarded(fresh2, dir, discard);
  EXPECT_EQ(SlaveCheckpointer::recover(dir, 0).replayed, 0u);
}

/// Two VMs ingested through a checkpointer for 250 s with a checkpoint every
/// 100 s: a snapshot past epoch 1 and a journal holding the last 50 s. The
/// slave outlives the checkpointer, as a live process's state would.
struct CrashImage {
  FChainSlave slave{0};
  std::uint64_t epoch = 0;
  std::string snapshot_path;
  std::string journal_path;
};

std::unique_ptr<CrashImage> makeCrashImage(const std::string& dir) {
  auto image = std::make_unique<CrashImage>();
  image->slave.addComponent(0, 0);
  image->slave.addComponent(1, 0);
  CheckpointPolicy policy;
  policy.snapshot_interval_sec = 100;
  SlaveCheckpointer checkpointer(image->slave, dir, policy);
  std::array<double, kMetricCount> sample{};
  for (TimeSec t = 0; t < 250; ++t) {
    for (ComponentId id = 0; id < 2; ++id) {
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        sample[m] = 0.25 + 0.01 * static_cast<double>((t * 7 + m + id) % 13);
      }
      checkpointer.ingestAt(id, t, sample);
    }
  }
  image->epoch = checkpointer.epoch();
  image->snapshot_path = checkpointer.snapshotPath();
  image->journal_path = checkpointer.journalPath();
  return image;
}

TEST(Checkpointer, ReattachContinuesTheEpochFromTheHeader) {
  const std::string dir = tempDir("reattach_epoch");
  const std::uint64_t old_epoch = makeCrashImage(dir)->epoch;
  ASSERT_GT(old_epoch, 1u);

  auto recovered = SlaveCheckpointer::recover(dir, 0);
  EXPECT_EQ(recovered.epoch, old_epoch);
  EXPECT_GT(recovered.replayed, 0u);
  SlaveCheckpointer reattached(recovered.slave, dir);
  const std::uint64_t epoch = old_epoch + 1;
  EXPECT_EQ(reattached.epoch(), epoch);
  const std::vector<std::uint8_t> boot_snapshot =
      persist::encodeSlaveSnapshot(recovered.slave.snapshot(epoch));
  EXPECT_EQ(persist::readFileBytes(reattached.snapshotPath()), boot_snapshot);
  const persist::SampleJournalReplay journal =
      persist::readSampleJournal(reattached.journalPath());
  EXPECT_EQ(journal.epoch, epoch);
  EXPECT_TRUE(journal.records.empty());
  EXPECT_TRUE(journal.clean);

  // The boot checkpoint alone rebuilds the same bytes.
  const auto again = SlaveCheckpointer::recover(dir, 0);
  EXPECT_EQ(again.epoch, epoch);
  EXPECT_EQ(again.replayed, 0u);
  EXPECT_EQ(persist::encodeSlaveSnapshot(again.slave.snapshot(epoch)),
            boot_snapshot);
}

TEST(Checkpointer, DamagedSnapshotHeaderStillRefuses) {
  const std::string dir = tempDir("damaged_header");
  const std::unique_ptr<CrashImage> image = makeCrashImage(dir);
  const std::vector<std::uint8_t> snapshot =
      persist::readFileBytes(image->snapshot_path);
  const std::vector<std::uint8_t> journal =
      persist::readFileBytes(image->journal_path);

  // Cut below the header, a bad magic, and a length field that disagrees
  // with the file size.
  std::vector<std::vector<std::uint8_t>> damaged;
  damaged.emplace_back(snapshot.begin(), snapshot.begin() + 12);
  damaged.push_back(snapshot);
  damaged.back()[1] ^= 0x20;
  damaged.push_back(snapshot);
  damaged.back()[8] ^= 0x01;
  for (std::size_t i = 0; i < damaged.size(); ++i) {
    for (const bool sampled : {false, true}) {
      persist::writeFileAtomic(image->snapshot_path, damaged[i]);
      FChainSlave fresh(0);
      fresh.addComponent(0, 0);
      fresh.addComponent(1, 0);
      FChainSlave& wrapped = sampled ? image->slave : fresh;
      EXPECT_THROW(SlaveCheckpointer(wrapped, dir), persist::CorruptDataError)
          << "damage " << i << (sampled ? ", sampled slave" : ", fresh slave");
      EXPECT_EQ(persist::readFileBytes(image->snapshot_path), damaged[i]);
      EXPECT_EQ(persist::readFileBytes(image->journal_path), journal);
    }
  }
}

TEST(Checkpointer, PayloadDamageIsReplacedUnderASlaveWithSamples) {
  const std::string dir = tempDir("payload_damage");
  const std::unique_ptr<CrashImage> image = makeCrashImage(dir);
  std::vector<std::uint8_t> damaged =
      persist::readFileBytes(image->snapshot_path);
  damaged[damaged.size() / 2] ^= 0x10;  // far past the epoch field
  persist::writeFileAtomic(image->snapshot_path, damaged);

  // A fresh slave needs the persisted extent, so the payload is loaded and
  // its CRC refuses it.
  FChainSlave fresh(0);
  fresh.addComponent(0, 0);
  EXPECT_THROW(SlaveCheckpointer(fresh, dir), persist::CorruptDataError);
  EXPECT_EQ(persist::readFileBytes(image->snapshot_path), damaged);

  // A slave with samples reads only the header; its boot checkpoint
  // replaces the damaged payload.
  SlaveCheckpointer reattached(image->slave, dir);
  EXPECT_EQ(reattached.epoch(), image->epoch + 1);
  EXPECT_EQ(persist::readFileBytes(image->snapshot_path),
            persist::encodeSlaveSnapshot(
                image->slave.snapshot(image->epoch + 1)));
}

// --- Incident journal: master restart -------------------------------------

TEST(IncidentRecovery, PendingIncidentIsRerunAfterMasterRestart) {
  const std::string dir = tempDir("incident_rerun");
  const std::string path = dir + "/incidents.journal";
  sim::CrashInjector no_crashes;
  CrashRun run = runIncidentWithCrashes({cpuHogOnDb()}, /*seed=*/77,
                                        no_crashes, dir);

  std::string expected_render;
  {
    persist::IncidentJournal journal(path);
    FChainMaster master;
    master.setIncidentJournal(&journal);
    master.registerSlave(run.front.get());
    master.registerSlave(run.back.get());
    master.setDependencies(run.deps);
    // A completed localization leaves no pending entry behind.
    const auto result = master.localize({0, 1, 2, 3}, run.tv);
    expected_render = renderPinpoint(result, run.tv);
    // Crash mid-incident: the start record lands, the done never does.
    journal.logStart({0, 1, 2, 3}, run.tv);
  }
  ASSERT_EQ(persist::IncidentJournal::pending(path).size(), 1u);

  // Master restart: fresh process, same journal, recovered slaves.
  persist::IncidentJournal journal(path);
  FChainMaster master;
  master.setIncidentJournal(&journal);
  master.registerSlave(run.front.get());
  master.registerSlave(run.back.get());
  master.setDependencies(run.deps);
  const auto reruns = rerunPendingIncidents(master, journal);
  ASSERT_EQ(reruns.size(), 1u);
  EXPECT_EQ(reruns[0].components, (std::vector<ComponentId>{0, 1, 2, 3}));
  EXPECT_EQ(reruns[0].violation_time, run.tv);
  EXPECT_EQ(renderPinpoint(reruns[0].result, run.tv), expected_render);
  EXPECT_TRUE(persist::IncidentJournal::pending(path).empty());
}

// --- Checked-in corrupt-snapshot fixtures ---------------------------------

std::string fixturePath(const std::string& name) {
  return std::string(FCHAIN_FIXTURE_DIR) + "/" + name;
}

persist::SlaveSnapshot fixtureSnapshot() {
  // Deterministic content: byte-stable across regenerations.
  persist::SlaveSnapshot snapshot;
  snapshot.host = 7;
  snapshot.epoch = 2;
  persist::VmSnapshotState vm;
  vm.component = 0;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    vm.series[m].start = 50;
    vm.series[m].values = {0.125, 0.25, 0.5};
    auto& p = vm.predictors[m];
    p.bins = 2;
    p.calibration_samples = 4;
    p.padding = 0.05;
    p.calibrated = true;
    p.lo = 0.0;
    p.hi = 1.0;
    p.width = 0.5;
    p.decay = 0.98;
    p.laplace = 1.0;
    p.counts = {1.0, 0.0, 0.5, 2.0};
    p.row_mass = {1.0, 2.5};
    p.errors.start = 50;
    p.errors.values = {0.01, 0.02, 0.03};  // aligned with the metric series
  }
  snapshot.vms.push_back(vm);
  return snapshot;
}

void writeFixture(const std::string& name,
                  const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(fixturePath(name), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write fixture " << fixturePath(name);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void maybeRegenerateFixtures() {
  const char* update = std::getenv("FCHAIN_UPDATE_FIXTURES");
  if (update == nullptr || update[0] == '\0' ||
      (update[0] == '0' && update[1] == '\0')) {
    return;
  }
  std::filesystem::create_directories(FCHAIN_FIXTURE_DIR);
  const auto valid = persist::encodeSlaveSnapshot(fixtureSnapshot());
  writeFixture("valid.bin", valid);
  auto bad_magic = valid;
  bad_magic[0] ^= 0xFF;
  writeFixture("bad_magic.bin", bad_magic);
  auto bad_version = valid;
  bad_version[4] += 1;  // little-endian version field
  writeFixture("bad_version.bin", bad_version);
  writeFixture("truncated.bin",
               {valid.begin(), valid.begin() + valid.size() / 2});
  auto bad_checksum = valid;
  bad_checksum[persist::kFrameHeaderSize + 9] ^= 0x20;
  writeFixture("bad_checksum.bin", bad_checksum);
  // Frames cleanly but violates the model-shape invariants.
  auto malformed = fixtureSnapshot();
  malformed.vms[0].predictors[1].row_mass.push_back(9.0);
  writeFixture("bad_shape.bin", persist::encodeSlaveSnapshot(malformed));
}

TEST(SnapshotFixtures, ValidFixtureLoads) {
  maybeRegenerateFixtures();
  ASSERT_TRUE(persist::fileExists(fixturePath("valid.bin")))
      << "missing fixtures; regenerate with FCHAIN_UPDATE_FIXTURES=1";
  const auto snapshot = persist::loadSlaveSnapshot(fixturePath("valid.bin"));
  EXPECT_EQ(snapshot.host, 7);
  EXPECT_EQ(snapshot.epoch, 2u);
  ASSERT_EQ(snapshot.vms.size(), 1u);
  EXPECT_EQ(snapshot.vms[0].predictors[0].row_mass,
            (std::vector<double>{1.0, 2.5}));
  // The encoder still writes the checked-in bytes, byte for byte.
  EXPECT_EQ(persist::encodeSlaveSnapshot(fixtureSnapshot()),
            persist::readFileBytes(fixturePath("valid.bin")));
}

TEST(SnapshotFixtures, EveryCorruptFixtureIsRejectedWithOffset) {
  maybeRegenerateFixtures();
  for (const char* name : {"bad_magic.bin", "bad_version.bin",
                           "truncated.bin", "bad_checksum.bin",
                           "bad_shape.bin"}) {
    ASSERT_TRUE(persist::fileExists(fixturePath(name)))
        << "missing fixture " << name
        << "; regenerate with FCHAIN_UPDATE_FIXTURES=1";
    try {
      persist::loadSlaveSnapshot(fixturePath(name));
      FAIL() << "corrupt fixture " << name << " was accepted";
    } catch (const persist::CorruptDataError& e) {
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace fchain::core
