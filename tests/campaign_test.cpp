// Tests for the fault-injection campaign layer: fault-name round-trips,
// enumeration/shuffle determinism, outcome classification, set-relation
// tokens, and byte-identical report rendering under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/episode.h"
#include "campaign/report.h"
#include "eval/frontier.h"
#include "faults/fault.h"

namespace fchain::campaign {
namespace {

using eval::Outcome;

// --- faultTypeFromName (satellite 1) ------------------------------------

TEST(FaultNames, RoundTripsEveryEnumValue) {
  for (faults::FaultType type : faults::kAllFaultTypes) {
    const std::string_view name = faults::faultTypeName(type);
    EXPECT_EQ(faults::faultTypeFromName(name), type) << name;
  }
}

TEST(FaultNames, UnknownNameThrows) {
  EXPECT_THROW((void)faults::faultTypeFromName("NoSuchFault"),
               std::invalid_argument);
  EXPECT_THROW((void)faults::faultTypeFromName(""), std::invalid_argument);
  // Names are case-sensitive.
  EXPECT_THROW((void)faults::faultTypeFromName("memleak"),
               std::invalid_argument);
}

TEST(FaultNames, CallLevelAndExternalPredicates) {
  EXPECT_TRUE(faults::isCallLevel(faults::FaultType::CallLatency));
  EXPECT_TRUE(faults::isCallLevel(faults::FaultType::CallFailure));
  EXPECT_FALSE(faults::isCallLevel(faults::FaultType::CpuHog));
  EXPECT_TRUE(faults::isExternalFactor(faults::FaultType::WorkloadSurge));
  EXPECT_TRUE(faults::isExternalFactor(faults::FaultType::SharedSlowdown));
  EXPECT_FALSE(faults::isExternalFactor(faults::FaultType::CallFailure));
}

// --- Enumeration (tentpole + satellite 2) -------------------------------

TEST(Enumeration, DefaultConfigCoversAtLeastAThousandEpisodes) {
  const auto episodes = enumerateEpisodes(CampaignConfig{});
  EXPECT_GE(episodes.size(), 1000u);
}

TEST(Enumeration, IdsAreAPermutationAndSeedsAreUnique) {
  const auto episodes = enumerateEpisodes(CampaignConfig{});
  std::set<std::size_t> ids;
  std::set<std::uint64_t> seeds;
  for (const EpisodeSpec& spec : episodes) {
    ids.insert(spec.id);
    seeds.insert(spec.seed);
  }
  ASSERT_EQ(ids.size(), episodes.size());
  ASSERT_EQ(seeds.size(), episodes.size());
  // Ids are assigned in enumeration order, so the shuffled list still holds
  // exactly {0, ..., n-1}.
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), episodes.size() - 1);
}

TEST(Enumeration, EveryEpisodeIsFullyDetermined) {
  const auto episodes = enumerateEpisodes(CampaignConfig{});
  for (const EpisodeSpec& spec : episodes) {
    ASSERT_FALSE(spec.faults.empty()) << "ep#" << spec.id;
    // Co-timed pairs: both faults share one start instant, drawn so that
    // every duration leaves the models a long healthy prefix.
    for (const faults::FaultSpec& fault : spec.faults) {
      EXPECT_EQ(fault.start_time, spec.faults.front().start_time)
          << "ep#" << spec.id;
      EXPECT_GE(fault.start_time, 1150) << "ep#" << spec.id;
      EXPECT_LE(fault.start_time, 1450) << "ep#" << spec.id;
      EXPECT_LT(static_cast<std::size_t>(fault.start_time), spec.duration_sec)
          << "ep#" << spec.id;
    }
  }
}

TEST(Enumeration, CallLevelFaultsOnlyTargetCallers) {
  const auto episodes = enumerateEpisodes(CampaignConfig{});
  for (const EpisodeSpec& spec : episodes) {
    const sim::ApplicationSpec app = sim::makeAppSpec(spec.app);
    std::set<ComponentId> callers;
    for (const auto& edge : app.edges) callers.insert(edge.from);
    for (const faults::FaultSpec& fault : spec.faults) {
      if (!faults::isCallLevel(fault.type)) continue;
      for (ComponentId id : fault.targets) {
        EXPECT_TRUE(callers.contains(id))
            << "ep#" << spec.id << ": call fault on sink " << id;
      }
    }
  }
}

TEST(Enumeration, SameSeedSameOrderDifferentSeedDifferentOrder) {
  CampaignConfig config;
  const auto a = enumerateEpisodes(config);
  const auto b = enumerateEpisodes(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  config.seed = 2;
  const auto c = enumerateEpisodes(config);
  ASSERT_EQ(a.size(), c.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != c[i].id) any_difference = true;
  }
  EXPECT_TRUE(any_difference) << "different seed left the run order intact";
}

TEST(Enumeration, TruncationSamplesTheShuffledOrder) {
  CampaignConfig config;
  const auto full = enumerateEpisodes(config);
  config.max_episodes = 16;
  const auto capped = enumerateEpisodes(config);
  ASSERT_EQ(capped.size(), 16u);
  // The cap is a prefix of the shuffled full order, so per-episode identity
  // (id, seed, faults) is unchanged by truncation.
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].id, full[i].id);
    EXPECT_EQ(capped[i].seed, full[i].seed);
  }
}

TEST(Enumeration, FaultLabelJoinsPairs) {
  EpisodeSpec spec;
  spec.faults.resize(2);
  spec.faults[0].type = faults::FaultType::MemLeak;
  spec.faults[1].type = faults::FaultType::CpuHog;
  EXPECT_EQ(spec.faultLabel(), "MemLeak+CpuHog");
  spec.faults.resize(1);
  EXPECT_EQ(spec.faultLabel(), "MemLeak");
}

// --- Classification -----------------------------------------------------

IncidentFacts firedAt(TimeSec t, std::vector<ComponentId> pinpointed,
                      bool external = false) {
  IncidentFacts facts;
  facts.fired = true;
  facts.violation_time = t;
  facts.external_verdict = external;
  facts.pinpointed = std::move(pinpointed);
  return facts;
}

TEST(Classify, SilentMonitorMeansMissed) {
  EXPECT_EQ(classify({3}, false, 1200, IncidentFacts{}), Outcome::Missed);
}

TEST(Classify, ViolationBeforeFaultStartIsFalseAlarm) {
  EXPECT_EQ(classify({3}, false, 1200, firedAt(900, {3})),
            Outcome::FalseAlarm);
}

TEST(Classify, ComponentFaultOutcomes) {
  EXPECT_EQ(classify({3}, false, 1200, firedAt(1300, {3})),
            Outcome::Localized);
  EXPECT_EQ(classify({3}, false, 1200, firedAt(1300, {1})),
            Outcome::Mislocalized);
  EXPECT_EQ(classify({1, 3}, false, 1200, firedAt(1300, {3})),
            Outcome::Mislocalized);
  EXPECT_EQ(classify({3}, false, 1200, firedAt(1300, {})), Outcome::Missed);
  // Blaming the environment for a genuine component fault is a
  // mislocalization, not a pass.
  EXPECT_EQ(classify({3}, false, 1200, firedAt(1300, {}, true)),
            Outcome::Mislocalized);
}

TEST(Classify, ExternalFactorOutcomes) {
  EXPECT_EQ(classify({}, true, 1200, firedAt(1300, {}, true)),
            Outcome::ExternalCauseCorrect);
  // Blaming components for an external factor is a false alarm.
  EXPECT_EQ(classify({}, true, 1200, firedAt(1300, {2})),
            Outcome::FalseAlarm);
}

TEST(SetRelation, AllTokens) {
  EXPECT_EQ(setRelation({1, 3}, {1, 3}), "exact");
  EXPECT_EQ(setRelation({1, 3}, {1}), "subset");
  EXPECT_EQ(setRelation({1}, {1, 3}), "superset");
  EXPECT_EQ(setRelation({1, 2}, {2, 3}), "overlap");
  EXPECT_EQ(setRelation({1}, {3}), "disjoint");
  EXPECT_EQ(setRelation({1}, {}), "empty");
  EXPECT_EQ(setRelation({}, {2}), "no-truth");
  EXPECT_EQ(setRelation({}, {}), "no-truth");
}

// --- Report aggregation and rendering -----------------------------------

EpisodeRecord record(std::size_t id, faults::FaultType type, double intensity,
                     Outcome outcome) {
  EpisodeRecord rec;
  rec.spec.id = id;
  rec.spec.intensity = intensity;
  rec.spec.faults.resize(1);
  rec.spec.faults[0].type = type;
  rec.spec.faults[0].intensity = intensity;
  rec.truth = {3};
  rec.outcome = outcome;
  rec.relation = outcome == Outcome::Localized ? "exact" : "disjoint";
  return rec;
}

TEST(FrontierReport, CellsClustersAndGateScalar) {
  std::vector<EpisodeRecord> episodes = {
      record(0, faults::FaultType::MemLeak, 0.5, Outcome::Localized),
      record(1, faults::FaultType::MemLeak, 0.5, Outcome::Mislocalized),
      record(2, faults::FaultType::MemLeak, 1.0, Outcome::Localized),
      record(3, faults::FaultType::CallLatency, 1.0, Outcome::Missed),
      record(4, faults::FaultType::MemLeak, 0.5, Outcome::Mislocalized),
  };
  CampaignConfig config;
  config.seed = 7;
  const eval::FrontierReport report = buildFrontierReport(config, episodes);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_EQ(report.episode_count, 5u);
  EXPECT_EQ(report.totals.of(Outcome::Localized), 2u);
  // The gate scalar only counts single-fault resource episodes — the
  // CallLatency miss is excluded from its denominator.
  EXPECT_DOUBLE_EQ(report.single_fault_resource_localized_rate, 0.5);
  // Cells sorted by fault name then intensity.
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.cells[0].fault, "CallLatency");
  EXPECT_EQ(report.cells[1].fault, "MemLeak");
  EXPECT_DOUBLE_EQ(report.cells[1].intensity, 0.5);
  EXPECT_DOUBLE_EQ(report.cells[1].outcomes.correctRate(), 1.0 / 3.0);
  // Clusters: the doubled MemLeak mislocalization leads, exemplar is the
  // lowest-id member.
  ASSERT_EQ(report.clusters.size(), 2u);
  EXPECT_EQ(report.clusters[0].count, 2u);
  EXPECT_NE(report.clusters[0].example.find("ep#1"), std::string::npos);
}

TEST(FrontierReport, RenderingIsDeterministic) {
  std::vector<EpisodeRecord> episodes = {
      record(0, faults::FaultType::CpuHog, 1.0, Outcome::Localized),
      record(1, faults::FaultType::CpuHog, 1.7, Outcome::Missed),
  };
  const eval::FrontierReport report =
      buildFrontierReport(CampaignConfig{}, episodes);
  const std::string json = eval::frontierJson(report);
  const std::string md = eval::frontierMarkdown(report);
  EXPECT_EQ(json, eval::frontierJson(report));
  EXPECT_EQ(md, eval::frontierMarkdown(report));
  EXPECT_NE(json.find("\"single_fault_resource_localized_rate\""),
            std::string::npos);
  EXPECT_NE(md.find("accuracy"), std::string::npos);
}

// --- End-to-end determinism (satellite 2) -------------------------------

// A small capped sweep run twice with one seed must produce byte-identical
// reports; the cap keeps this inside tier-1 budgets while still exercising
// the full enumerate -> run -> classify -> render pipeline.
TEST(CampaignDeterminism, SameSeedByteIdenticalReports) {
  CampaignConfig config;
  config.seed = 11;
  config.max_episodes = 4;
  const CampaignResult first = runCampaign(config);
  const CampaignResult second = runCampaign(config);
  ASSERT_EQ(first.episodes.size(), 4u);
  ASSERT_EQ(second.episodes.size(), 4u);
  for (std::size_t i = 0; i < first.episodes.size(); ++i) {
    EXPECT_EQ(first.episodes[i].spec.id, second.episodes[i].spec.id);
    EXPECT_EQ(first.episodes[i].outcome, second.episodes[i].outcome);
    EXPECT_EQ(first.episodes[i].incident.pinpointed,
              second.episodes[i].incident.pinpointed);
  }
  EXPECT_EQ(eval::frontierJson(first.report),
            eval::frontierJson(second.report));
  EXPECT_EQ(eval::frontierMarkdown(first.report),
            eval::frontierMarkdown(second.report));
  // Every episode got classified (the report accounts for all of them).
  EXPECT_EQ(first.report.totals.total(), first.episodes.size());
}

// Per-episode parallelism is a pure scheduling change: workers write
// pre-allocated run-order slots, so the record vector and every report
// rendering match the serial bytes exactly.
TEST(CampaignDeterminism, ParallelWorkersByteIdenticalToSerial) {
  CampaignConfig config;
  config.seed = 11;
  config.max_episodes = 6;
  const CampaignResult serial = runCampaign(config);

  config.worker_threads = 4;
  std::size_t last_done = 0;
  std::size_t calls = 0;
  const CampaignResult parallel =
      runCampaign(config, [&](std::size_t done, std::size_t total,
                              const EpisodeRecord& record) {
        // Completion order may differ from run order, but `done` counts
        // monotonically and every record is a fully-classified episode.
        EXPECT_EQ(done, last_done + 1);
        EXPECT_EQ(total, 6u);
        EXPECT_FALSE(record.relation.empty());
        last_done = done;
        ++calls;
      });
  EXPECT_EQ(calls, 6u);

  ASSERT_EQ(parallel.episodes.size(), serial.episodes.size());
  for (std::size_t i = 0; i < serial.episodes.size(); ++i) {
    EXPECT_EQ(parallel.episodes[i].spec.id, serial.episodes[i].spec.id);
    EXPECT_EQ(parallel.episodes[i].outcome, serial.episodes[i].outcome);
    EXPECT_EQ(parallel.episodes[i].incident.pinpointed,
              serial.episodes[i].incident.pinpointed);
    EXPECT_EQ(parallel.episodes[i].relation, serial.episodes[i].relation);
  }
  EXPECT_EQ(eval::frontierJson(parallel.report),
            eval::frontierJson(serial.report));
  EXPECT_EQ(eval::frontierMarkdown(parallel.report),
            eval::frontierMarkdown(serial.report));
}

}  // namespace
}  // namespace fchain::campaign
