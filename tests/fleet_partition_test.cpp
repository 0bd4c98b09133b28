// Ownership tests for the fleet tier (fleet/fleet.h): a shard owns whole
// slaves. FleetMaster::partition() slices an application by the shard of
// each component's slave; these tests pin that the slices partition the
// input in caller order, that a slave's components share one slice, that
// every slave sees one analyze batch per fleet localization whatever the
// shard count, and that a refused registration leaves nothing behind.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fchain/slave.h"
#include "fleet/fleet.h"

namespace fchain::fleet {
namespace {

/// Counts the analyze batches that reach the wrapped endpoint.
class CountingEndpoint final : public runtime::SlaveEndpoint {
 public:
  explicit CountingEndpoint(std::shared_ptr<runtime::SlaveEndpoint> inner)
      : inner_(std::move(inner)) {}

  HostId host() const override { return inner_->host(); }
  runtime::ComponentListReply listComponents() override {
    return inner_->listComponents();
  }
  runtime::AnalyzeBatchReply analyzeBatch(
      const runtime::AnalyzeBatchRequest& request) override {
    ++batches;
    return inner_->analyzeBatch(request);
  }

  std::size_t batches = 0;

 private:
  std::shared_ptr<runtime::SlaveEndpoint> inner_;
};

/// `count` slaves; slave h monitors every component id whose index in
/// `ids` is h mod count.
std::vector<std::unique_ptr<core::FChainSlave>> spreadOver(
    std::size_t count, const std::vector<ComponentId>& ids) {
  std::vector<std::unique_ptr<core::FChainSlave>> slaves;
  for (std::size_t h = 0; h < count; ++h) {
    slaves.push_back(
        std::make_unique<core::FChainSlave>(static_cast<HostId>(h)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    slaves[i % count]->addComponent(ids[i], 0);
  }
  return slaves;
}

std::vector<ComponentId> range(ComponentId first, ComponentId count) {
  std::vector<ComponentId> ids;
  for (ComponentId id = first; id < first + count; ++id) ids.push_back(id);
  return ids;
}

TEST(FleetPartition, SlicesAreDisjointCoverTheInputAndKeepCallerOrder) {
  std::vector<ComponentId> monitored;
  for (ComponentId i = 0; i < 257; ++i) monitored.push_back(i * 7 + 1);
  const auto slaves = spreadOver(6, monitored);
  FleetConfig config;
  config.shards = 4;
  FleetMaster fleet(config);
  for (const auto& slave : slaves) fleet.addSlave(slave.get());

  // The application: every monitored component plus three no slave
  // monitors, in a seeded shuffled order.
  std::vector<ComponentId> components = monitored;
  components.insert(components.end(), {2, 4, 6});
  Rng rng(mixSeed(0xF1EE7, 2));
  for (std::size_t i = components.size(); i > 1; --i) {
    std::swap(components[i - 1], components[rng.below(i)]);
  }
  std::map<ComponentId, std::size_t> position;
  for (std::size_t i = 0; i < components.size(); ++i) {
    position[components[i]] = i;
  }

  const std::vector<ShardPartial> slices = fleet.partition(components);
  ASSERT_EQ(slices.size(), 4u);
  std::vector<ComponentId> gathered;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(slices[i - 1].shard, slices[i].shard);
    }
    EXPECT_FALSE(slices[i].components.empty());
    for (std::size_t j = 1; j < slices[i].components.size(); ++j) {
      EXPECT_LT(position.at(slices[i].components[j - 1]),
                position.at(slices[i].components[j]))
          << "slice " << slices[i].shard << " lost the caller's order";
    }
    gathered.insert(gathered.end(), slices[i].components.begin(),
                    slices[i].components.end());
  }
  // Disjoint and covering.
  std::sort(gathered.begin(), gathered.end());
  std::vector<ComponentId> expected = components;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(gathered, expected);

  // Unmonitored components go to shard 0.
  ASSERT_EQ(slices.front().shard, 0u);
  for (const ComponentId id : {2, 4, 6}) {
    EXPECT_NE(std::find(slices.front().components.begin(),
                        slices.front().components.end(), id),
              slices.front().components.end());
  }
}

TEST(FleetPartition, TheKthSlaveGoesWholeToShardKModN) {
  const std::vector<ComponentId> ids = range(0, 96);
  const auto slaves = spreadOver(8, ids);
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    FleetConfig config;
    config.shards = shards;
    FleetMaster fleet(config);
    for (const auto& slave : slaves) fleet.addSlave(slave.get());
    for (std::size_t k = 0; k < slaves.size(); ++k) {
      const std::vector<ShardPartial> slices =
          fleet.partition(slaves[k]->components());
      ASSERT_EQ(slices.size(), 1u)
          << "slave " << k << " split at " << shards << " shards";
      EXPECT_EQ(slices[0].shard, k % shards);
      EXPECT_EQ(slices[0].components, slaves[k]->components());
    }
  }
}

TEST(FleetPartition, EachSlaveGetsOneAnalyzeBatchPerLocalization) {
  const std::vector<ComponentId> ids = range(0, 32);
  const auto slaves = spreadOver(2, ids);
  for (const ComponentId id : ids) {
    core::FChainSlave& slave = *slaves[id % 2];
    for (TimeSec t = 0; t < 300; ++t) {
      std::array<double, kMetricCount> sample{};
      sample.fill(10.0 + static_cast<double>((t * 7 + id) % 5));
      slave.ingest(id, sample);
    }
  }
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    FleetConfig config;
    config.shards = shards;
    FleetMaster fleet(config);
    std::vector<std::shared_ptr<CountingEndpoint>> counted;
    for (const auto& slave : slaves) {
      counted.push_back(std::make_shared<CountingEndpoint>(
          std::make_shared<runtime::LocalEndpoint>(slave.get())));
      fleet.registerEndpoint(counted.back(), slave->components());
    }
    constexpr std::size_t kLocalizations = 3;
    for (std::size_t i = 0; i < kLocalizations; ++i) {
      const core::PinpointResult result = fleet.localize(ids, 290);
      EXPECT_TRUE(result.unanalyzed.empty());
    }
    for (std::size_t h = 0; h < counted.size(); ++h) {
      EXPECT_EQ(counted[h]->batches, kLocalizations)
          << "slave " << h << " at " << shards << " shards";
    }
  }
}

TEST(FleetPartition, RefusedRegistrationLeavesNoTrace) {
  core::FChainSlave first(0);
  for (const ComponentId id : range(0, 16)) first.addComponent(id, 0);
  // Claims 15, which `first` already monitors, and 16..31.
  core::FChainSlave clashing(1);
  for (const ComponentId id : range(15, 17)) clashing.addComponent(id, 0);

  FleetConfig config;
  config.shards = 4;
  FleetMaster fleet(config);
  auto endpoint = std::make_shared<runtime::LocalEndpoint>(&first);
  fleet.registerEndpoint(endpoint, first.components());
  EXPECT_THROW(fleet.addSlave(&clashing), std::invalid_argument);
  EXPECT_THROW(fleet.registerEndpoint(endpoint, {}), std::invalid_argument);
  EXPECT_THROW(fleet.registerEndpoint(nullptr, {40}), std::invalid_argument);

  // The refused slave's other components stay unrouted.
  const std::vector<ComponentId> others = range(16, 16);
  EXPECT_EQ(fleet.localize(others, 100).unanalyzed, others);
  const std::vector<ShardPartial> slices = fleet.partition(others);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].shard, 0u);

  // A refused registration takes no shard slot: the next slave is the
  // second registration and lands on shard 1.
  core::FChainSlave second(2);
  for (const ComponentId id : others) second.addComponent(id, 0);
  fleet.addSlave(&second);
  EXPECT_EQ(fleet.partition(others)[0].shard, 1u);
  EXPECT_TRUE(fleet.localize(others, 100).unanalyzed.empty());
}

}  // namespace
}  // namespace fchain::fleet
