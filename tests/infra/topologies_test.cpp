#include "infra/topologies.h"

#include <gtest/gtest.h>

#include "graph/path_kernel.h"
#include "model/topology_index.h"

namespace unify::infra::topo {
namespace {

bool fully_reachable(const model::Nffg& g) {
  model::TopologyIndex index(g);
  const auto ids = index.graph().node_ids();
  if (ids.empty()) return true;
  graph::PathWorkspace workspace;
  graph::shortest_path_tree(workspace, index.graph().node_capacity(), ids[0],
                            index.delay_scan(0));
  const auto tree = graph::export_shortest_path_tree(
      workspace, index.graph().node_capacity());
  for (const auto id : ids) {
    if (tree.dist[id] == graph::kInf) return false;
  }
  return true;
}

TEST(Line, ShapeAndValidity) {
  const model::Nffg g = line(5);
  EXPECT_EQ(g.bisbis().size(), 5u);
  EXPECT_EQ(g.saps().size(), 2u);
  EXPECT_EQ(g.links().size(), (4u + 2u) * 2);  // 4 inter + 2 sap, both dirs
  EXPECT_TRUE(g.validate().empty());
  EXPECT_TRUE(fully_reachable(g));
}

TEST(Line, SingleNode) {
  const model::Nffg g = line(1);
  EXPECT_EQ(g.bisbis().size(), 1u);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_TRUE(fully_reachable(g));
}

TEST(Ring, ShapeAndValidity) {
  const model::Nffg g = ring(6, 3);
  EXPECT_EQ(g.bisbis().size(), 6u);
  EXPECT_EQ(g.saps().size(), 3u);
  EXPECT_EQ(g.links().size(), (6u + 3u) * 2);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_TRUE(fully_reachable(g));
}

TEST(LeafSpine, ShapeAndValidity) {
  const model::Nffg g = leaf_spine(2, 4, 3);
  EXPECT_EQ(g.bisbis().size(), 6u);
  EXPECT_EQ(g.saps().size(), 3u);
  EXPECT_EQ(g.links().size(), (2u * 4u + 3u) * 2);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_TRUE(fully_reachable(g));
  // Spines advertise no compute.
  EXPECT_TRUE(g.find_bisbis("spine0")->capacity.is_zero());
  EXPECT_FALSE(g.find_bisbis("leaf0")->capacity.is_zero());
}

class RandomTopo : public ::testing::TestWithParam<int> {};

TEST_P(RandomTopo, ConnectedAndValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const model::Nffg g = random_connected(GetParam(), 3.0, 2, rng);
  EXPECT_EQ(g.bisbis().size(), static_cast<std::size_t>(GetParam()));
  EXPECT_EQ(g.saps().size(), 2u);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_TRUE(fully_reachable(g));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTopo,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(RandomTopo, DeterministicPerSeed) {
  Rng rng1(99), rng2(99);
  const model::Nffg a = random_connected(12, 2.5, 2, rng1);
  const model::Nffg b = random_connected(12, 2.5, 2, rng2);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace unify::infra::topo
