#include "model/topology_index.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "graph/path_kernel.h"
#include "model/nffg_builder.h"

namespace unify::model {
namespace {

/// sap1 - bb1 - bb2 - sap2, plus a slower direct detour bb1-bb3-bb2.
Nffg chain_graph() {
  Nffg g{"g"};
  EXPECT_TRUE(
      g.add_bisbis(make_bisbis("bb1", {8, 1024, 10}, 4, 0.1)).ok());
  EXPECT_TRUE(
      g.add_bisbis(make_bisbis("bb2", {8, 1024, 10}, 4, 0.1)).ok());
  EXPECT_TRUE(
      g.add_bisbis(make_bisbis("bb3", {8, 1024, 10}, 4, 0.5)).ok());
  connect(g, "bb1", 1, "bb2", 1, {1000, 1.0});
  connect(g, "bb1", 2, "bb3", 1, {1000, 1.0});
  connect(g, "bb3", 2, "bb2", 2, {1000, 1.0});
  attach_sap(g, "sap1", "bb1", 0, {1000, 0.1});
  attach_sap(g, "sap2", "bb2", 0, {1000, 0.1});
  return g;
}

/// Delay-weighted shortest path between two named nodes.
std::optional<graph::Path> delay_path(const TopologyIndex& index,
                                      const std::string& from,
                                      const std::string& to, double min_bw) {
  graph::PathWorkspace ws;
  return graph::shortest_path(ws, index.graph().node_capacity(),
                              index.node_of(from), index.node_of(to),
                              index.delay_scan(min_bw));
}

TEST(TopologyIndex, IndexesAllNodes) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  EXPECT_EQ(index.graph().node_count(), 5u);   // 3 BiS-BiS + 2 SAPs
  EXPECT_EQ(index.graph().edge_count(), 10u);  // 5 bidirectional pairs
  EXPECT_NE(index.node_of("bb1"), graph::kInvalidId);
  EXPECT_NE(index.node_of("sap1"), graph::kInvalidId);
  EXPECT_EQ(index.node_of("ghost"), graph::kInvalidId);
  EXPECT_EQ(index.id_of(index.node_of("bb2")), "bb2");
}

TEST(TopologyIndex, SapFlagSet) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  EXPECT_TRUE(index.graph().node(index.node_of("sap1")).is_sap);
  EXPECT_FALSE(index.graph().node(index.node_of("bb1")).is_sap);
}

TEST(TopologyIndex, ShortestPathByDelayPrefersDirect) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  auto path = delay_path(index, "sap1", "sap2", 0);
  ASSERT_TRUE(path.has_value());
  // sap1 -> bb1 -> bb2 -> sap2 (direct, cheapest).
  ASSERT_EQ(path->nodes.size(), 4u);
  EXPECT_EQ(index.id_of(path->nodes[1]), "bb1");
  EXPECT_EQ(index.id_of(path->nodes[2]), "bb2");
}

TEST(TopologyIndex, BandwidthMaskingForcesDetour) {
  Nffg g = chain_graph();
  // Exhaust the direct bb1->bb2 link.
  g.find_link("l-bb1-bb2")->reserved = 1000;
  TopologyIndex index(g);
  auto path = delay_path(index, "sap1", "sap2", 100);
  ASSERT_TRUE(path.has_value());
  // Must detour through bb3 now.
  ASSERT_EQ(path->nodes.size(), 5u);
  EXPECT_EQ(index.id_of(path->nodes[2]), "bb3");
}

TEST(TopologyIndex, ReservationChangesVisibleWithoutReindex) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  auto before = delay_path(index, "sap1", "sap2", 500);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->nodes.size(), 4u);
  // Reserve after the index was built; the scan reads live state.
  g.find_link("l-bb1-bb2")->reserved = 600;
  auto after = delay_path(index, "sap1", "sap2", 500);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->nodes.size(), 5u);  // detour
}

TEST(TopologyIndex, PathDelayAddsInternalDelays) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  auto path = delay_path(index, "sap1", "sap2", 0);
  ASSERT_TRUE(path.has_value());
  // Links: 0.1 + 1.0 + 0.1 = 1.2; transit nodes bb1, bb2: +0.2.
  EXPECT_NEAR(path_delay(index, *path), 1.4, 1e-9);
}

TEST(TopologyIndex, DelayScanChargesInternalDelayInCost) {
  Nffg g = chain_graph();
  TopologyIndex index(g);
  // Force the detour and check it ranks above direct due to bb3 internal
  // delay: direct cost = 0.1+0.1(bb1) +1.0+0.1(bb2) +0.1 = 1.4; detour cost
  // = 0.1+0.1 +1.0+0.5(bb3) +1.0+0.1(bb2) +0.1 = 2.9.
  graph::PathWorkspace ws;
  const auto sap1 = index.node_of("sap1");
  const auto sap2 = index.node_of("sap2");
  const auto direct = graph::shortest_path(ws, index.graph().node_capacity(),
                                           sap1, sap2, index.delay_scan(0));
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(direct->cost, 1.4, 1e-9);
  // Ban the bb1 -> bb2 hop so the search must take the bb3 detour.
  const auto bb1 = index.node_of("bb1");
  const auto bb2 = index.node_of("bb2");
  const auto scan = index.delay_scan(0);
  const auto detour = graph::shortest_path(
      ws, index.graph().node_capacity(), sap1, sap2,
      [&](graph::NodeId node, auto&& visit) {
        scan(node, [&](graph::EdgeId e, graph::NodeId to, double w) {
          if (node == bb1 && to == bb2) return;
          visit(e, to, w);
        });
      });
  ASSERT_TRUE(detour.has_value());
  EXPECT_NEAR(detour->cost, 2.9, 1e-9);
}

}  // namespace
}  // namespace unify::model
