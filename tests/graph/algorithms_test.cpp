#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/path_kernel.h"
#include "util/rng.h"

namespace unify::graph {
namespace {

struct None {};
struct W {
  double w = 1;
};
using G = Digraph<None, W>;

EdgeScanFn weight_scan(const G& g) {
  return scan_digraph(g, [](EdgeId, const G::Edge& e) { return e.data.w; });
}

// One-off kernel queries, each on a fresh workspace.
std::optional<Path> shortest(const G& g, NodeId source, NodeId target) {
  PathWorkspace ws;
  return shortest_path(ws, g.node_capacity(), source, target, weight_scan(g));
}

ShortestPathTree tree_from(const G& g, NodeId source) {
  PathWorkspace ws;
  shortest_path_tree(ws, g.node_capacity(), source, weight_scan(g));
  return export_shortest_path_tree(ws, g.node_capacity());
}

// Small diamond: 0 -> 1 -> 3 (cost 1+1), 0 -> 2 -> 3 (cost 2+2).
G diamond() {
  G g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(0, 1, {1});
  g.add_edge(1, 3, {1});
  g.add_edge(0, 2, {2});
  g.add_edge(2, 3, {2});
  return g;
}

TEST(ShortestPath, PicksCheaperBranch) {
  G g = diamond();
  auto p = shortest(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cost, 2.0);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(p->hop_count(), 2u);
}

TEST(ShortestPath, SourceEqualsTarget) {
  G g = diamond();
  auto p = shortest(g, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cost, 0.0);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{2}));
  EXPECT_TRUE(p->edges.empty());
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  G g;
  g.add_node();
  g.add_node();
  EXPECT_FALSE(shortest(g, 0, 1));
}

TEST(ShortestPath, NegativeWeightMasksEdge) {
  G g;
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, {-1});  // masked: e.g. no residual bandwidth
  EXPECT_FALSE(shortest(g, 0, 1));
}

TEST(ShortestPath, PrefersParallelEdgeWithLowerWeight) {
  G g;
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, {7});
  const auto cheap = g.add_edge(0, 1, {3});
  auto p = shortest(g, 0, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cost, 3.0);
  ASSERT_EQ(p->edges.size(), 1u);
  EXPECT_EQ(p->edges[0], cheap);
}

TEST(ShortestPath, ZeroWeightEdgesUsable) {
  G g;
  for (int i = 0; i < 3; ++i) g.add_node();
  g.add_edge(0, 1, {0});
  g.add_edge(1, 2, {0});
  auto p = shortest(g, 0, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cost, 0.0);
  EXPECT_EQ(p->hop_count(), 2u);
}

TEST(ShortestPathTree, DistancesAndReconstruction) {
  G g = diamond();
  auto tree = tree_from(g, 0);
  EXPECT_EQ(tree.dist[0], 0.0);
  EXPECT_EQ(tree.dist[1], 1.0);
  EXPECT_EQ(tree.dist[2], 2.0);
  EXPECT_EQ(tree.dist[3], 2.0);
  auto p = tree.path_to(0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(ShortestPathTree, UnreachableIsInf) {
  G g;
  g.add_node();
  g.add_node();
  auto tree = tree_from(g, 0);
  EXPECT_EQ(tree.dist[1], kInf);
  EXPECT_FALSE(tree.path_to(0, 1).has_value());
}

// Property sweep: on a ring of n nodes with unit weights, the distance from
// 0 to m is min(m, n-m) when edges go both directions.
class RingShortest : public ::testing::TestWithParam<int> {};

TEST_P(RingShortest, DistanceMatchesFormula) {
  const int n = GetParam();
  G g;
  for (int i = 0; i < n; ++i) g.add_node();
  for (int i = 0; i < n; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), {1});
    g.add_edge(static_cast<NodeId>((i + 1) % n), static_cast<NodeId>(i), {1});
  }
  auto tree = tree_from(g, 0);
  for (int m = 0; m < n; ++m) {
    EXPECT_EQ(tree.dist[m], std::min(m, n - m)) << "n=" << n << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingShortest,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 32));

// --- workspace reuse: one PathWorkspace across queries.

TEST(PathKernel, TreeExportMatchesEarlyExitSearch) {
  // The exported tree and the early-exit search must agree on every
  // target, even when both run on one warm workspace.
  G g = diamond();
  PathWorkspace ws;
  shortest_path_tree(ws, g.node_capacity(), 0, weight_scan(g));
  const ShortestPathTree tree =
      export_shortest_path_tree(ws, g.node_capacity());
  for (NodeId target = 0; target < g.node_capacity(); ++target) {
    const auto direct =
        shortest_path(ws, g.node_capacity(), 0, target, weight_scan(g));
    const auto from_tree = tree.path_to(0, target);
    ASSERT_EQ(direct.has_value(), from_tree.has_value()) << target;
    if (!direct) continue;
    EXPECT_EQ(direct->cost, from_tree->cost) << target;
    EXPECT_EQ(*direct, *from_tree) << target;
  }
  auto p = tree.path_to(0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(PathKernel, TreeExportMatchesEarlyExitSearchOnTiedRandomGraphs) {
  // The mapping Context answers every point-to-point query from one
  // exported tree per source, so the tree path must equal the early-exit
  // path for every (source, target) pair — also where equal-cost paths
  // tie. Small integer weights (zeros included), parallel edges and
  // masked (negative-weight) edges make ties and alternatives common.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    G g;
    const auto n = static_cast<NodeId>(rng.next_int(4, 18));
    for (NodeId i = 0; i < n; ++i) g.add_node();
    const int edges = static_cast<int>(rng.next_int(n, 4 * n));
    for (int i = 0; i < edges; ++i) {
      const auto a = static_cast<NodeId>(rng.next_below(n));
      const auto b = static_cast<NodeId>(rng.next_below(n));
      const double w =
          rng.next_bool(0.1) ? -1.0 : static_cast<double>(rng.next_below(3));
      g.add_edge(a, b, {w});
    }
    PathWorkspace ws;
    for (NodeId source = 0; source < n; ++source) {
      shortest_path_tree(ws, g.node_capacity(), source, weight_scan(g));
      const ShortestPathTree tree =
          export_shortest_path_tree(ws, g.node_capacity());
      for (NodeId target = 0; target < n; ++target) {
        const auto direct = shortest_path(ws, g.node_capacity(), source,
                                          target, weight_scan(g));
        const auto from_tree = tree.path_to(source, target);
        ASSERT_EQ(direct.has_value(), from_tree.has_value())
            << source << "->" << target;
        if (!direct) continue;
        EXPECT_EQ(direct->cost, from_tree->cost) << source << "->" << target;
        EXPECT_EQ(direct->nodes, from_tree->nodes)
            << source << "->" << target;
        EXPECT_EQ(direct->edges, from_tree->edges)
            << source << "->" << target;
      }
    }
  }
}

TEST(PathKernel, TreeExportMarksUnreachableFromStaleEpochs) {
  // Warm the workspace with a run from 0 (everything reachable), then run
  // from 3 (nothing reachable): stale stamps from the first run must not
  // leak into the export.
  G g = diamond();
  PathWorkspace ws;
  shortest_path_tree(ws, g.node_capacity(), 0, weight_scan(g));
  shortest_path_tree(ws, g.node_capacity(), 3, weight_scan(g));
  const ShortestPathTree tree =
      export_shortest_path_tree(ws, g.node_capacity());
  EXPECT_EQ(tree.dist[3], 0.0);
  for (NodeId v : {NodeId{0}, NodeId{1}, NodeId{2}}) {
    EXPECT_EQ(tree.dist[v], kInf) << "node " << v;
    EXPECT_EQ(tree.parent_edge[v], kInvalidId) << "node " << v;
  }
}

TEST(PathKernel, WorkspaceGrowsToLargestCapacity) {
  PathWorkspace ws;
  G small = diamond();
  shortest_path_tree(ws, small.node_capacity(), 0, weight_scan(small));
  EXPECT_EQ(ws.capacity(), small.node_capacity());

  G big;
  for (int i = 0; i < 40; ++i) big.add_node();
  for (int i = 0; i + 1 < 40; ++i) {
    big.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), {1});
  }
  shortest_path_tree(ws, big.node_capacity(), 0, weight_scan(big));
  EXPECT_EQ(ws.capacity(), big.node_capacity());
  const ShortestPathTree tree =
      export_shortest_path_tree(ws, big.node_capacity());
  EXPECT_EQ(tree.dist[39], 39.0);

  // Shrinking back to the small graph keeps the larger arrays but must
  // still bound results by the query's node_capacity.
  shortest_path_tree(ws, small.node_capacity(), 0, weight_scan(small));
  EXPECT_EQ(ws.capacity(), big.node_capacity());
  const ShortestPathTree again =
      export_shortest_path_tree(ws, small.node_capacity());
  EXPECT_EQ(again.dist.size(), small.node_capacity());
  EXPECT_EQ(again.dist[3], 2.0);
}

}  // namespace
}  // namespace unify::graph
