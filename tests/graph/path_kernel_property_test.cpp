// Property pin for the kernel searches: on random topologies under
// random route/unroute churn (links get bandwidth reserved and released,
// masking and unmasking edges for a given floor), the allocation-free
// kernel versions of shortest_path_tree and the early-exit shortest_path
// must return exactly what the legacy EdgeScanFn engine returned — same
// costs, same node/edge sequences, same parents.
//
// The reference implementations below are verbatim ports of the
// pre-kernel MinQueue engine (algorithms.cpp before the port), kept here
// as the independent oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "graph/graph.h"
#include "graph/path_kernel.h"
#include "util/rng.h"

namespace unify::graph {
namespace {

struct None {};
struct LinkState {
  double delay = 1;
  double capacity = 100;
  double reserved = 0;
};
using G = Digraph<None, LinkState>;

// ---------------------------------------------------------------------------
// Legacy EdgeScanFn engine (reference oracle, pre-kernel implementation).

struct QueueItem {
  double dist;
  NodeId node;
  friend bool operator>(const QueueItem& a, const QueueItem& b) noexcept {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.node > b.node;  // deterministic tie-break
  }
};
using MinQueue =
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

ShortestPathTree legacy_tree(std::size_t node_capacity, NodeId source,
                             const EdgeScanFn& scan) {
  ShortestPathTree tree;
  tree.dist.assign(node_capacity, kInf);
  tree.parent_edge.assign(node_capacity, kInvalidId);
  tree.parent_node.assign(node_capacity, kInvalidId);
  if (source >= node_capacity) return tree;

  std::vector<bool> done(node_capacity, false);
  tree.dist[source] = 0;
  MinQueue queue;
  queue.push({0, source});
  while (!queue.empty()) {
    const auto [dist, node] = queue.top();
    queue.pop();
    if (done[node]) continue;
    done[node] = true;
    scan(node, [&](EdgeId edge, NodeId to, double weight) {
      if (weight < 0 || to >= node_capacity || done[to]) return;
      const double candidate = dist + weight;
      if (candidate < tree.dist[to]) {
        tree.dist[to] = candidate;
        tree.parent_edge[to] = edge;
        tree.parent_node[to] = node;
        queue.push({candidate, to});
      }
    });
  }
  return tree;
}

std::optional<Path> legacy_shortest_path(std::size_t node_capacity,
                                         NodeId source, NodeId target,
                                         const EdgeScanFn& scan) {
  const ShortestPathTree tree = legacy_tree(node_capacity, source, scan);
  if (target >= node_capacity) return std::nullopt;
  return tree.path_to(source, target);
}

// ---------------------------------------------------------------------------

/// Residual-aware scan, the shape the mapping layer uses: an edge is
/// usable iff its residual bandwidth covers `floor`, otherwise it is
/// masked with a negative weight.
EdgeScanFn residual_scan(const G& g, double floor) {
  return [&g, floor](NodeId node, const EdgeVisitFn& visit) {
    for (const EdgeId e : g.out_edges(node)) {
      const auto& edge = g.edge(e);
      const double residual = edge.data.capacity - edge.data.reserved;
      visit(e, edge.to, residual >= floor ? edge.data.delay : -1.0);
    }
  };
}

G random_graph(Rng& rng, int nodes, int edges) {
  G g;
  for (int i = 0; i < nodes; ++i) g.add_node();
  for (int i = 0; i < edges; ++i) {
    const auto a = static_cast<NodeId>(rng.next_below(nodes));
    const auto b = static_cast<NodeId>(rng.next_below(nodes));
    if (a == b) continue;
    LinkState link;
    link.delay = rng.next_double(0.5, 10.0);
    link.capacity = static_cast<double>(rng.next_int(20, 100));
    g.add_edge(a, b, link);
  }
  return g;
}

void expect_same_path(const Path& kernel, const Path& legacy,
                      const std::string& what) {
  EXPECT_DOUBLE_EQ(kernel.cost, legacy.cost) << what;
  EXPECT_EQ(kernel.nodes, legacy.nodes) << what;
  EXPECT_EQ(kernel.edges, legacy.edges) << what;
}

class KernelPinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelPinProperty, TreeAndYenMatchLegacyUnderChurn) {
  Rng rng(GetParam());
  const int nodes = static_cast<int>(rng.next_int(6, 24));
  const int edges = nodes * static_cast<int>(rng.next_int(2, 4));
  G g = random_graph(rng, nodes, edges);
  if (g.edge_count() == 0) GTEST_SKIP() << "degenerate random draw";

  std::vector<EdgeId> edge_ids;
  for (NodeId n = 0; n < g.node_capacity(); ++n) {
    for (const EdgeId e : g.out_edges(n)) edge_ids.push_back(e);
  }

  PathWorkspace workspace;  // shared across rounds: must stay correct warm
  for (int round = 0; round < 30; ++round) {
    // Route/unroute churn: reserve or release bandwidth on random links,
    // which masks/unmasks them for queries with a high enough floor.
    const EdgeId touched = edge_ids[rng.next_below(edge_ids.size())];
    LinkState& link = g.edge(touched).data;
    if (rng.next_bool(0.6)) {
      link.reserved = std::min(link.capacity,
                               link.reserved + rng.next_double(5, 40));
    } else {
      link.reserved = std::max(0.0, link.reserved - rng.next_double(5, 40));
    }

    const double floor = rng.next_double(0, 60);
    const EdgeScanFn scan = residual_scan(g, floor);
    const auto source = static_cast<NodeId>(rng.next_below(nodes));
    const auto target = static_cast<NodeId>(rng.next_below(nodes));

    // --- shortest_path_tree: kernel vs legacy engine.
    shortest_path_tree(workspace, g.node_capacity(), source, scan);
    const ShortestPathTree kernel_tree =
        export_shortest_path_tree(workspace, g.node_capacity());
    const ShortestPathTree reference =
        legacy_tree(g.node_capacity(), source, scan);
    ASSERT_EQ(kernel_tree.dist, reference.dist) << "round " << round;
    ASSERT_EQ(kernel_tree.parent_edge, reference.parent_edge)
        << "round " << round;
    ASSERT_EQ(kernel_tree.parent_node, reference.parent_node)
        << "round " << round;

    // --- early-exit shortest_path: kernel vs legacy engine, on the
    // workspace the tree search just used.
    const auto kernel_path =
        shortest_path(workspace, g.node_capacity(), source, target, scan);
    const auto legacy_path =
        legacy_shortest_path(g.node_capacity(), source, target, scan);
    ASSERT_EQ(kernel_path.has_value(), legacy_path.has_value())
        << "round " << round << " src=" << source << " dst=" << target;
    if (kernel_path.has_value()) {
      expect_same_path(*kernel_path, *legacy_path,
                       "round " + std::to_string(round));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPinProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 4242u,
                                           0xBADC0DEu));

}  // namespace
}  // namespace unify::graph
