// Property pin for the kernel-ported tree/Yen algorithms: on random
// topologies under random route/unroute churn (links get bandwidth
// reserved and released, masking and unmasking edges for a given floor),
// the allocation-free kernel versions of shortest_path_tree and
// k_shortest_paths must return exactly what the legacy EdgeScanFn engine
// returned — same costs, same node/edge sequences, same parents.
//
// The reference implementations below are verbatim ports of the
// pre-kernel MinQueue engine (algorithms.cpp before the port), kept here
// as the independent oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

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

std::vector<Path> legacy_k_shortest(std::size_t node_capacity, NodeId source,
                                    NodeId target, std::size_t k,
                                    const EdgeScanFn& scan) {
  std::vector<Path> result;
  if (k == 0) return result;

  auto masked_scan = [&](const std::vector<bool>& banned_nodes,
                         const std::set<EdgeId>& banned_edges) {
    return [&, banned_nodes, banned_edges](NodeId node,
                                           const EdgeVisitFn& visit) {
      scan(node, [&](EdgeId edge, NodeId to, double weight) {
        if (banned_edges.count(edge) != 0) return;
        if (to < banned_nodes.size() && banned_nodes[to]) return;
        visit(edge, to, weight);
      });
    };
  };

  auto first = legacy_shortest_path(node_capacity, source, target, scan);
  if (!first) return result;
  result.push_back(std::move(*first));

  auto cmp = [](const Path& a, const Path& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.edges < b.edges;
  };
  std::vector<Path> candidates;

  while (result.size() < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const NodeId spur_node = prev.nodes[i];
      std::set<EdgeId> banned_edges;
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(p.nodes.begin(),
                       p.nodes.begin() + static_cast<long>(i) + 1,
                       prev.nodes.begin())) {
          if (i < p.edges.size()) banned_edges.insert(p.edges[i]);
        }
      }
      std::vector<bool> banned_nodes(node_capacity, false);
      for (std::size_t j = 0; j < i; ++j) banned_nodes[prev.nodes[j]] = true;

      auto spur = legacy_shortest_path(node_capacity, spur_node, target,
                                       masked_scan(banned_nodes, banned_edges));
      if (!spur) continue;

      Path total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<long>(i));
      total.edges.assign(prev.edges.begin(),
                         prev.edges.begin() + static_cast<long>(i));
      total.nodes.insert(total.nodes.end(), spur->nodes.begin(),
                         spur->nodes.end());
      total.edges.insert(total.edges.end(), spur->edges.begin(),
                         spur->edges.end());
      double root_cost = 0;
      for (std::size_t j = 0; j < i; ++j) {
        const EdgeId want = prev.edges[j];
        double w = 0;
        scan(prev.nodes[j], [&](EdgeId edge, NodeId, double weight) {
          if (edge == want) w = weight;
        });
        root_cost += w;
      }
      total.cost = root_cost + spur->cost;

      if (std::find(result.begin(), result.end(), total) == result.end() &&
          std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end()) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(), cmp);
    result.push_back(std::move(*best));
    candidates.erase(best);
  }
  return result;
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

    // --- k_shortest_paths: kernel vs legacy engine.
    const std::size_t k = 1 + rng.next_below(5);
    const std::vector<Path> kernel_paths = k_shortest_paths(
        workspace, g.node_capacity(), source, target, k, scan);
    const std::vector<Path> legacy_paths =
        legacy_k_shortest(g.node_capacity(), source, target, k, scan);
    ASSERT_EQ(kernel_paths.size(), legacy_paths.size())
        << "round " << round << " src=" << source << " dst=" << target
        << " k=" << k;
    for (std::size_t i = 0; i < kernel_paths.size(); ++i) {
      expect_same_path(kernel_paths[i], legacy_paths[i],
                       "round " + std::to_string(round) + " path " +
                           std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPinProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 4242u,
                                           0xBADC0DEu));

}  // namespace
}  // namespace unify::graph
