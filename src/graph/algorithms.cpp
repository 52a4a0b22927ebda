#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

namespace unify::graph {

std::optional<Path> ShortestPathTree::path_to(NodeId source,
                                              NodeId target) const {
  if (target >= dist.size() || dist[target] == kInf) return std::nullopt;
  Path path;
  path.cost = dist[target];
  NodeId cur = target;
  while (cur != source) {
    path.nodes.push_back(cur);
    path.edges.push_back(parent_edge[cur]);
    cur = parent_node[cur];
  }
  path.nodes.push_back(source);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

std::vector<bool> reachable_from(std::size_t node_capacity, NodeId source,
                                 const EdgeScanFn& scan) {
  std::vector<bool> seen(node_capacity, false);
  if (source >= node_capacity) return seen;
  std::queue<NodeId> frontier;
  seen[source] = true;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop();
    scan(node, [&](EdgeId, NodeId to, double weight) {
      if (weight < 0 || to >= node_capacity || seen[to]) return;
      seen[to] = true;
      frontier.push(to);
    });
  }
  return seen;
}

}  // namespace unify::graph
