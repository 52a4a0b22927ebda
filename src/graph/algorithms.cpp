#include "graph/algorithms.h"

#include <algorithm>

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

}  // namespace unify::graph
