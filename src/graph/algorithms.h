// Path types over Digraph-shaped data: Path, the dense ShortestPathTree a
// one-to-all search exports, and the EdgeScanFn adapter.
//
// The searches (shortest_path, shortest_path_tree) live in path_kernel.h
// as templates over a scan functor, run on a caller-owned PathWorkspace;
// a scan reports (edge id, head node, weight) per out-edge, so callers
// weight edges by delay, by hop count or by residual-aware cost without
// copying the graph. An edge reported with a negative weight is unusable
// (filtered out), which is how mappers mask links without residual
// bandwidth. EdgeScanFn is the type-erased scan, for callers that do not
// need the kernel's inlined functors.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace unify::graph {

/// Callback receiving (edge id, head node, weight) for each out-edge.
using EdgeVisitFn = std::function<void(EdgeId, NodeId, double)>;

/// Adapter: invoke the visitor for every out-edge of `node`.
using EdgeScanFn = std::function<void(NodeId node, const EdgeVisitFn&)>;

/// A path: total cost, node sequence (front()==source, back()==target) and
/// the edge ids between consecutive nodes (edges.size()+1 == nodes.size()).
struct Path {
  double cost = 0;
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  [[nodiscard]] std::size_t hop_count() const noexcept {
    return edges.size();
  }
  friend bool operator==(const Path& a, const Path& b) {
    return a.edges == b.edges && a.nodes == b.nodes;
  }
};

/// Convenience adapter for a Digraph with a per-edge weight functor.
/// `weight(edge_id, edge)` returning < 0 masks the edge.
template <typename NodeData, typename EdgeData, typename WeightFn>
EdgeScanFn scan_digraph(const Digraph<NodeData, EdgeData>& g,
                        WeightFn weight) {
  return [&g, weight](NodeId node, const EdgeVisitFn& visit) {
    for (const EdgeId e : g.out_edges(node)) {
      const auto& edge = g.edge(e);
      visit(e, edge.to, weight(e, edge));
    }
  };
}

/// Dense single-source shortest-path tree (export_shortest_path_tree in
/// path_kernel.h); dist[target] is +inf when unreachable.
struct ShortestPathTree {
  std::vector<double> dist;        // indexed by node id
  std::vector<EdgeId> parent_edge; // kInvalidId at source / unreachable
  std::vector<NodeId> parent_node; // kInvalidId at source / unreachable

  /// Reconstructs the path to `target`; nullopt when unreachable.
  [[nodiscard]] std::optional<Path> path_to(NodeId source,
                                            NodeId target) const;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace unify::graph
