// Allocation-free shortest-path kernel: the single-source tree the mapping
// Context caches per (source, bandwidth floor) and the virtualizer
// measures SAP-to-SAP transit delays with, and the early-exit
// point-to-point search that returns the same path to one target (the
// reference the Context's tree cache is tested against).
//
// Both are templates over the scan functor (fully inlinable, no virtual
// dispatch when the caller passes a concrete functor such as
// TopologyIndex::DelayScan) driving a PathWorkspace whose arrays are sized
// once per substrate and logically reset by bumping an epoch counter
// instead of refilling. Both run the same Dijkstra loop, which breaks
// (dist, node) ties one deterministic way and masks negative-weight edges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/algorithms.h"

namespace unify::graph {

/// Reusable scratch space for shortest-path runs. Arrays grow to the
/// largest node capacity seen and are never shrunk; per-run reset costs
/// O(1) (an epoch bump) instead of O(nodes). Not thread-safe: use one
/// workspace per thread (mapping Contexts own one each).
class PathWorkspace {
 public:
  /// Per-node search state, valid only while the matching epoch stamp is
  /// current.
  struct NodeState {
    double dist = 0;
    EdgeId parent_edge = kInvalidId;
    NodeId parent_node = kInvalidId;
    std::uint64_t seen = 0;  ///< dist/parents valid iff == epoch
    std::uint64_t done = 0;  ///< node settled iff == epoch
  };

  struct HeapItem {
    double dist;
    NodeId node;
  };

  /// Starts a new search over `node_capacity` node ids.
  void begin(std::size_t node_capacity) {
    if (nodes_.size() < node_capacity) nodes_.resize(node_capacity);
    ++epoch_;
    heap_.clear();
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }

  std::vector<NodeState> nodes_;
  std::vector<HeapItem> heap_;

 private:
  std::uint64_t epoch_ = 0;
};

namespace detail {

/// Heap comparator reproducing the MinQueue ordering of algorithms.cpp:
/// the heap's "largest" element (the one std::pop_heap extracts) is the
/// item with the smallest (dist, node) pair.
struct HeapAfter {
  bool operator()(const PathWorkspace::HeapItem& a,
                  const PathWorkspace::HeapItem& b) const noexcept {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.node > b.node;
  }
};

/// Dijkstra from `source` (< node_capacity) into the workspace, stopping
/// once `target` is settled; kInvalidId never settles, so it runs the
/// full single-source search.
template <typename ScanFn>
void run_dijkstra(PathWorkspace& ws, std::size_t node_capacity,
                  NodeId source, NodeId target, ScanFn& scan) {
  const std::uint64_t epoch = ws.epoch();
  auto& nodes = ws.nodes_;
  auto& heap = ws.heap_;

  nodes[source].dist = 0;
  nodes[source].parent_edge = kInvalidId;
  nodes[source].parent_node = kInvalidId;
  nodes[source].seen = epoch;
  heap.push_back({0, source});

  const HeapAfter after;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const auto [d, node] = heap.back();
    heap.pop_back();
    if (nodes[node].done == epoch) continue;
    nodes[node].done = epoch;
    if (node == target) break;
    scan(node, [&](EdgeId edge, NodeId to, double weight) {
      if (weight < 0 || to >= node_capacity) return;
      PathWorkspace::NodeState& state = nodes[to];
      if (state.done == epoch) return;
      const double candidate = d + weight;
      if (state.seen != epoch || candidate < state.dist) {
        state.dist = candidate;
        state.parent_edge = edge;
        state.parent_node = node;
        state.seen = epoch;
        heap.push_back({candidate, to});
        std::push_heap(heap.begin(), heap.end(), after);
      }
    });
  }
}

}  // namespace detail

/// Early-exit Dijkstra from `source` to `target` over `scan`, which must be
/// callable as scan(NodeId, visit) with visit(EdgeId, NodeId to, double
/// weight); negative weights mask edges. Returns nullopt when unreachable.
template <typename ScanFn>
[[nodiscard]] std::optional<Path> shortest_path(PathWorkspace& ws,
                                                std::size_t node_capacity,
                                                NodeId source, NodeId target,
                                                ScanFn&& scan) {
  if (source >= node_capacity || target >= node_capacity) return std::nullopt;
  ws.begin(node_capacity);
  detail::run_dijkstra(ws, node_capacity, source, target, scan);

  const auto& nodes = ws.nodes_;
  if (nodes[target].seen != ws.epoch()) return std::nullopt;
  Path path;
  path.cost = nodes[target].dist;
  NodeId cur = target;
  while (cur != source) {
    path.nodes.push_back(cur);
    path.edges.push_back(nodes[cur].parent_edge);
    cur = nodes[cur].parent_node;
  }
  path.nodes.push_back(source);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

/// Single-source Dijkstra (no early exit) into the workspace: after the
/// call, ws.nodes_[v] holds dist/parents for every reachable v (stamped
/// with the current epoch; unstamped nodes are unreachable). Use
/// export_shortest_path_tree() to materialize the dense ShortestPathTree,
/// or read the workspace directly on hot paths.
template <typename ScanFn>
void shortest_path_tree(PathWorkspace& ws, std::size_t node_capacity,
                        NodeId source, ScanFn&& scan) {
  ws.begin(node_capacity);
  if (source >= node_capacity) return;
  detail::run_dijkstra(ws, node_capacity, source, kInvalidId, scan);
}

/// Copies the current-epoch search state of `ws` (filled by
/// shortest_path_tree above) into the dense ShortestPathTree.
[[nodiscard]] inline ShortestPathTree export_shortest_path_tree(
    const PathWorkspace& ws, std::size_t node_capacity) {
  ShortestPathTree tree;
  tree.dist.assign(node_capacity, kInf);
  tree.parent_edge.assign(node_capacity, kInvalidId);
  tree.parent_node.assign(node_capacity, kInvalidId);
  const std::uint64_t epoch = ws.epoch();
  for (std::size_t v = 0; v < node_capacity && v < ws.nodes_.size(); ++v) {
    const PathWorkspace::NodeState& state = ws.nodes_[v];
    if (state.seen != epoch) continue;
    tree.dist[v] = state.dist;
    tree.parent_edge[v] = state.parent_edge;
    tree.parent_node[v] = state.parent_node;
  }
  return tree;
}

}  // namespace unify::graph
