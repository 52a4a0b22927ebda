// Directed multigraph with typed node/edge payloads.
//
// Used for substrate topologies (switch networks, data centers), the NFFG
// resource model and service graphs. Parallel edges are first-class (two
// links between the same pair of BiS-BiS nodes are common), so edges have
// their own ids. Nodes/edges live in contiguous slots; removal tombstones a
// slot, keeping ids stable — important because mappings hold edge ids.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace unify::graph {

/// Index-like ids. kInvalidId marks "no node/edge".
using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr NodeId kInvalidId = static_cast<NodeId>(-1);

template <typename NodeData, typename EdgeData>
class Digraph {
 public:
  struct Edge {
    NodeId from = kInvalidId;
    NodeId to = kInvalidId;
    EdgeData data{};
  };

  Digraph() = default;

  // ------------------------------------------------------------- nodes

  NodeId add_node(NodeData data = {}) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Slot<NodeData>{std::move(data), true});
    out_edges_.emplace_back();
    in_edges_.emplace_back();
    ++node_count_;
    return id;
  }

  /// Removes the node and all incident edges. Id becomes invalid but is
  /// never reused.
  void remove_node(NodeId id) {
    assert(has_node(id));
    // Copy: remove_edge mutates the adjacency vectors.
    const std::vector<EdgeId> out = out_edges_[id];
    for (const EdgeId e : out) remove_edge(e);
    const std::vector<EdgeId> in = in_edges_[id];
    for (const EdgeId e : in) remove_edge(e);
    nodes_[id].alive = false;
    --node_count_;
  }

  [[nodiscard]] bool has_node(NodeId id) const noexcept {
    return id < nodes_.size() && nodes_[id].alive;
  }

  [[nodiscard]] NodeData& node(NodeId id) {
    assert(has_node(id));
    return nodes_[id].data;
  }
  [[nodiscard]] const NodeData& node(NodeId id) const {
    assert(has_node(id));
    return nodes_[id].data;
  }

  /// Number of live nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// Upper bound over all ids ever allocated (for dense arrays indexed by id).
  [[nodiscard]] std::size_t node_capacity() const noexcept {
    return nodes_.size();
  }

  /// Live node ids in ascending order.
  [[nodiscard]] std::vector<NodeId> node_ids() const {
    std::vector<NodeId> out;
    out.reserve(node_count_);
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].alive) out.push_back(id);
    }
    return out;
  }

  // ------------------------------------------------------------- edges

  EdgeId add_edge(NodeId from, NodeId to, EdgeData data = {}) {
    assert(has_node(from) && has_node(to));
    const EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Slot<Edge>{Edge{from, to, std::move(data)}, true});
    out_edges_[from].push_back(id);
    in_edges_[to].push_back(id);
    ++edge_count_;
    return id;
  }

  void remove_edge(EdgeId id) {
    assert(has_edge(id));
    const Edge& e = edges_[id].data;
    erase_value(out_edges_[e.from], id);
    erase_value(in_edges_[e.to], id);
    edges_[id].alive = false;
    --edge_count_;
  }

  [[nodiscard]] bool has_edge(EdgeId id) const noexcept {
    return id < edges_.size() && edges_[id].alive;
  }

  [[nodiscard]] Edge& edge(EdgeId id) {
    assert(has_edge(id));
    return edges_[id].data;
  }
  [[nodiscard]] const Edge& edge(EdgeId id) const {
    assert(has_edge(id));
    return edges_[id].data;
  }

  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] std::vector<EdgeId> edge_ids() const {
    std::vector<EdgeId> out;
    out.reserve(edge_count_);
    for (EdgeId id = 0; id < edges_.size(); ++id) {
      if (edges_[id].alive) out.push_back(id);
    }
    return out;
  }

  /// Outgoing/incoming edge ids of a node.
  [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId id) const {
    assert(has_node(id));
    return out_edges_[id];
  }
  [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId id) const {
    assert(has_node(id));
    return in_edges_[id];
  }

  /// First live edge from -> to, or nullopt.
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId from,
                                                NodeId to) const {
    if (!has_node(from)) return std::nullopt;
    for (const EdgeId e : out_edges_[from]) {
      if (edges_[e].data.to == to) return e;
    }
    return std::nullopt;
  }

 private:
  template <typename T>
  struct Slot {
    T data{};
    bool alive = false;
  };

  static void erase_value(std::vector<EdgeId>& vec, EdgeId value) {
    for (auto it = vec.begin(); it != vec.end(); ++it) {
      if (*it == value) {
        vec.erase(it);
        return;
      }
    }
    assert(false && "edge missing from adjacency list");
  }

  std::vector<Slot<NodeData>> nodes_;
  std::vector<Slot<Edge>> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;
};

}  // namespace unify::graph
