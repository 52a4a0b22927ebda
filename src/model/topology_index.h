// Graph index over an NFFG for path computation.
//
// Mapping algorithms need shortest paths over the BiS-BiS/SAP topology with
// delay weights and residual-bandwidth masking. The index translates the
// string-keyed NFFG into a graph::Digraph once, then offers a delay scan on
// top. Each edge caches a pointer to its Link and its static delay weight
// (link delay + head-node internal delay) so a scan touches no string maps.
//
// Lifetime: the index borrows the Nffg. It stays valid while the topology
// (nodes, links) and the static attributes (link delay, internal delay) are
// unchanged; link *reservations* may change freely — the delay scan reads
// residual bandwidth through the cached Link pointers, which stay valid
// because Nffg stores links in a node-based std::map.
#pragma once

#include <map>
#include <string>

#include "graph/algorithms.h"
#include "graph/graph.h"
#include "model/nffg.h"

namespace unify::model {

struct TopoNode {
  std::string id;
  bool is_sap = false;
  double internal_delay = 0;  ///< BiS-BiS crossing delay; 0 for SAPs
};

struct TopoEdge {
  std::string link_id;
  const Link* link = nullptr;  ///< borrowed from the indexed Nffg
  double delay_weight = 0;     ///< link delay + head-node internal delay
  /// Health bias of the head BiS-BiS (&BisBis::health_penalty, nullptr for
  /// SAP heads). Read live at scan time so the orchestrator's penalty
  /// refresh biases path costs without an index rebuild: links into a
  /// degraded domain rank worse, mirroring the node-side placement bias.
  const double* to_penalty = nullptr;
};

class TopologyIndex {
 public:
  using Graph = graph::Digraph<TopoNode, TopoEdge>;

  explicit TopologyIndex(const Nffg& nffg);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const Nffg& nffg() const noexcept { return *nffg_; }

  /// kInvalidId when the node id is unknown.
  [[nodiscard]] graph::NodeId node_of(const std::string& id) const noexcept;
  [[nodiscard]] const std::string& id_of(graph::NodeId node) const noexcept {
    return graph_.node(node).id;
  }
  [[nodiscard]] const Link& link_of(graph::EdgeId edge) const noexcept {
    return *graph_.edge(edge).data.link;
  }

  /// Devirtualized delay scanner for the path kernel (path_kernel.h):
  /// weighs each link by its delay plus the head node's internal delay
  /// plus the head node's live health penalty (0 when healthy), masking
  /// links whose residual bandwidth < min_bw. A concrete functor so the
  /// kernel inlines the whole edge relaxation.
  struct DelayScan {
    const Graph* graph;
    double min_bw;

    template <typename Visit>
    void operator()(graph::NodeId node, Visit&& visit) const {
      for (const graph::EdgeId e : graph->out_edges(node)) {
        const auto& edge = graph->edge(e);
        if (edge.data.link->residual_bandwidth() < min_bw) continue;
        visit(e, edge.to, edge_weight(edge.data));
      }
    }
  };
  /// Biased scan weight of one edge: static delay weight + live penalty of
  /// the head node. Exposed so overlay scans (mapping::Context) and
  /// reference Dijkstras in tests charge exactly the same cost.
  [[nodiscard]] static double edge_weight(const TopoEdge& edge) noexcept {
    return edge.delay_weight +
           (edge.to_penalty == nullptr ? 0.0 : *edge.to_penalty);
  }
  [[nodiscard]] DelayScan delay_scan(double min_bw) const noexcept {
    return DelayScan{&graph_, min_bw};
  }

 private:
  const Nffg* nffg_;
  Graph graph_;
  std::map<std::string, graph::NodeId> index_;
};

/// Total delay of a path in the index: link delays plus internal delays of
/// transited (non-endpoint) BiS-BiS nodes.
[[nodiscard]] double path_delay(const TopologyIndex& index,
                                const graph::Path& path);

}  // namespace unify::model
