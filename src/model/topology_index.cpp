#include "model/topology_index.h"

namespace unify::model {

TopologyIndex::TopologyIndex(const Nffg& nffg) : nffg_(&nffg) {
  for (const auto& [id, bb] : nffg.bisbis()) {
    index_.emplace(id,
                   graph_.add_node(TopoNode{id, false, bb.internal_delay}));
  }
  for (const auto& [id, sap] : nffg.saps()) {
    index_.emplace(id, graph_.add_node(TopoNode{id, true, 0}));
  }
  for (const auto& [id, link] : nffg.links()) {
    const auto from = index_.find(link.from.node);
    const auto to = index_.find(link.to.node);
    if (from == index_.end() || to == index_.end()) continue;  // dangling
    // Weight charges the internal switching delay of the node the edge
    // arrives at (0 for SAPs); endpoint asymmetry is negligible for
    // ranking paths. The head's health penalty is kept as a live pointer
    // (stable: Nffg stores nodes in a node-based std::map) so scans bias
    // against degraded domains without an index rebuild.
    const double weight =
        link.attrs.delay + graph_.node(to->second).internal_delay;
    const BisBis* head = nffg.find_bisbis(link.to.node);
    graph_.add_edge(
        from->second, to->second,
        TopoEdge{id, &link, weight,
                 head == nullptr ? nullptr : &head->health_penalty});
  }
}

graph::NodeId TopologyIndex::node_of(const std::string& id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? graph::kInvalidId : it->second;
}

double path_delay(const TopologyIndex& index, const graph::Path& path) {
  double total = 0;
  for (const graph::EdgeId e : path.edges) {
    total += index.link_of(e).attrs.delay;
  }
  // Internal delay of transited BiS-BiS nodes (exclude both endpoints).
  for (std::size_t i = 1; i + 1 < path.nodes.size(); ++i) {
    total += index.graph().node(path.nodes[i]).internal_delay;
  }
  return total;
}

}  // namespace unify::model
