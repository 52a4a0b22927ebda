#include "mapping/context.h"

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "util/log.h"

namespace unify::mapping {

Context::Context(const sg::ServiceGraph& sg, const SubstrateView& substrate,
                 const catalog::NfCatalog& catalog)
    : sg_(&sg), catalog_(&catalog), base_(&substrate.nffg()) {
  if (substrate.index() != nullptr) {
    index_ = substrate.index();
  } else {
    owned_index_.emplace(*base_);
    index_ = &*owned_index_;
  }
}

Result<model::Resources> Context::footprint(const sg::SgNf& nf) const {
  return catalog_->footprint(nf.type, nf.requirement_override);
}

model::Resources Context::residual(const std::string& host) const {
  const model::BisBis* bb = base_->find_bisbis(host);
  if (bb == nullptr) return {};
  model::Resources left = bb->residual();
  const auto extra = extra_alloc_.find(host);
  if (extra != extra_alloc_.end()) left -= extra->second;
  return left;
}

double Context::utilization(const std::string& host) const {
  const model::BisBis* bb = base_->find_bisbis(host);
  if (bb == nullptr) return 0;
  model::Resources alloc = bb->allocated();
  const auto extra = extra_alloc_.find(host);
  if (extra != extra_alloc_.end()) alloc += extra->second;
  const model::Resources& cap = bb->capacity;
  double worst = 0;
  if (cap.cpu > 0) worst = std::max(worst, alloc.cpu / cap.cpu);
  if (cap.mem > 0) worst = std::max(worst, alloc.mem / cap.mem);
  if (cap.storage > 0) worst = std::max(worst, alloc.storage / cap.storage);
  return worst;
}

double Context::extra_reserved(graph::EdgeId edge) const noexcept {
  if (extra_reserved_.empty()) return 0;  // pristine-context fast path
  const auto it = std::lower_bound(
      extra_reserved_.begin(), extra_reserved_.end(), edge,
      [](const auto& entry, graph::EdgeId e) { return entry.first < e; });
  return it != extra_reserved_.end() && it->first == edge ? it->second : 0;
}

void Context::add_extra_reserved(graph::EdgeId edge, double amount) {
  const auto it = std::lower_bound(
      extra_reserved_.begin(), extra_reserved_.end(), edge,
      [](const auto& entry, graph::EdgeId e) { return entry.first < e; });
  if (it != extra_reserved_.end() && it->first == edge) {
    it->second += amount;
    // Keep the vector minimal so the empty() fast path re-arms after a
    // full release.
    if (it->second == 0) extra_reserved_.erase(it);
    return;
  }
  if (amount != 0) extra_reserved_.emplace(it, edge, amount);
}

double Context::residual_bandwidth(graph::EdgeId edge) const noexcept {
  return index_->graph().edge(edge).data.link->residual_bandwidth() -
         extra_reserved(edge);
}

std::vector<std::string> Context::candidates(const sg::SgNf& nf) const {
  std::vector<std::string> hosts;
  const auto need = footprint(nf);
  if (!need.ok()) return hosts;
  for (const auto& [id, bb] : base_->bisbis()) {
    if (bb.supports_nf_type(nf.type) && residual(id).fits(*need) &&
        constraint_allows(nf.id, id).ok()) {
      hosts.push_back(id);
    }
  }
  return hosts;  // std::map iteration is already id-ascending
}

Result<void> Context::constraint_allows(const std::string& nf_id,
                                        const std::string& host) const {
  for (const sg::PlacementConstraint& c : sg_->constraints()) {
    switch (c.kind) {
      case sg::ConstraintKind::kPin:
        if (c.nf_a == nf_id && c.host != host) {
          return Error{ErrorCode::kRejected,
                       nf_id + " is pinned to " + c.host};
        }
        break;
      case sg::ConstraintKind::kForbid:
        if (c.nf_a == nf_id && c.host == host) {
          return Error{ErrorCode::kRejected,
                       nf_id + " is forbidden on " + host};
        }
        break;
      case sg::ConstraintKind::kAntiAffinity: {
        const std::string& peer =
            c.nf_a == nf_id ? c.nf_b : (c.nf_b == nf_id ? c.nf_a : "");
        if (peer.empty()) break;
        const auto placed = placements_.find(peer);
        if (placed != placements_.end() && placed->second == host) {
          return Error{ErrorCode::kRejected,
                       nf_id + " anti-affine with " + peer + " on " + host};
        }
        break;
      }
    }
  }
  return Result<void>::success();
}

Result<void> Context::place(const std::string& nf_id,
                            const std::string& host) {
  const sg::SgNf* nf = sg_->find_nf(nf_id);
  if (nf == nullptr) {
    return Error{ErrorCode::kNotFound, "SG NF " + nf_id};
  }
  if (placements_.count(nf_id) != 0) {
    return Error{ErrorCode::kAlreadyExists, "NF " + nf_id + " already placed"};
  }
  UNIFY_RETURN_IF_ERROR(constraint_allows(nf_id, host));
  UNIFY_ASSIGN_OR_RETURN(const model::Resources need, footprint(*nf));
  // Same acceptance rules Nffg::place_nf enforces, evaluated against base
  // + overlay instead of a mutable substrate copy.
  const model::BisBis* bb = base_->find_bisbis(host);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + host};
  }
  if (bb->nfs.count(nf_id) != 0) {
    return Error{ErrorCode::kAlreadyExists, "NF " + nf_id + " on " + host};
  }
  if (!bb->supports_nf_type(nf->type)) {
    return Error{ErrorCode::kRejected,
                 "BiS-BiS " + host + " does not support NF type " + nf->type};
  }
  const model::Resources left = residual(host);
  if (!left.fits(need)) {
    return Error{ErrorCode::kResourceExhausted,
                 "BiS-BiS " + host + " residual " + left.to_string() +
                     " < requirement " + need.to_string()};
  }
  extra_alloc_[host] += need;
  placements_.emplace(nf_id, host);
  return Result<void>::success();
}

void Context::unplace(const std::string& nf_id) {
  const auto it = placements_.find(nf_id);
  if (it == placements_.end()) return;
  const sg::SgNf* nf = sg_->find_nf(nf_id);
  if (nf != nullptr) {
    if (const auto need = footprint(*nf); need.ok()) {
      const auto alloc = extra_alloc_.find(it->second);
      if (alloc != extra_alloc_.end()) {
        alloc->second -= *need;
        if (alloc->second.is_zero()) extra_alloc_.erase(alloc);
      }
    }
  }
  placements_.erase(it);
}

Result<std::string> Context::node_of(const std::string& sg_node) const {
  if (sg_->has_sap(sg_node)) {
    if (base_->find_sap(sg_node) == nullptr) {
      return Error{ErrorCode::kNotFound,
                   "SAP " + sg_node + " not present in substrate"};
    }
    return sg_node;
  }
  const auto it = placements_.find(sg_node);
  if (it == placements_.end()) {
    return Error{ErrorCode::kUnavailable, "NF " + sg_node + " not yet placed"};
  }
  return it->second;
}

const graph::ShortestPathTree& Context::path_tree(graph::NodeId from,
                                                  double min_bw) const {
  const TreeKey key{from, min_bw};
  const auto it = trees_.find(key);
  if (it != trees_.end()) {
    ++cache_stats_.hits;
    return it->second;
  }
  ++cache_stats_.misses;
  const std::size_t capacity = index_->graph().node_capacity();
  graph::shortest_path_tree(workspace_, capacity, from,
                            OverlayScan{this, min_bw});
  return trees_
      .emplace(key, graph::export_shortest_path_tree(workspace_, capacity))
      .first->second;
}

double Context::tree_delay(const graph::ShortestPathTree& tree,
                           graph::NodeId to) const {
  if (to >= tree.dist.size() || tree.dist[to] == graph::kInf) {
    return graph::kInf;
  }
  walk_.clear();
  for (graph::NodeId v = to; tree.parent_node[v] != graph::kInvalidId;
       v = tree.parent_node[v]) {
    walk_.push_back(v);
  }
  // model::path_delay's order, bit for bit: link delays source-first, then
  // the internal delays of the transited nodes (walk_[1..], source-first).
  double total = 0;
  for (auto v = walk_.rbegin(); v != walk_.rend(); ++v) {
    total += index_->link_of(tree.parent_edge[*v]).attrs.delay;
  }
  for (std::size_t i = walk_.size(); i-- > 1;) {
    total += index_->graph().node(walk_[i]).internal_delay;
  }
  return total;
}

void Context::invalidate_trees_masked_by(
    const std::vector<graph::EdgeId>& edges) {
  // Reservations only mask edges: a tree with floor f changes only when an
  // edge it uses falls below f. Removing an edge a tree does not use
  // leaves every distance, settle order and strict-< parent choice as is.
  const auto& graph = index_->graph();
  double lowest = graph::kInf;
  for (const graph::EdgeId e : edges) {
    lowest = std::min(lowest, residual_bandwidth(e));
  }
  std::erase_if(trees_, [&](const auto& item) {
    const double floor = item.first.second;
    if (floor <= lowest) return false;  // no edge fell below this floor
    const graph::ShortestPathTree& tree = item.second;
    const bool masked =
        std::any_of(edges.begin(), edges.end(), [&](graph::EdgeId e) {
          return residual_bandwidth(e) < floor &&
                 tree.parent_edge[graph.edge(e).to] == e;
        });
    if (masked) ++cache_stats_.invalidations;
    return masked;
  });
}

void Context::invalidate_trees_above(double min_pre_residual) {
  // A release unmasks an edge only for floors above its pre-release
  // residual; every lower floor sees the same masked graph as before.
  std::erase_if(trees_, [&](const auto& item) {
    const bool stale = item.first.second > min_pre_residual;
    if (stale) ++cache_stats_.invalidations;
    return stale;
  });
}

Result<PathInfo> Context::route(const sg::SgLink& link) {
  if (paths_.count(link.id) != 0) {
    return Error{ErrorCode::kAlreadyExists, "SG link " + link.id};
  }
  UNIFY_ASSIGN_OR_RETURN(const std::string from, node_of(link.from.node));
  UNIFY_ASSIGN_OR_RETURN(const std::string to, node_of(link.to.node));
  PathInfo info;
  std::vector<graph::EdgeId> edges;
  if (from != to) {
    const auto from_id = index_->node_of(from);
    auto path = path_tree(from_id, link.bandwidth)
                    .path_to(from_id, index_->node_of(to));
    if (!path.has_value()) {
      return Error{ErrorCode::kInfeasible,
                   "no path " + from + " -> " + to + " with " +
                       strings::format_double(link.bandwidth) + " Mbit/s"};
    }
    info.delay = model::path_delay(*index_, *path);
    edges = std::move(path->edges);
    for (const graph::EdgeId e : edges) {
      info.links.push_back(index_->graph().edge(e).data.link_id);
      add_extra_reserved(e, link.bandwidth);
    }
    if (link.bandwidth > 0 && !edges.empty()) {
      invalidate_trees_masked_by(edges);
    }
  }
  routed_edges_.emplace(link.id, std::move(edges));
  paths_.emplace(link.id, info);
  return info;
}

void Context::unroute(const std::string& sg_link_id) {
  const auto it = paths_.find(sg_link_id);
  if (it == paths_.end()) return;
  const sg::SgLink* link = sg_->find_link(sg_link_id);
  if (link == nullptr) {
    UNIFY_LOG(kWarn, "mapping.ctx")
        << "unroute: SG link " << sg_link_id
        << " not in service graph; dropping path without releasing bandwidth";
  } else if (link->bandwidth > 0) {
    const auto routed = routed_edges_.find(sg_link_id);
    if (routed != routed_edges_.end() && !routed->second.empty()) {
      double min_pre_residual = graph::kInf;
      for (const graph::EdgeId e : routed->second) {
        min_pre_residual = std::min(min_pre_residual, residual_bandwidth(e));
        add_extra_reserved(e, -link->bandwidth);
      }
      invalidate_trees_above(min_pre_residual);
    }
  }
  routed_edges_.erase(sg_link_id);
  paths_.erase(it);
}

Result<void> Context::route_all() {
  for (const sg::SgLink& link : sg_->links()) {
    if (is_routed(link.id)) continue;
    UNIFY_RETURN_IF_ERROR(route(link));
  }
  return Result<void>::success();
}

double Context::chain_delay(const sg::E2eRequirement& req) const {
  const auto chain = sg_->chain_for(req);
  if (!chain.ok()) return graph::kInf;
  double total = 0;
  for (const sg::SgLink* link : *chain) {
    const auto it = paths_.find(link->id);
    if (it != paths_.end()) total += it->second.delay;
  }
  return total;
}

Result<void> Context::check_requirements() const {
  for (const sg::E2eRequirement& req : sg_->requirements()) {
    const double delay = chain_delay(req);
    if (delay > req.max_delay) {
      return Error{ErrorCode::kInfeasible,
                   "requirement " + req.id + ": delay " +
                       strings::format_double(delay) + " ms exceeds " +
                       strings::format_double(req.max_delay) + " ms"};
    }
  }
  return Result<void>::success();
}

double Context::distance(const std::string& from, const std::string& to,
                         double min_bw) const {
  if (from == to) return 0;
  const auto from_id = index_->node_of(from);
  const auto to_id = index_->node_of(to);
  if (from_id == graph::kInvalidId || to_id == graph::kInvalidId) {
    return graph::kInf;
  }
  return path_tree(from_id, min_bw).dist[to_id];
}

double Context::delay_between(const std::string& from, const std::string& to,
                              double min_bw) const {
  if (from == to) return 0;
  const auto from_id = index_->node_of(from);
  const auto to_id = index_->node_of(to);
  if (from_id == graph::kInvalidId || to_id == graph::kInvalidId) {
    return graph::kInf;
  }
  return tree_delay(path_tree(from_id, min_bw), to_id);
}

double Context::node_penalty(const std::string& host) const noexcept {
  const model::BisBis* bb = base_->find_bisbis(host);
  return bb == nullptr ? 0.0 : bb->health_penalty;
}

Mapping Context::finish(std::string mapper_name) const {
  Mapping m;
  m.mapper_name = std::move(mapper_name);
  m.nf_host = placements_;
  m.link_paths = paths_;
  for (const sg::E2eRequirement& req : sg_->requirements()) {
    m.requirement_delay.emplace(req.id, chain_delay(req));
  }
  std::set<std::string> hosts;
  for (const auto& [nf, host] : placements_) hosts.insert(host);
  m.stats.nodes_used = hosts.size();
  m.stats.nfs_placed = placements_.size();
  for (const auto& [sg_link_id, info] : paths_) {
    m.stats.total_hops += info.links.size();
    const sg::SgLink* link = sg_->find_link(sg_link_id);
    m.stats.bandwidth_hops +=
        link->bandwidth * static_cast<double>(info.links.size());
  }
  return m;
}

}  // namespace unify::mapping
