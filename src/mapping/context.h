// Shared mapping machinery: placement/routing primitives with undo over a
// borrowed, read-only substrate, used by every Mapper implementation.
//
// The Context never copies the substrate. It reads the base NFFG (and a
// shared topology index, when the caller provides one via SubstrateView —
// the orchestrator's snapshot path) and records its own tentative work in
// overlays: per-host extra allocations for placements and a per-edge extra
// reservation vector for routed bandwidth. That keeps per-request setup
// O(1) instead of O(substrate), which is what lets parallel speculative
// mappers scale on 10^5..10^6-node views — each worker shares one
// immutable snapshot and owns only its overlay.
//
// Path queries (route / distance / delay_between / path_tree) read one
// cache of one-to-all shortest-path trees keyed by (source node, bandwidth
// floor): a miss runs one full single-source Dijkstra of the
// allocation-free kernel (graph/path_kernel.h) through a devirtualized
// overlay scan and keeps the dense tree, which then answers every target.
// A tree's path to a target is the path the kernel's early-exit search
// returns (same loop, same tie-breaks; the target's parents are final once
// it settles). distance() reads dist[target]; route() reads the parent
// chain; true delays sum in model::path_delay's order — every link delay
// source-first, then every transited node's internal delay — so they are
// bit-identical to the point-to-point answer.
//
// Eviction follows the monotonicity of reservations:
//  - route() reserves bandwidth, which can only mask edges. A tree with
//    floor f changes only if an edge it uses (parent_edge[head(e)] == e)
//    drops below f; exactly those trees are evicted.
//  - unroute() releases bandwidth, which can only unmask an edge for
//    floors above its pre-release residual; every tree whose floor exceeds
//    the smallest pre-release residual of the released edges is evicted.
//
// Memory: one tree costs O(nodes) (a distance, a parent edge and a parent
// node per node id), and a Context holds at most one tree per distinct
// (source, floor) pair it was asked for — for chain-DP, the request's SAPs
// and candidate hosts times the chain's link bandwidths; about 25 trees per
// call on perfbench's embed_large. The cache dies with the Context.
// Hit/miss/eviction counters are kept in PathCacheStats.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/nf_catalog.h"
#include "graph/path_kernel.h"
#include "mapping/mapper.h"
#include "model/nffg.h"
#include "model/topology_index.h"
#include "sg/service_graph.h"
#include "util/result.h"

namespace unify::mapping {

/// Counters of the per-Context path-tree cache: one hit or miss per tree
/// lookup (distance, delay_between, route, path_tree).
struct PathCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< trees evicted by route/unroute
};

class Context {
 public:
  /// Borrows the substrate (and its index, when the view carries one);
  /// the substrate is never touched and must outlive the Context.
  Context(const sg::ServiceGraph& sg, const SubstrateView& substrate,
          const catalog::NfCatalog& catalog);

  // The overlays and path cache hold pointers into the borrowed substrate
  // and the (possibly owned) index; moving or copying would dangle them.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] const sg::ServiceGraph& sg() const noexcept { return *sg_; }
  /// The borrowed base substrate. Read-only: this Context's own
  /// placements and reservations live in overlays, NOT here — use
  /// residual()/utilization()/residual_bandwidth() for live arithmetic.
  [[nodiscard]] const model::Nffg& base() const noexcept { return *base_; }
  [[nodiscard]] const model::TopologyIndex& index() const noexcept {
    return *index_;
  }

  /// Feasible hosts for an NF right now (type support + residual capacity),
  /// ascending by id for determinism.
  [[nodiscard]] std::vector<std::string> candidates(
      const sg::SgNf& nf) const;

  /// Resolved footprint of an SG NF (override or catalog).
  [[nodiscard]] Result<model::Resources> footprint(const sg::SgNf& nf) const;

  /// Live residual capacity of a host: base residual minus this Context's
  /// overlay allocations.
  [[nodiscard]] model::Resources residual(const std::string& host) const;

  /// Worst-dimension utilization of a host including overlay allocations
  /// (0 = empty, 1 = full). 0 for unknown hosts.
  [[nodiscard]] double utilization(const std::string& host) const;

  /// Live residual bandwidth of a substrate edge: link residual minus
  /// this Context's overlay reservations.
  [[nodiscard]] double residual_bandwidth(graph::EdgeId edge) const noexcept;

  /// Places `nf_id` on `host` (capacity, type and placement constraints
  /// enforced). Undo with unplace.
  Result<void> place(const std::string& nf_id, const std::string& host);

  /// Checks the service graph's placement constraints for (nf, host) given
  /// the placements made so far.
  [[nodiscard]] Result<void> constraint_allows(const std::string& nf_id,
                                               const std::string& host) const;
  void unplace(const std::string& nf_id);

  /// The substrate node an SG endpoint currently resolves to: the SAP
  /// itself, or the host of a placed NF (kUnavailable when unplaced).
  [[nodiscard]] Result<std::string> node_of(const std::string& sg_node) const;

  /// Routes one SG link over the substrate (min-delay path with residual
  /// bandwidth >= link.bandwidth), reserving bandwidth along it. Both
  /// endpoints must resolve. Colocated endpoints yield an empty path.
  Result<PathInfo> route(const sg::SgLink& link);
  /// Releases a routed link's reservations and forgets its path.
  void unroute(const std::string& sg_link_id);
  [[nodiscard]] bool is_routed(const std::string& sg_link_id) const noexcept {
    return paths_.count(sg_link_id) != 0;
  }

  /// Routes every not-yet-routed SG link (used after all placements).
  Result<void> route_all();

  /// Checks every requirement's accumulated chain delay against its bound.
  Result<void> check_requirements() const;

  /// Delay currently accumulated along the chain of `req` (routed links
  /// only).
  [[nodiscard]] double chain_delay(const sg::E2eRequirement& req) const;

  /// Shortest-path cost between two substrate nodes under a bandwidth
  /// floor; +inf when disconnected. The cost is the health-biased scan
  /// weight (delay + head-node penalties), so algorithms ranking on it
  /// steer around degraded domains; true delays come from route().
  [[nodiscard]] double distance(const std::string& from, const std::string& to,
                                double min_bw) const;

  /// True wire delay (link delays + transited internal delays) of the same
  /// min-cost path distance() ranks by; +inf when disconnected. Use this —
  /// not distance() — to check delay bounds: the biased weight may exceed
  /// a budget the actual path satisfies.
  [[nodiscard]] double delay_between(const std::string& from,
                                     const std::string& to,
                                     double min_bw) const;

  /// The one-to-all shortest-path tree from `from` under the bandwidth
  /// floor `min_bw` over the live residuals (cached or freshly built; an
  /// unknown `from` gives a tree that reaches nothing). dist[v] is the
  /// distance() cost to v. The reference is valid until the next
  /// route/unroute.
  [[nodiscard]] const graph::ShortestPathTree& path_tree(graph::NodeId from,
                                                         double min_bw) const;

  /// delay_between() read off a tree from path_tree(): the true wire delay
  /// of the tree path to `to`; +inf when unreachable.
  [[nodiscard]] double tree_delay(const graph::ShortestPathTree& tree,
                                  graph::NodeId to) const;

  /// Health bias of a substrate node (BisBis::health_penalty, 0 for SAPs
  /// and unknown nodes). Mappers add it to node-selection cost so flaky
  /// domains drain before their circuit trips (DESIGN.md §10).
  [[nodiscard]] double node_penalty(const std::string& host) const noexcept;

  /// Current NF placements (nf id -> hosting BiS-BiS).
  [[nodiscard]] const std::map<std::string, std::string>& placements()
      const noexcept {
    return placements_;
  }

  /// Assembles the final Mapping (placements, paths, per-requirement
  /// delays, stats). Call after route_all()+check_requirements() succeed.
  [[nodiscard]] Mapping finish(std::string mapper_name) const;

  [[nodiscard]] const PathCacheStats& path_cache_stats() const noexcept {
    return cache_stats_;
  }

 private:
  /// (source node, bandwidth floor) -> one-to-all shortest-path tree.
  using TreeKey = std::pair<graph::NodeId, double>;

  /// Overlay scan for the path kernel: base residual minus overlay
  /// reservations for masking, health-biased weights.
  struct OverlayScan {
    const Context* ctx;
    double min_bw;

    template <typename Visit>
    void operator()(graph::NodeId node, Visit&& visit) const {
      const auto& graph = ctx->index_->graph();
      for (const graph::EdgeId e : graph.out_edges(node)) {
        const auto& edge = graph.edge(e);
        if (ctx->residual_bandwidth(e) < min_bw) continue;
        visit(e, edge.to, model::TopologyIndex::edge_weight(edge.data));
      }
    }
  };

  /// Evicts the trees a reservation on `edges` (already applied) can
  /// change: those using an edge whose residual fell below their floor.
  void invalidate_trees_masked_by(const std::vector<graph::EdgeId>& edges);
  /// Evicts the trees a release can change: those whose floor exceeds
  /// `min_pre_residual`, the smallest pre-release residual of the
  /// released edges.
  void invalidate_trees_above(double min_pre_residual);

  /// Overlay reservation on one edge (0 when untouched). Sorted-vector
  /// lookup; empty() fast path keeps pristine scans at base speed.
  [[nodiscard]] double extra_reserved(graph::EdgeId edge) const noexcept;
  void add_extra_reserved(graph::EdgeId edge, double amount);

  const sg::ServiceGraph* sg_;
  const catalog::NfCatalog* catalog_;
  const model::Nffg* base_;  ///< borrowed, never mutated
  /// Built only when the SubstrateView carries no index (cold path for
  /// standalone mapper calls).
  std::optional<model::TopologyIndex> owned_index_;
  const model::TopologyIndex* index_;  ///< borrowed or &*owned_index_

  // ---- overlays: this Context's tentative work ----
  std::map<std::string, std::string> placements_;     // nf -> host
  std::map<std::string, model::Resources> extra_alloc_;  // host -> resources
  /// (edge, reserved bandwidth), sorted by edge for binary search.
  std::vector<std::pair<graph::EdgeId, double>> extra_reserved_;
  std::map<std::string, PathInfo> paths_;  // sg link -> path
  /// Substrate edges each routed SG link reserved on (for release).
  std::map<std::string, std::vector<graph::EdgeId>> routed_edges_;

  mutable graph::PathWorkspace workspace_;
  mutable std::map<TreeKey, graph::ShortestPathTree> trees_;
  /// Scratch for tree_delay()'s parent walk (target-first node ids).
  mutable std::vector<graph::NodeId> walk_;
  mutable PathCacheStats cache_stats_;
};

}  // namespace unify::mapping
