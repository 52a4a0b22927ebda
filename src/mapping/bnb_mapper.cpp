#include "mapping/bnb_mapper.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "mapping/context.h"

namespace unify::mapping {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// Pristine-substrate distance relaxations, memoized per source node.
/// Unmasked (no bandwidth floor) and unbiased (no health penalty), so both
/// metrics under-estimate whatever route() later charges — the property
/// that makes the search bound admissible.
class Relaxation {
 public:
  explicit Relaxation(const model::TopologyIndex& index) : index_(&index) {}

  /// Min hop counts from `src` to every node (BFS; +inf unreachable).
  const std::vector<double>& hops_from(graph::NodeId src) {
    const auto cached = hops_.find(src);
    if (cached != hops_.end()) return cached->second;
    const auto& graph = index_->graph();
    std::vector<double> dist(graph.node_capacity(), kInf);
    std::queue<graph::NodeId> frontier;
    dist[src] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
      const graph::NodeId at = frontier.front();
      frontier.pop();
      for (const graph::EdgeId e : graph.out_edges(at)) {
        const graph::NodeId to = graph.edge(e).to;
        if (dist[to] != kInf) continue;
        dist[to] = dist[at] + 1;
        frontier.push(to);
      }
    }
    return hops_.emplace(src, std::move(dist)).first->second;
  }

  /// Min pure link-delay from `src` to every node (Dijkstra over
  /// LinkAttrs::delay only — internal crossing delays omitted, a further
  /// admissible weakening).
  const std::vector<double>& delay_from(graph::NodeId src) {
    const auto cached = delays_.find(src);
    if (cached != delays_.end()) return cached->second;
    const auto& graph = index_->graph();
    std::vector<double> dist(graph.node_capacity(), kInf);
    using Item = std::pair<double, graph::NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[src] = 0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, at] = heap.top();
      heap.pop();
      if (d > dist[at]) continue;
      for (const graph::EdgeId e : graph.out_edges(at)) {
        const auto& edge = graph.edge(e);
        const double next = d + edge.data.link->attrs.delay;
        if (next < dist[edge.to]) {
          dist[edge.to] = next;
          heap.emplace(next, edge.to);
        }
      }
    }
    return delays_.emplace(src, std::move(dist)).first->second;
  }

 private:
  const model::TopologyIndex* index_;
  std::map<graph::NodeId, std::vector<double>> hops_;
  std::map<graph::NodeId, std::vector<double>> delays_;
};

struct NfChoice {
  std::string id;
  std::vector<std::string> hosts;       ///< pristine candidates, id order
  std::vector<graph::NodeId> host_ids;  ///< index-aligned with hosts
  double min_penalty = 0;
};

struct Search {
  Context* ctx;
  Relaxation* relax;
  const BnbOptions* options;
  std::vector<NfChoice> order;
  /// NF id -> index into `order`, for candidate-set lookups from SG links.
  std::map<std::string, std::size_t> order_of;
  /// Requirement chains resolved once (non-chain requirements are left to
  /// route_all/check_requirements at the leaves).
  std::vector<std::pair<const sg::E2eRequirement*,
                        std::vector<const sg::SgLink*>>> chains;

  std::optional<Mapping> incumbent;
  double best_total = kInf;
  std::uint64_t nodes_expanded = 0;
  bool budget_cutoff = false;
};

/// The substrate node an SG endpoint resolves to under the current partial
/// placement: kInvalidId when it is an unplaced NF.
graph::NodeId resolve(const Search& search, const std::string& sg_node) {
  const auto placed = search.ctx->node_of(sg_node);
  if (!placed.ok()) return graph::kInvalidId;
  return search.ctx->index().node_of(*placed);
}

/// Optimistic distance for one SG link under metric `row_of`: exact when
/// both ends resolve, relaxed over the unplaced end's candidate set when
/// one does, zero when neither does. +inf = provably unroutable.
template <typename RowOf>
double link_relaxation(Search& search, const sg::SgLink& link, RowOf row_of) {
  const graph::NodeId from = resolve(search, link.from.node);
  const graph::NodeId to = resolve(search, link.to.node);
  if (from != graph::kInvalidId && to != graph::kInvalidId) {
    if (from == to) return 0;
    return row_of(from)[to];
  }
  if (from == graph::kInvalidId && to == graph::kInvalidId) return 0;
  const graph::NodeId anchor = from != graph::kInvalidId ? from : to;
  const std::string& loose =
      from != graph::kInvalidId ? link.to.node : link.from.node;
  const auto slot = search.order_of.find(loose);
  if (slot == search.order_of.end()) return 0;  // NF outside the search set
  const std::vector<double>& row = row_of(anchor);
  double best = kInf;
  for (const graph::NodeId candidate : search.order[slot->second].host_ids) {
    if (anchor == candidate) return 0;
    best = std::min(best, row[candidate]);
  }
  return best;
}

/// Admissible lower bound on the canonical objective of any completion of
/// the current partial placement; +inf when no completion can be feasible.
double bound(Search& search) {
  double cost_lb = 0;
  for (const sg::SgLink& link : search.ctx->sg().links()) {
    const double hops = link_relaxation(
        search, link,
        [&search](graph::NodeId src) -> const std::vector<double>& {
          return search.relax->hops_from(src);
        });
    if (hops == kInf) return kInf;
    cost_lb += link.bandwidth * hops;
  }

  double delay_lb = 0;
  for (const auto& [req, chain] : search.chains) {
    double req_delay = 0;
    for (const sg::SgLink* link : chain) {
      const double d = link_relaxation(
          search, *link,
          [&search](graph::NodeId src) -> const std::vector<double>& {
            return search.relax->delay_from(src);
          });
      if (d == kInf) return kInf;
      req_delay += d;
    }
    if (req_delay > req->max_delay + kEps) return kInf;
    delay_lb += req_delay;
  }

  double penalty_lb = 0;
  for (const NfChoice& choice : search.order) {
    const auto placed = search.ctx->placements().find(choice.id);
    penalty_lb += placed != search.ctx->placements().end()
                      ? search.ctx->node_penalty(placed->second)
                      : choice.min_penalty;
  }
  return cost_lb + search.options->delay_weight * delay_lb + penalty_lb;
}

/// Canonical leaf evaluation: everything placed, route in SG-link order,
/// score, tear the routes back down (placements stay for the unwind).
void evaluate_leaf(Search& search) {
  const bool routed = search.ctx->route_all().ok() &&
                      search.ctx->check_requirements().ok();
  if (routed) {
    Mapping mapping = search.ctx->finish("bnb");
    const double total = score_mapping(mapping, search.ctx->base())
                             .total(search.options->delay_weight);
    if (total < search.best_total - kEps) {
      search.best_total = total;
      search.incumbent = std::move(mapping);
    }
  }
  for (const sg::SgLink& link : search.ctx->sg().links()) {
    search.ctx->unroute(link.id);
  }
}

void dfs(Search& search, std::size_t depth) {
  if (search.budget_cutoff) return;
  if (depth == search.order.size()) {
    ++search.nodes_expanded;
    evaluate_leaf(search);
    return;
  }
  const NfChoice& choice = search.order[depth];
  // Generate children with their bounds, then expand cheapest-bound first:
  // good incumbents arrive early and the bound prunes the rest.
  struct Child {
    double lb;
    std::size_t host;  ///< index into choice.hosts
  };
  std::vector<Child> children;
  for (std::size_t h = 0; h < choice.hosts.size(); ++h) {
    if (++search.nodes_expanded > search.options->max_nodes) {
      search.budget_cutoff = true;
      break;
    }
    if (!search.ctx->place(choice.id, choice.hosts[h]).ok()) continue;
    const double lb = bound(search);
    search.ctx->unplace(choice.id);
    if (lb < search.best_total - kEps) children.push_back(Child{lb, h});
  }
  std::stable_sort(children.begin(), children.end(),
                   [](const Child& a, const Child& b) {
                     return a.lb < b.lb;
                   });
  for (const Child& child : children) {
    if (search.budget_cutoff) return;
    // The incumbent may have improved since this bound was computed.
    if (child.lb >= search.best_total - kEps) continue;
    if (!search.ctx->place(choice.id, choice.hosts[child.host]).ok()) {
      continue;
    }
    dfs(search, depth + 1);
    search.ctx->unplace(choice.id);
  }
}

}  // namespace

Result<BnbResult> BnbMapper::map_exact(const sg::ServiceGraph& sg,
                                       const SubstrateView& substrate,
                                       const catalog::NfCatalog& catalog) const {
  if (sg.nfs().size() > options_.max_nfs) {
    return Error{ErrorCode::kResourceExhausted,
                 "bnb refuses " + std::to_string(sg.nfs().size()) +
                     " NFs (max_nfs=" + std::to_string(options_.max_nfs) +
                     "); use a heuristic mapper"};
  }

  Context ctx(sg, substrate, catalog);
  Relaxation relax(ctx.index());
  Search search{&ctx, &relax, &options_, {}, {}, {}, {}, kInf, 0, false};

  // Chain order first (tight delay pruning), then leftovers by id.
  std::set<std::string> seen;
  std::vector<std::string> order_ids;
  for (const sg::E2eRequirement& req : sg.requirements()) {
    const auto seq = sg.nf_sequence_for(req);
    if (!seq.ok()) continue;
    for (const std::string& nf : *seq) {
      if (seen.insert(nf).second) order_ids.push_back(nf);
    }
  }
  for (const auto& [nf_id, nf] : sg.nfs()) {
    if (seen.insert(nf_id).second) order_ids.push_back(nf_id);
  }
  for (const std::string& nf_id : order_ids) {
    const sg::SgNf* nf = sg.find_nf(nf_id);
    NfChoice choice;
    choice.id = nf_id;
    choice.hosts = ctx.candidates(*nf);
    if (choice.hosts.empty()) {
      return Error{ErrorCode::kInfeasible,
                   "no feasible host for NF " + nf_id};
    }
    choice.min_penalty = kInf;
    for (const std::string& host : choice.hosts) {
      choice.host_ids.push_back(ctx.index().node_of(host));
      choice.min_penalty =
          std::min(choice.min_penalty, ctx.node_penalty(host));
    }
    search.order_of.emplace(nf_id, search.order.size());
    search.order.push_back(std::move(choice));
  }
  for (const sg::E2eRequirement& req : sg.requirements()) {
    const auto chain = sg.chain_for(req);
    if (chain.ok()) search.chains.emplace_back(&req, *chain);
  }

  BnbResult result;
  result.lower_bound = bound(search);
  if (result.lower_bound == kInf) {
    return Error{ErrorCode::kInfeasible,
                 "root relaxation proves the instance infeasible"};
  }
  dfs(search, 0);
  result.nodes_expanded = search.nodes_expanded;
  result.optimal = !search.budget_cutoff;

  if (!search.incumbent.has_value()) {
    if (search.budget_cutoff) {
      return Error{ErrorCode::kResourceExhausted,
                   "node budget exhausted before a feasible placement"};
    }
    return Error{ErrorCode::kInfeasible,
                 "exhaustive search proves the instance infeasible"};
  }
  result.mapping = std::move(*search.incumbent);
  return result;
}

Result<Mapping> BnbMapper::map(const sg::ServiceGraph& sg,
                               const SubstrateView& substrate,
                               const catalog::NfCatalog& catalog) const {
  UNIFY_ASSIGN_OR_RETURN(BnbResult result,
                         map_exact(sg, substrate, catalog));
  return std::move(result.mapping);
}

}  // namespace unify::mapping
