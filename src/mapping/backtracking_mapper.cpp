#include "mapping/backtracking_mapper.h"

#include <algorithm>
#include <set>

#include "mapping/context.h"

namespace unify::mapping {

namespace {

/// Search state shared down the recursion.
struct Search {
  Context* ctx;
  std::vector<std::string> order;  ///< NF ids, chain order
  std::size_t steps = 0;
  std::size_t max_steps = 0;
};

/// Routes every SG link whose endpoints both resolve and that is not routed
/// yet; returns the link ids routed here (for undo) or nullopt on failure.
std::optional<std::vector<std::string>> route_ready(Search& search) {
  std::vector<std::string> routed;
  for (const sg::SgLink& link : search.ctx->sg().links()) {
    if (search.ctx->is_routed(link.id)) continue;
    if (!search.ctx->node_of(link.from.node).ok() ||
        !search.ctx->node_of(link.to.node).ok()) {
      continue;
    }
    if (!search.ctx->route(link).ok()) {
      for (const std::string& undo : routed) search.ctx->unroute(undo);
      return std::nullopt;
    }
    routed.push_back(link.id);
  }
  return routed;
}

/// Partial delay bound: any fully- or partially-routed requirement must
/// still be within budget.
bool delays_ok(const Context& ctx) {
  for (const sg::E2eRequirement& req : ctx.sg().requirements()) {
    if (ctx.chain_delay(req) > req.max_delay) return false;
  }
  return true;
}

bool dfs(Search& search, std::size_t depth) {
  if (search.steps++ > search.max_steps) return false;
  if (depth == search.order.size()) {
    return search.ctx->route_all().ok() &&
           search.ctx->check_requirements().ok();
  }
  const std::string& nf_id = search.order[depth];
  const sg::SgNf* nf = search.ctx->sg().find_nf(nf_id);
  // candidates() is id-ascending; visit healthy domains first so the first
  // complete solution drains flaky nodes (stable sort keeps id order as the
  // tie-break).
  std::vector<std::string> hosts = search.ctx->candidates(*nf);
  std::stable_sort(hosts.begin(), hosts.end(),
                   [&](const std::string& a, const std::string& b) {
                     return search.ctx->node_penalty(a) <
                            search.ctx->node_penalty(b);
                   });
  for (const std::string& host : hosts) {
    if (!search.ctx->place(nf_id, host).ok()) continue;
    const auto routed = route_ready(search);
    if (routed.has_value() && delays_ok(*search.ctx)) {
      if (dfs(search, depth + 1)) return true;
    }
    if (routed.has_value()) {
      for (const std::string& undo : *routed) search.ctx->unroute(undo);
    }
    search.ctx->unplace(nf_id);
  }
  return false;
}

}  // namespace

Result<Mapping> BacktrackingMapper::map(const sg::ServiceGraph& sg,
                                        const SubstrateView& substrate,
                                        const catalog::NfCatalog& catalog) const {
  Context ctx(sg, substrate, catalog);

  // Visit NFs in chain order (tight pruning), then any leftovers by id.
  std::vector<std::string> order;
  std::set<std::string> seen;
  for (const sg::E2eRequirement& req : sg.requirements()) {
    const auto seq = sg.nf_sequence_for(req);
    if (!seq.ok()) continue;
    for (const std::string& nf : *seq) {
      if (seen.insert(nf).second) order.push_back(nf);
    }
  }
  for (const auto& [nf_id, nf] : sg.nfs()) {
    if (seen.insert(nf_id).second) order.push_back(nf_id);
  }

  Search search{&ctx, std::move(order), 0, options_.max_search_steps};
  if (!dfs(search, 0)) {
    const bool exhausted = search.steps > search.max_steps;
    return Error{ErrorCode::kInfeasible,
                 exhausted ? "search budget exhausted after " +
                                 std::to_string(search.steps) + " steps"
                           : "exhaustive search found no feasible mapping"};
  }
  return ctx.finish(name());
}

}  // namespace unify::mapping
