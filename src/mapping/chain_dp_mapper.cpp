#include "mapping/chain_dp_mapper.h"

#include <algorithm>
#include <limits>
#include <set>

#include "mapping/context.h"

namespace unify::mapping {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ChainStage {
  std::string nf_id;
  double in_bandwidth = 0;  ///< bandwidth of the link entering this NF
};

/// One DP sweep. `banned` pairs are excluded from candidates. On success
/// fills `choice` (nf -> host) for *unplaced* NFs of the chain.
Result<void> run_dp(Context& ctx, const sg::E2eRequirement& req,
                    const std::vector<const sg::SgLink*>& chain,
                    const std::set<std::pair<std::string, std::string>>& banned,
                    std::map<std::string, std::string>& choice) {
  // Build stages: NFs along the chain with the bandwidth of their inbound
  // link; the final link's bandwidth constrains the hop to to_sap.
  std::vector<ChainStage> stages;
  for (const sg::SgLink* link : chain) {
    if (!ctx.sg().has_sap(link->to.node)) {
      stages.push_back(ChainStage{link->to.node, link->bandwidth});
    }
  }
  const double out_bandwidth = chain.empty() ? 0 : chain.back()->bandwidth;

  if (stages.empty()) return Result<void>::success();  // SAP-to-SAP chain

  // Candidate hosts per stage. Already-placed NFs are pinned.
  std::vector<std::vector<std::string>> cands(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const std::string& nf_id = stages[i].nf_id;
    if (const auto node = ctx.node_of(nf_id); node.ok()) {
      cands[i] = {*node};
      continue;
    }
    for (const std::string& host :
         ctx.candidates(*ctx.sg().find_nf(nf_id))) {
      if (banned.count({nf_id, host}) == 0) cands[i].push_back(host);
    }
    if (cands[i].empty()) {
      return Error{ErrorCode::kInfeasible,
                   "no feasible host for NF " + nf_id};
    }
  }

  // Substrate node ids and health penalties, resolved once per candidate.
  const model::TopologyIndex& index = ctx.index();
  std::vector<std::vector<graph::NodeId>> ids(stages.size());
  std::vector<std::vector<double>> penalty(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    for (const std::string& host : cands[i]) {
      ids[i].push_back(index.node_of(host));
      penalty[i].push_back(ctx.node_penalty(host));
    }
  }
  const graph::NodeId to_sap = index.node_of(req.to_sap);
  const auto dist_to = [](const graph::ShortestPathTree& tree,
                          graph::NodeId to) {
    return to < tree.dist.size() ? tree.dist[to] : kInf;
  };

  // Viterbi. `cost` is the selection objective (health-biased distance
  // plus per-host penalty, so flaky domains drain before their circuit
  // trips); `delay` tracks the true wire delay of the same min-cost paths,
  // so the max_delay bound is checked on what the wire would actually see,
  // not on the biased weight. Every hop out of one node at one stage floor
  // reads the same one-to-all tree.
  std::vector<std::vector<double>> cost(stages.size());
  std::vector<std::vector<double>> delay(stages.size());
  std::vector<std::vector<int>> back(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    cost[i].assign(cands[i].size(), kInf);
    delay[i].assign(cands[i].size(), kInf);
    back[i].assign(cands[i].size(), -1);
  }
  {
    const graph::ShortestPathTree& tree =
        ctx.path_tree(index.node_of(req.from_sap), stages[0].in_bandwidth);
    for (std::size_t j = 0; j < cands[0].size(); ++j) {
      const double d = dist_to(tree, ids[0][j]);
      if (d == kInf) continue;
      cost[0][j] = d + penalty[0][j];
      delay[0][j] = ctx.tree_delay(tree, ids[0][j]);
    }
  }
  std::vector<const graph::ShortestPathTree*> from_prev;
  for (std::size_t i = 1; i < stages.size(); ++i) {
    // One tree per reachable previous candidate (no route/unroute runs
    // inside the DP, so the references stay valid).
    from_prev.assign(cands[i - 1].size(), nullptr);
    for (std::size_t p = 0; p < cands[i - 1].size(); ++p) {
      if (cost[i - 1][p] == kInf) continue;
      from_prev[p] = &ctx.path_tree(ids[i - 1][p], stages[i].in_bandwidth);
    }
    for (std::size_t j = 0; j < cands[i].size(); ++j) {
      for (std::size_t p = 0; p < cands[i - 1].size(); ++p) {
        if (cost[i - 1][p] == kInf) continue;
        const double step = dist_to(*from_prev[p], ids[i][j]);
        const double total = cost[i - 1][p] + step + penalty[i][j];
        if (total < cost[i][j]) {
          cost[i][j] = total;
          delay[i][j] =
              delay[i - 1][p] + ctx.tree_delay(*from_prev[p], ids[i][j]);
          back[i][j] = static_cast<int>(p);
        }
      }
    }
  }
  // Close the chain towards to_sap.
  const std::size_t tail = stages.size() - 1;
  double best = kInf;
  double best_delay = kInf;
  int best_j = -1;
  for (std::size_t j = 0; j < cands[tail].size(); ++j) {
    if (cost[tail][j] == kInf) continue;
    const graph::ShortestPathTree& tree =
        ctx.path_tree(ids[tail][j], out_bandwidth);
    const double total = cost[tail][j] + dist_to(tree, to_sap);
    if (total < best) {
      best = total;
      best_delay = delay[tail][j] + ctx.tree_delay(tree, to_sap);
      best_j = static_cast<int>(j);
    }
  }
  if (best_j < 0) {
    return Error{ErrorCode::kInfeasible,
                 "chain for requirement " + req.id + " is disconnected"};
  }
  if (best_delay > req.max_delay) {
    return Error{ErrorCode::kInfeasible,
                 "requirement " + req.id + ": optimal chain delay " +
                     strings::format_double(best_delay) + " ms exceeds " +
                     strings::format_double(req.max_delay) + " ms"};
  }
  // Trace back.
  int j = best_j;
  for (std::size_t i = stages.size(); i-- > 0;) {
    choice[stages[i].nf_id] = cands[i][static_cast<std::size_t>(j)];
    j = back[i][static_cast<std::size_t>(j)];
  }
  return Result<void>::success();
}

}  // namespace

Result<Mapping> ChainDpMapper::map(const sg::ServiceGraph& sg,
                                   const SubstrateView& substrate,
                                   const catalog::NfCatalog& catalog) const {
  Context ctx(sg, substrate, catalog);

  for (const sg::E2eRequirement& req : sg.requirements()) {
    const auto chain = sg.chain_for(req);
    if (!chain.ok()) continue;

    std::set<std::pair<std::string, std::string>> banned;
    // Re-run the DP when a chosen placement fails (capacity already eaten
    // by a previous chain).
    for (int attempt = 0;; ++attempt) {
      if (attempt > 64) {
        return Error{ErrorCode::kInfeasible,
                     "placement retries exhausted for requirement " + req.id};
      }
      std::map<std::string, std::string> choice;
      UNIFY_RETURN_IF_ERROR(run_dp(ctx, req, *chain, banned, choice));
      bool all_placed = true;
      std::vector<std::string> placed_now;
      for (const auto& [nf_id, host] : choice) {
        if (ctx.node_of(nf_id).ok()) continue;  // pinned earlier
        const auto res = ctx.place(nf_id, host);
        if (!res.ok()) {
          banned.insert({nf_id, host});
          for (const std::string& undo : placed_now) ctx.unplace(undo);
          all_placed = false;
          break;
        }
        placed_now.push_back(nf_id);
      }
      if (all_placed) break;
    }
  }

  // NFs outside every requirement chain: cheapest feasible host (lowest
  // health penalty, id as the tie-break — candidates() is id-ascending).
  for (const auto& [nf_id, nf] : sg.nfs()) {
    if (ctx.node_of(nf_id).ok()) continue;
    const auto cands = ctx.candidates(nf);
    if (cands.empty()) {
      return Error{ErrorCode::kInfeasible, "no feasible host for " + nf_id};
    }
    const auto pick = std::min_element(
        cands.begin(), cands.end(),
        [&](const std::string& a, const std::string& b) {
          return ctx.node_penalty(a) < ctx.node_penalty(b);
        });
    UNIFY_RETURN_IF_ERROR(ctx.place(nf_id, *pick));
  }

  UNIFY_RETURN_IF_ERROR(ctx.route_all());
  UNIFY_RETURN_IF_ERROR(ctx.check_requirements());
  return ctx.finish(name());
}

}  // namespace unify::mapping
