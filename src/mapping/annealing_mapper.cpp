#include "mapping/annealing_mapper.h"

#include <cmath>

#include "mapping/context.h"
#include "mapping/greedy_mapper.h"
#include "util/rng.h"

namespace unify::mapping {

namespace {

// Health bias via EmbeddingScore::penalty: every NF parked on a flaky node
// makes the placement more expensive, so annealing drains degraded domains
// even when hops/delay tie.
double objective(const Mapping& m, double delay_weight,
                 const model::Nffg& substrate) {
  return score_mapping(m, substrate).total(delay_weight);
}

/// Re-synchronizes the persistent context to `placement`: tears every route
/// down, moves the placements that differ, re-routes and re-checks. Returns
/// the finished mapping, or nullopt when the placement is infeasible (the
/// context is then left partially synced; re-sync to a known-good placement
/// to recover). The end state is identical to evaluating `placement` on a
/// fresh Context — placement order does not affect the substrate state and
/// routing order is the SG link order either way — but skips the substrate
/// copy, index rebuild and cold path cache a fresh Context would pay.
std::optional<Mapping> resync(
    Context& ctx, const std::map<std::string, std::string>& placement) {
  for (const sg::SgLink& link : ctx.sg().links()) ctx.unroute(link.id);
  const std::map<std::string, std::string> current = ctx.placements();
  for (const auto& [nf, host] : current) {
    const auto want = placement.find(nf);
    if (want == placement.end() || want->second != host) ctx.unplace(nf);
  }
  for (const auto& [nf, host] : placement) {
    if (ctx.placements().count(nf) != 0) continue;
    if (!ctx.place(nf, host).ok()) return std::nullopt;
  }
  if (!ctx.route_all().ok()) return std::nullopt;
  if (!ctx.check_requirements().ok()) return std::nullopt;
  return ctx.finish("annealing");
}

}  // namespace

Result<Mapping> AnnealingMapper::map(const sg::ServiceGraph& sg,
                                     const SubstrateView& substrate,
                                     const catalog::NfCatalog& catalog) const {
  // Seed with the greedy solution (fail fast when nothing is feasible).
  GreedyMapper seeder;
  UNIFY_ASSIGN_OR_RETURN(Mapping best, seeder.map(sg, substrate, catalog));
  if (sg.nfs().empty()) return best;
  double best_cost =
      objective(best, options_.delay_weight, substrate.nffg());

  std::map<std::string, std::string> current_placement = best.nf_host;
  Mapping current = best;
  double current_cost = best_cost;

  // One context for the whole annealing run; every candidate placement is
  // evaluated by re-syncing it instead of copying the substrate anew.
  Context ctx(sg, substrate, catalog);
  if (!resync(ctx, current_placement).has_value()) {
    // The greedy placement routed on an identical substrate moments ago;
    // never expected, but fall back to it rather than crash.
    best.mapper_name = name();
    return best;
  }

  // Collect NF ids and, per NF, its candidate hosts on the empty substrate
  // (capacity feasibility of the full placement is re-checked by resync).
  std::vector<std::string> nf_ids;
  for (const auto& [nf_id, nf] : sg.nfs()) nf_ids.push_back(nf_id);
  Context probe(sg, substrate, catalog);
  std::map<std::string, std::vector<std::string>> candidates;
  for (const auto& [nf_id, nf] : sg.nfs()) {
    candidates.emplace(nf_id, probe.candidates(nf));
  }

  Rng rng(options_.seed);
  double temperature = options_.initial_temperature;
  for (int iter = 0; iter < options_.iterations; ++iter) {
    temperature *= options_.cooling;
    const std::string& nf = nf_ids[rng.next_below(nf_ids.size())];
    const auto& hosts = candidates.at(nf);
    if (hosts.size() < 2) continue;
    const std::string& new_host = hosts[rng.next_below(hosts.size())];
    if (new_host == current_placement.at(nf)) continue;

    auto moved = current_placement;
    moved[nf] = new_host;
    // No rollback on failure or reject: a resync's end state depends only
    // on its target placement, and the next candidate's resync tears the
    // context down first anyway.
    const auto candidate = resync(ctx, moved);
    if (!candidate.has_value()) continue;
    const double cost =
        objective(*candidate, options_.delay_weight, substrate.nffg());
    const double delta = cost - current_cost;
    const bool accept =
        delta <= 0 ||
        rng.next_double() < std::exp(-delta / std::max(1e-9, temperature));
    if (!accept) continue;
    current_placement = std::move(moved);
    current = *candidate;
    current_cost = cost;
    if (cost < best_cost) {
      best = current;
      best_cost = cost;
    }
  }
  best.mapper_name = name();
  return best;
}

}  // namespace unify::mapping
