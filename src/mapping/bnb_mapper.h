// Exact branch-and-bound embedding: the ground-truth baseline the
// conformance suite measures every heuristic mapper against.
//
// Depth-first search over (NF, candidate host) assignments in chain order,
// scoring complete placements canonically (place everything, route_all in
// SG-link order, EmbeddingScore) and pruning partial ones with an
// admissible lower bound built from pristine-substrate relaxations:
//   - cost:    bandwidth × unmasked min-hops per SG link (reservations and
//              bandwidth floors only lengthen real routes);
//   - delay:   bandwidth-floor-free pure link-delay shortest paths, which
//              under-estimate route()'s biased choice (also used to prune
//              branches whose optimistic chain delay already busts a
//              requirement);
//   - penalty: placed hosts exactly, unplaced NFs by their cheapest
//              candidate.
// Half-resolved SG links relax over the unplaced end's candidate set;
// fully-unresolved links contribute zero. All three relaxations
// under-estimate the canonical objective, so a completed search is exact.
//
// Exactness is only claimed when the search finishes inside the node
// budget: BnbResult::optimal says whether the returned mapping is *proven*
// minimal w.r.t. EmbeddingScore::total(delay_weight). Instances with more
// than max_nfs NFs are refused up front (kResourceExhausted) — this is a
// baseline for small instances, not a production mapper.
#pragma once

#include <cstdint>

#include "mapping/mapper.h"

namespace unify::mapping {

struct BnbOptions {
  /// Refuse instances with more NFs than this (exactness gets exponential).
  std::size_t max_nfs = 10;
  /// Search-tree node budget; past it the incumbent is returned non-proven.
  std::size_t max_nodes = 200000;
  /// Scalarization of the objective being proven minimal.
  double delay_weight = 1.0;
};

struct BnbResult {
  Mapping mapping;
  /// True when the search completed: `mapping` is the exact optimum of
  /// EmbeddingScore::total(delay_weight) over all candidate placements.
  bool optimal = false;
  /// Root relaxation (lower bound on any placement's objective).
  double lower_bound = 0;
  std::uint64_t nodes_expanded = 0;
};

class BnbMapper final : public Mapper {
 public:
  explicit BnbMapper(BnbOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string name() const override { return "bnb"; }

  /// Full result with the optimality proof flags.
  [[nodiscard]] Result<BnbResult> map_exact(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const;

  /// Mapper interface: the incumbent of map_exact (proof flags dropped).
  [[nodiscard]] Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const override;

 private:
  BnbOptions options_;
};

}  // namespace unify::mapping
