// Greedy chain embedding: walk each requirement's chain and place every NF
// on the feasible host minimizing (distance from the previous chain
// element, utilization, id). Fast and good on meshy substrates; no
// backtracking, so it can miss feasible mappings under tight constraints.
#pragma once

#include "mapping/mapper.h"

namespace unify::mapping {

class GreedyMapper final : public Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const override;
};

}  // namespace unify::mapping
