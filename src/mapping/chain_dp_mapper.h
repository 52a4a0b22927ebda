// Delay-optimal linear-chain embedding via dynamic programming (Viterbi
// over host candidates per chain stage).
//
// For each requirement chain sap_in -> nf_1 -> ... -> nf_k -> sap_out the
// mapper computes, stage by stage, the minimum accumulated path delay of
// hosting nf_i on each feasible BiS-BiS, with transition costs equal to the
// current min-delay substrate distance under the link's bandwidth floor.
// This is optimal for a single chain w.r.t. the distance estimates; chains
// are processed sequentially, and inter-chain capacity conflicts are
// resolved by banning the offending (NF, host) pair and re-running the DP.
#pragma once

#include "mapping/mapper.h"

namespace unify::mapping {

class ChainDpMapper final : public Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "chain-dp"; }
  [[nodiscard]] Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const override;
};

}  // namespace unify::mapping
