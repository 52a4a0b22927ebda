#include "mapping/baseline_mappers.h"

#include "mapping/context.h"
#include "util/rng.h"

namespace unify::mapping {

Result<Mapping> FirstFitMapper::map(const sg::ServiceGraph& sg,
                                    const SubstrateView& substrate,
                                    const catalog::NfCatalog& catalog) const {
  Context ctx(sg, substrate, catalog);
  for (const auto& [nf_id, nf] : sg.nfs()) {
    const auto cands = ctx.candidates(nf);
    bool placed = false;
    for (const std::string& host : cands) {
      if (ctx.place(nf_id, host).ok()) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      return Error{ErrorCode::kInfeasible, "no feasible host for " + nf_id};
    }
  }
  UNIFY_RETURN_IF_ERROR(ctx.route_all());
  UNIFY_RETURN_IF_ERROR(ctx.check_requirements());
  return ctx.finish(name());
}

Result<Mapping> RandomMapper::map(const sg::ServiceGraph& sg,
                                  const SubstrateView& substrate,
                                  const catalog::NfCatalog& catalog) const {
  Rng rng(seed_);
  constexpr int kAttempts = 32;
  Error last{ErrorCode::kInfeasible, "no attempt made"};
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    Context ctx(sg, substrate, catalog);
    bool placed_all = true;
    for (const auto& [nf_id, nf] : sg.nfs()) {
      const auto cands = ctx.candidates(nf);
      if (cands.empty()) {
        last = Error{ErrorCode::kInfeasible, "no feasible host for " + nf_id};
        placed_all = false;
        break;
      }
      const auto pick = cands[rng.next_below(cands.size())];
      if (const auto res = ctx.place(nf_id, pick); !res.ok()) {
        last = res.error();
        placed_all = false;
        break;
      }
    }
    if (!placed_all) continue;
    if (const auto res = ctx.route_all(); !res.ok()) {
      last = res.error();
      continue;
    }
    if (const auto res = ctx.check_requirements(); !res.ok()) {
      last = res.error();
      continue;
    }
    return ctx.finish(name());
  }
  return Error{last.code,
               "random placement failed after " +
                   std::to_string(kAttempts) + " attempts: " + last.message};
}

}  // namespace unify::mapping
