// Configuration deltas: the NF placements and flowrules that turn one NFFG
// configuration into another, as native operations.
//
// BaseAdapter::apply diffs the desired slice against the domain's current
// one and executes the difference (DESIGN.md §6.4). A delta only carries
// the parts a manager owns: NF placements and flowrules. Infrastructure
// topology and link reservations are derived/owned by the layer below.
//
// This is not the northbound edit-config delta (nffg_delta.h). That one
// must rebuild the whole target exactly, order, SAPs, links, hints and
// constraints included; this one describes operations, so a rule that
// touches a replaced NF is reinstalled (the NF removal tears it down) and
// rule order is not kept.
#pragma once

#include <string>
#include <vector>

#include "model/nffg.h"
#include "util/result.h"

namespace unify::model {

struct NfPlacement {
  std::string bisbis;
  NfInstance nf;
};
struct NfRemoval {
  std::string bisbis;
  std::string nf_id;
};
struct RuleInstall {
  std::string bisbis;
  Flowrule rule;
};
struct RuleRemoval {
  std::string bisbis;
  std::string rule_id;
};

/// An ordered edit script: removals first (freeing resources), then adds.
struct ConfigDelta {
  std::vector<RuleRemoval> rule_removals;
  std::vector<NfRemoval> nf_removals;
  std::vector<NfPlacement> nf_placements;
  std::vector<RuleInstall> rule_installs;

  [[nodiscard]] bool empty() const noexcept {
    return rule_removals.empty() && nf_removals.empty() &&
           nf_placements.empty() && rule_installs.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return rule_removals.size() + nf_removals.size() + nf_placements.size() +
           rule_installs.size();
  }
};

/// Computes the delta transforming `base`'s NF/flowrule configuration into
/// `target`'s. Both must describe the same infrastructure (same BiS-BiS
/// ids); NF operational status is ignored (it flows north, not south).
/// A modified NF or flowrule appears as removal + placement.
[[nodiscard]] Result<ConfigDelta> diff(const Nffg& base, const Nffg& target);

/// Applies a delta in order (removals, placements, installs) with the usual
/// capacity/reference checks. On failure the NFFG may be partially updated;
/// callers that need atomicity apply to a copy first.
[[nodiscard]] Result<void> apply(Nffg& nffg, const ConfigDelta& delta);

}  // namespace unify::model
