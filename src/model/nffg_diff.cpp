#include "model/nffg_diff.h"

#include <set>
#include <string_view>
#include <unordered_map>

namespace unify::model {

namespace {

/// NF equality for diffing: status is operational state, not configuration.
bool nf_config_equal(const NfInstance& a, const NfInstance& b) noexcept {
  return a.type == b.type && a.requirement == b.requirement &&
         a.ports == b.ports;
}

}  // namespace

Result<ConfigDelta> diff(const Nffg& base, const Nffg& target) {
  ConfigDelta delta;
  // The delta is meaningful only over identical infrastructure.
  for (const auto& [id, bb] : target.bisbis()) {
    if (base.find_bisbis(id) == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "target has BiS-BiS " + id + " unknown to base"};
    }
  }
  for (const auto& [id, base_bb] : base.bisbis()) {
    const BisBis* target_bb = target.find_bisbis(id);
    if (target_bb == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "base has BiS-BiS " + id + " unknown to target"};
    }

    // NFs.
    std::set<std::string> replaced_nfs;  // removed or modified on this node
    for (const auto& [nf_id, base_nf] : base_bb.nfs) {
      const auto it = target_bb->nfs.find(nf_id);
      if (it == target_bb->nfs.end()) {
        delta.nf_removals.push_back(NfRemoval{id, nf_id});
        replaced_nfs.insert(nf_id);
      } else if (!nf_config_equal(base_nf, it->second)) {
        delta.nf_removals.push_back(NfRemoval{id, nf_id});
        delta.nf_placements.push_back(NfPlacement{id, it->second});
        replaced_nfs.insert(nf_id);
      }
    }
    for (const auto& [nf_id, target_nf] : target_bb->nfs) {
      if (base_bb.nfs.count(nf_id) == 0) {
        delta.nf_placements.push_back(NfPlacement{id, target_nf});
      }
    }

    // Flowrules (identified by id within the node). A rule whose endpoints
    // touch a replaced NF must be reinstalled even when textually
    // unchanged: applying the NF removal implicitly tears the rule down.
    // Each side's rules are indexed by id once, so a node costs
    // O(rules), not O(rules^2).
    const auto touches_replaced = [&](const Flowrule& fr) {
      return replaced_nfs.count(fr.in.node) != 0 ||
             replaced_nfs.count(fr.out.node) != 0;
    };
    const auto by_id = [](const std::vector<Flowrule>& rules) {
      std::unordered_map<std::string_view, const Flowrule*> index;
      index.reserve(rules.size());
      for (const Flowrule& fr : rules) index.emplace(fr.id, &fr);
      return index;
    };
    const auto base_rules = by_id(base_bb.flowrules);
    const auto target_rules = by_id(target_bb->flowrules);
    for (const Flowrule& base_fr : base_bb.flowrules) {
      const auto it = target_rules.find(base_fr.id);
      if (it == target_rules.end()) {
        delta.rule_removals.push_back(RuleRemoval{id, base_fr.id});
      } else if (!(*it->second == base_fr) || touches_replaced(base_fr)) {
        delta.rule_removals.push_back(RuleRemoval{id, base_fr.id});
        delta.rule_installs.push_back(RuleInstall{id, *it->second});
      }
    }
    for (const Flowrule& target_fr : target_bb->flowrules) {
      if (base_rules.count(target_fr.id) == 0) {
        delta.rule_installs.push_back(RuleInstall{id, target_fr});
      }
    }
  }
  return delta;
}

Result<void> apply(Nffg& nffg, const ConfigDelta& delta) {
  for (const RuleRemoval& rr : delta.rule_removals) {
    UNIFY_RETURN_IF_ERROR(nffg.remove_flowrule(rr.bisbis, rr.rule_id));
  }
  for (const NfRemoval& nr : delta.nf_removals) {
    UNIFY_RETURN_IF_ERROR(nffg.remove_nf(nr.bisbis, nr.nf_id));
  }
  for (const NfPlacement& np : delta.nf_placements) {
    UNIFY_RETURN_IF_ERROR(nffg.place_nf(np.bisbis, np.nf));
  }
  // diff() lists each node's installs together: one add_flowrules per run.
  const auto& installs = delta.rule_installs;
  for (auto run = installs.begin(); run != installs.end();) {
    std::vector<Flowrule> rules;
    auto it = run;
    for (; it != installs.end() && it->bisbis == run->bisbis; ++it) {
      rules.push_back(it->rule);
    }
    UNIFY_RETURN_IF_ERROR(nffg.add_flowrules(run->bisbis, std::move(rules)));
    run = it;
  }
  return Result<void>::success();
}

}  // namespace unify::model
