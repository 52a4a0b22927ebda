#include "model/nffg_diff.h"

#include <algorithm>
#include <set>

#include "model/nffg_json.h"

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
    const auto touches_replaced = [&](const Flowrule& fr) {
      return replaced_nfs.count(fr.in.node) != 0 ||
             replaced_nfs.count(fr.out.node) != 0;
    };
    for (const Flowrule& base_fr : base_bb.flowrules) {
      const Flowrule* target_fr = target_bb->find_flowrule(base_fr.id);
      if (target_fr == nullptr) {
        delta.rule_removals.push_back(RuleRemoval{id, base_fr.id});
      } else if (!(*target_fr == base_fr) || touches_replaced(base_fr)) {
        delta.rule_removals.push_back(RuleRemoval{id, base_fr.id});
        delta.rule_installs.push_back(RuleInstall{id, *target_fr});
      }
    }
    for (const Flowrule& target_fr : target_bb->flowrules) {
      if (base_bb.find_flowrule(target_fr.id) == nullptr) {
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

json::Value delta_to_json(const ConfigDelta& delta) {
  using json::Array;
  using json::Object;
  using json::Value;

  Object root;
  Array rule_removals;
  for (const RuleRemoval& rr : delta.rule_removals) {
    Object o;
    o.set("bisbis", rr.bisbis);
    o.set("rule", rr.rule_id);
    rule_removals.emplace_back(std::move(o));
  }
  root.set("rule_removals", std::move(rule_removals));

  Array nf_removals;
  for (const NfRemoval& nr : delta.nf_removals) {
    Object o;
    o.set("bisbis", nr.bisbis);
    o.set("nf", nr.nf_id);
    nf_removals.emplace_back(std::move(o));
  }
  root.set("nf_removals", std::move(nf_removals));

  Array placements;
  for (const NfPlacement& np : delta.nf_placements) {
    Object o;
    o.set("bisbis", np.bisbis);
    Object nf;
    nf.set("id", np.nf.id);
    nf.set("type", np.nf.type);
    Object res;
    res.set("cpu", np.nf.requirement.cpu);
    res.set("mem", np.nf.requirement.mem);
    res.set("storage", np.nf.requirement.storage);
    nf.set("resources", std::move(res));
    Array ports;
    for (const Port& p : np.nf.ports) {
      Object po;
      po.set("id", p.id);
      if (!p.name.empty()) po.set("name", p.name);
      ports.emplace_back(std::move(po));
    }
    nf.set("ports", std::move(ports));
    nf.set("status", to_string(np.nf.status));
    o.set("nf", std::move(nf));
    placements.emplace_back(std::move(o));
  }
  root.set("nf_placements", std::move(placements));

  Array installs;
  for (const RuleInstall& ri : delta.rule_installs) {
    Object o;
    o.set("bisbis", ri.bisbis);
    Object r;
    r.set("id", ri.rule.id);
    r.set("in", ri.rule.in.to_string());
    r.set("out", ri.rule.out.to_string());
    if (!ri.rule.match_tag.empty()) r.set("match_tag", ri.rule.match_tag);
    if (!ri.rule.set_tag.empty()) r.set("set_tag", ri.rule.set_tag);
    if (ri.rule.bandwidth != 0) r.set("bandwidth", ri.rule.bandwidth);
    o.set("rule", std::move(r));
    installs.emplace_back(std::move(o));
  }
  root.set("rule_installs", std::move(installs));
  return Value{std::move(root)};
}

Result<ConfigDelta> delta_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "delta must be a JSON object"};
  }
  ConfigDelta delta;

  const auto each = [&](const char* key, auto fn) -> Result<void> {
    const json::Value* arr = value.get(key);
    if (arr == nullptr) return Result<void>::success();
    if (!arr->is_array()) {
      return Error{ErrorCode::kProtocol,
                   std::string(key) + " must be an array"};
    }
    for (const json::Value& item : arr->as_array()) {
      if (!item.is_object()) {
        return Error{ErrorCode::kProtocol,
                     std::string(key) + " entries must be objects"};
      }
      UNIFY_RETURN_IF_ERROR(fn(item));
    }
    return Result<void>::success();
  };

  UNIFY_RETURN_IF_ERROR(
      each("rule_removals", [&](const json::Value& item) -> Result<void> {
        delta.rule_removals.push_back(
            RuleRemoval{item.get_string("bisbis"), item.get_string("rule")});
        return Result<void>::success();
      }));
  UNIFY_RETURN_IF_ERROR(
      each("nf_removals", [&](const json::Value& item) -> Result<void> {
        delta.nf_removals.push_back(
            NfRemoval{item.get_string("bisbis"), item.get_string("nf")});
        return Result<void>::success();
      }));
  UNIFY_RETURN_IF_ERROR(
      each("nf_placements", [&](const json::Value& item) -> Result<void> {
        const json::Value* nf_json = item.get("nf");
        if (nf_json == nullptr || !nf_json->is_object()) {
          return Error{ErrorCode::kProtocol, "nf_placement missing nf"};
        }
        NfInstance nf;
        nf.id = nf_json->get_string("id");
        nf.type = nf_json->get_string("type");
        if (const json::Value* res = nf_json->get("resources")) {
          nf.requirement.cpu = res->get_number("cpu");
          nf.requirement.mem = res->get_number("mem");
          nf.requirement.storage = res->get_number("storage");
        }
        if (const json::Value* ports = nf_json->get("ports")) {
          if (!ports->is_array()) {
            return Error{ErrorCode::kProtocol, "nf ports must be an array"};
          }
          for (const json::Value& pv : ports->as_array()) {
            nf.ports.push_back(Port{static_cast<int>(pv.get_int("id")),
                                    pv.get_string("name")});
          }
        }
        const std::string status = nf_json->get_string("status", "requested");
        const auto parsed = nf_status_from_string(status);
        if (!parsed.has_value()) {
          return Error{ErrorCode::kProtocol, "unknown NF status " + status};
        }
        nf.status = *parsed;
        delta.nf_placements.push_back(
            NfPlacement{item.get_string("bisbis"), std::move(nf)});
        return Result<void>::success();
      }));
  UNIFY_RETURN_IF_ERROR(
      each("rule_installs", [&](const json::Value& item) -> Result<void> {
        const json::Value* rule_json = item.get("rule");
        if (rule_json == nullptr || !rule_json->is_object()) {
          return Error{ErrorCode::kProtocol, "rule_install missing rule"};
        }
        Flowrule fr;
        fr.id = rule_json->get_string("id");
        UNIFY_ASSIGN_OR_RETURN(
            fr.in, port_ref_from_string(rule_json->get_string("in")));
        UNIFY_ASSIGN_OR_RETURN(
            fr.out, port_ref_from_string(rule_json->get_string("out")));
        fr.match_tag = rule_json->get_string("match_tag");
        fr.set_tag = rule_json->get_string("set_tag");
        fr.bandwidth = rule_json->get_number("bandwidth");
        delta.rule_installs.push_back(
            RuleInstall{item.get_string("bisbis"), std::move(fr)});
        return Result<void>::success();
      }));
  return delta;
}

}  // namespace unify::model
