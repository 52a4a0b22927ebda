#include "core/config_translate.h"

#include <algorithm>
#include <set>

namespace unify::core {

namespace {

/// The SAP (if any) on the far side of infra port (node, port) in skeleton.
std::optional<std::string> sap_behind_port(const model::Nffg& skeleton,
                                           const model::PortRef& ref) {
  for (const auto& [link_id, link] : skeleton.links()) {
    if (link.from == ref && skeleton.find_sap(link.to.node) != nullptr) {
      return link.to.node;
    }
    if (link.to == ref && skeleton.find_sap(link.from.node) != nullptr) {
      return link.from.node;
    }
  }
  return std::nullopt;
}

/// Maps a flowrule endpoint to an SG endpoint. `bb` is the rule's node.
Result<model::PortRef> map_endpoint(const model::Nffg& skeleton,
                                    const model::BisBis& bb,
                                    const model::PortRef& ref) {
  if (bb.nfs.count(ref.node) != 0) {
    return ref;  // NF port, already SG-level
  }
  if (ref.node == bb.id) {
    if (const auto sap = sap_behind_port(skeleton, ref)) {
      return model::PortRef{*sap, 0};
    }
    return Error{ErrorCode::kInvalidArgument,
                 "chain endpoint " + ref.to_string() +
                     " does not face a SAP"};
  }
  return Error{ErrorCode::kInvalidArgument,
               "unresolvable flowrule endpoint " + ref.to_string()};
}

struct RuleRef {
  const model::BisBis* bb;
  const model::Flowrule* rule;
};

}  // namespace

Result<TranslatedConfig> config_to_service_graph(const model::Nffg& config,
                                                 const model::Nffg& skeleton,
                                                 const std::string& sg_id) {
  TranslatedConfig out;
  out.sg.set_id(sg_id);

  // SAPs and NFs.
  for (const auto& [sap_id, sap] : skeleton.saps()) {
    UNIFY_RETURN_IF_ERROR(out.sg.add_sap(sap_id, sap.name));
  }
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const auto& [nf_id, nf] : bb.nfs) {
      UNIFY_RETURN_IF_ERROR(out.sg.add_nf(sg::SgNf{
          nf_id, nf.type, static_cast<int>(nf.ports.size()),
          nf.requirement}));
      out.pinned_hosts.emplace(nf_id, bb_id);
    }
  }

  // Flowrules -> SG links. Untagged rules translate directly; tagged rules
  // are chain segments grouped by tag.
  std::map<std::string, std::vector<RuleRef>> chains;  // tag -> segments
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const model::Flowrule& rule : bb.flowrules) {
      if (rule.match_tag.empty() && rule.set_tag.empty()) {
        UNIFY_ASSIGN_OR_RETURN(const model::PortRef from,
                               map_endpoint(skeleton, bb, rule.in));
        UNIFY_ASSIGN_OR_RETURN(const model::PortRef to,
                               map_endpoint(skeleton, bb, rule.out));
        UNIFY_RETURN_IF_ERROR(
            out.sg.add_link(sg::SgLink{rule.id, from, to, rule.bandwidth}));
      } else {
        const std::string& tag =
            !rule.match_tag.empty() ? rule.match_tag
                                    : rule.set_tag;  // starter carries set
        chains[tag].push_back(RuleRef{&bb, &rule});
      }
    }
  }
  for (const auto& [tag, segments] : chains) {
    // A slice may hold only part of a chain (the rest lives in sibling
    // domains), so heads/tails are found structurally: a segment with no
    // same-tag feeder through an intra-config link starts the local chain,
    // one that feeds nobody ends it. Endpoints of the local chain then map
    // to NF ports or SAP-facing node ports (stitching SAPs included) —
    // exactly what re-orchestration below needs.
    const auto feeds = [&](const RuleRef& a, const RuleRef& b) {
      if (a.rule->out.node != a.bb->id || b.rule->in.node != b.bb->id) {
        return false;  // NF-port endpoints terminate chains
      }
      for (const auto& [link_id, link] : config.links()) {
        if (link.from == a.rule->out && link.to == b.rule->in) return true;
      }
      return false;
    };
    const RuleRef* head = nullptr;
    const RuleRef* tail = nullptr;
    double bandwidth = 0;
    for (const RuleRef& seg : segments) {
      bandwidth = std::max(bandwidth, seg.rule->bandwidth);
      bool has_feeder = false;
      bool feeds_other = false;
      for (const RuleRef& other : segments) {
        if (&other == &seg) continue;
        has_feeder |= feeds(other, seg);
        feeds_other |= feeds(seg, other);
      }
      if (!has_feeder) {
        if (head != nullptr) {
          return Error{ErrorCode::kInvalidArgument,
                       "tag chain " + tag + " has two heads"};
        }
        head = &seg;
      }
      if (!feeds_other) {
        if (tail != nullptr) {
          return Error{ErrorCode::kInvalidArgument,
                       "tag chain " + tag + " has two tails"};
        }
        tail = &seg;
      }
    }
    if (head == nullptr || tail == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "tag chain " + tag + " is missing head or tail"};
    }
    UNIFY_ASSIGN_OR_RETURN(
        const model::PortRef from,
        map_endpoint(skeleton, *head->bb, head->rule->in));
    UNIFY_ASSIGN_OR_RETURN(
        const model::PortRef to,
        map_endpoint(skeleton, *tail->bb, tail->rule->out));
    UNIFY_RETURN_IF_ERROR(
        out.sg.add_link(sg::SgLink{tag, from, to, bandwidth}));
  }

  // Hints -> requirements.
  for (const model::ServiceHint& hint : config.hints()) {
    UNIFY_RETURN_IF_ERROR(out.sg.add_requirement(sg::E2eRequirement{
        hint.id, hint.from_sap, hint.to_sap, hint.max_delay,
        hint.min_bandwidth, hint.via}));
  }

  // Constraints ride along; pin/forbid constraints whose host is a node of
  // *this* view were about the view itself and carry no meaning below
  // (they are enforced by the placement encoded in the config already).
  for (const model::PlacementConstraint& c : config.constraints()) {
    if (c.kind != model::ConstraintKind::kAntiAffinity &&
        skeleton.find_bisbis(c.host) != nullptr) {
      continue;
    }
    UNIFY_RETURN_IF_ERROR(out.sg.add_constraint(c));
  }
  return out;
}

Result<model::Nffg> service_graph_to_config(const sg::ServiceGraph& sg,
                                            const model::Nffg& base,
                                            const std::string& big_node) {
  model::Nffg config = base;
  const model::BisBis* bb = config.find_bisbis(big_node);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "big node " + big_node + " in view"};
  }

  // Port facing each SAP (from the view's links).
  std::map<std::string, int> sap_port;
  for (const auto& [link_id, link] : config.links()) {
    if (config.find_sap(link.from.node) != nullptr &&
        link.to.node == big_node) {
      sap_port[link.from.node] = link.to.port;
    }
  }

  for (const auto& [nf_id, nf] : sg.nfs()) {
    model::NfInstance instance;
    instance.id = nf_id;
    instance.type = nf.type;
    instance.requirement = nf.requirement_override;
    for (int p = 0; p < nf.port_count; ++p) {
      instance.ports.push_back(model::Port{p, ""});
    }
    // Requirements are resolved below; the view capacity check would need
    // the catalog, so placement is forced (the RO re-checks during
    // mapping anyway).
    UNIFY_RETURN_IF_ERROR(config.place_nf(big_node, std::move(instance),
                                          /*force=*/true));
  }
  std::vector<model::Flowrule> rules;
  rules.reserve(sg.links().size());
  for (const sg::SgLink& link : sg.links()) {
    const auto endpoint = [&](const model::PortRef& ref)
        -> Result<model::PortRef> {
      if (sg.has_sap(ref.node)) {
        const auto it = sap_port.find(ref.node);
        if (it == sap_port.end()) {
          return Error{ErrorCode::kNotFound,
                       "view has no port facing SAP " + ref.node};
        }
        return model::PortRef{big_node, it->second};
      }
      return ref;
    };
    model::Flowrule rule;
    rule.id = link.id;
    UNIFY_ASSIGN_OR_RETURN(rule.in, endpoint(link.from));
    UNIFY_ASSIGN_OR_RETURN(rule.out, endpoint(link.to));
    rule.bandwidth = link.bandwidth;
    rules.push_back(std::move(rule));
  }
  UNIFY_RETURN_IF_ERROR(config.add_flowrules(big_node, std::move(rules)));
  std::vector<model::ServiceHint> hints;
  hints.reserve(sg.requirements().size());
  for (const sg::E2eRequirement& req : sg.requirements()) {
    hints.push_back(model::ServiceHint{req.id, req.from_sap, req.to_sap,
                                       req.max_delay, req.min_bandwidth,
                                       req.via});
  }
  UNIFY_RETURN_IF_ERROR(config.add_hints(std::move(hints)));
  for (const sg::PlacementConstraint& c : sg.constraints()) {
    UNIFY_RETURN_IF_ERROR(config.add_constraint(c));
  }
  return config;
}

}  // namespace unify::core
