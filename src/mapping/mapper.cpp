#include "mapping/mapper.h"

#include <algorithm>
#include <map>
#include <set>

#include "model/topology_index.h"

namespace unify::mapping {

namespace {

/// Port of BiS-BiS `node` on substrate link `link`.
Result<int> port_on(const model::Link& link, const std::string& node) {
  if (link.from.node == node) return link.from.port;
  if (link.to.node == node) return link.to.port;
  return Error{ErrorCode::kInternal,
               "link " + link.id + " does not touch " + node};
}

/// The node a path step leads to, given where we came from.
Result<std::string> other_end(const model::Link& link,
                              const std::string& from) {
  if (link.from.node == from) return link.to.node;
  if (link.to.node == from) return link.from.node;
  return Error{ErrorCode::kInvalidArgument,
               "path link " + link.id + " discontinuous at " + from};
}

struct ResolvedEndpoints {
  std::string from_node;  ///< substrate node of link.from (SAP or host)
  std::string to_node;
  bool from_is_nf = false;
  bool to_is_nf = false;
};

Result<ResolvedEndpoints> resolve_endpoints(const sg::ServiceGraph& sg,
                                            const Mapping& mapping,
                                            const sg::SgLink& link) {
  ResolvedEndpoints out;
  const auto resolve = [&](const model::PortRef& ref, std::string& node,
                           bool& is_nf) -> Result<void> {
    if (sg.has_sap(ref.node)) {
      node = ref.node;
      is_nf = false;
      return Result<void>::success();
    }
    const auto it = mapping.nf_host.find(ref.node);
    if (it == mapping.nf_host.end()) {
      return Error{ErrorCode::kInvalidArgument,
                   "SG link " + link.id + " endpoint NF " + ref.node +
                       " has no placement"};
    }
    node = it->second;
    is_nf = true;
    return Result<void>::success();
  };
  UNIFY_RETURN_IF_ERROR(resolve(link.from, out.from_node, out.from_is_nf));
  UNIFY_RETURN_IF_ERROR(resolve(link.to, out.to_node, out.to_is_nf));
  return out;
}

/// Walks the recorded path and returns the node sequence (from -> to),
/// validating continuity against `nffg`.
Result<std::vector<std::string>> path_nodes(const model::Nffg& nffg,
                                            const PathInfo& path,
                                            const std::string& from,
                                            const std::string& to) {
  std::vector<std::string> nodes{from};
  std::string cur = from;
  for (const std::string& link_id : path.links) {
    const model::Link* link = nffg.find_link(link_id);
    if (link == nullptr) {
      return Error{ErrorCode::kNotFound, "substrate link " + link_id};
    }
    UNIFY_ASSIGN_OR_RETURN(cur, other_end(*link, cur));
    nodes.push_back(cur);
  }
  if (cur != to) {
    return Error{ErrorCode::kInvalidArgument,
                 "path ends at " + cur + ", expected " + to};
  }
  return nodes;
}

/// Where one SG link's flowrules live: the path's nodes (from -> to) and
/// the index range [first_bb, last_bb] of those that host a rule (SAP
/// endpoints are passive). install_mapping and uninstall_mapping both
/// place rules from here, so an uninstall erases exactly what the install
/// made.
struct LinkRoute {
  ResolvedEndpoints ep;
  std::vector<std::string> nodes;
  std::size_t first_bb = 0;
  std::size_t last_bb = 0;
};

Result<LinkRoute> route_link(const model::Nffg& nffg,
                             const sg::ServiceGraph& sg,
                             const Mapping& mapping, const sg::SgLink& link,
                             const PathInfo& path) {
  LinkRoute out;
  UNIFY_ASSIGN_OR_RETURN(out.ep, resolve_endpoints(sg, mapping, link));
  UNIFY_ASSIGN_OR_RETURN(
      out.nodes, path_nodes(nffg, path, out.ep.from_node, out.ep.to_node));
  if (!out.ep.from_is_nf && !out.ep.to_is_nf && out.nodes.size() == 1) {
    return Error{ErrorCode::kInvalidArgument,
                 "SG link " + link.id + " connects a SAP to itself"};
  }
  const std::size_t last = out.nodes.size() - 1;
  out.first_bb = out.ep.from_is_nf ? 0 : 1;
  out.last_bb = out.ep.to_is_nf ? last : last - 1;
  return out;
}

/// Tag of the rules realizing SG link `link_id` of `sg`: qualified by the
/// request so concurrent services may reuse SG link ids without colliding
/// in the substrate.
std::string link_tag(const sg::ServiceGraph& sg, const std::string& link_id) {
  return sg.id() + ":" + link_id;
}

/// Id of the rule carrying `tag` on BiS-BiS `node`.
std::string rule_id(const std::string& tag, const std::string& node) {
  return tag + "@" + node;
}

}  // namespace

Result<void> verify_mapping(const sg::ServiceGraph& sg,
                            const model::Nffg& substrate,
                            const catalog::NfCatalog& catalog,
                            const Mapping& mapping) {
  // 1. Every SG NF placed exactly once, on an existing node, type-supported;
  //    cumulative footprints fit residual capacity.
  std::map<std::string, model::Resources> extra;
  for (const auto& [nf_id, nf] : sg.nfs()) {
    const auto it = mapping.nf_host.find(nf_id);
    if (it == mapping.nf_host.end()) {
      return Error{ErrorCode::kInvalidArgument, "NF " + nf_id + " unplaced"};
    }
    const model::BisBis* bb = substrate.find_bisbis(it->second);
    if (bb == nullptr) {
      return Error{ErrorCode::kNotFound, "host " + it->second};
    }
    if (!bb->supports_nf_type(nf.type)) {
      return Error{ErrorCode::kRejected,
                   "host " + it->second + " does not support " + nf.type};
    }
    UNIFY_ASSIGN_OR_RETURN(
        const model::Resources need,
        catalog.footprint(nf.type, nf.requirement_override));
    extra[it->second] += need;
  }
  for (const auto& [host, need] : extra) {
    if (!substrate.find_bisbis(host)->residual().fits(need)) {
      return Error{ErrorCode::kResourceExhausted,
                   "host " + host + " cannot fit mapped NFs"};
    }
  }

  // 1b. Placement constraints.
  for (const sg::PlacementConstraint& c : sg.constraints()) {
    const auto host_of = [&](const std::string& nf) -> const std::string* {
      const auto it = mapping.nf_host.find(nf);
      return it == mapping.nf_host.end() ? nullptr : &it->second;
    };
    switch (c.kind) {
      case sg::ConstraintKind::kPin:
        if (const std::string* host = host_of(c.nf_a);
            host != nullptr && *host != c.host) {
          return Error{ErrorCode::kRejected,
                       c.nf_a + " pinned to " + c.host + " but placed on " +
                           *host};
        }
        break;
      case sg::ConstraintKind::kForbid:
        if (const std::string* host = host_of(c.nf_a);
            host != nullptr && *host == c.host) {
          return Error{ErrorCode::kRejected,
                       c.nf_a + " placed on forbidden host " + c.host};
        }
        break;
      case sg::ConstraintKind::kAntiAffinity: {
        const std::string* a = host_of(c.nf_a);
        const std::string* b = host_of(c.nf_b);
        if (a != nullptr && b != nullptr && *a == *b) {
          return Error{ErrorCode::kRejected,
                       c.nf_a + " and " + c.nf_b +
                           " are anti-affine but share host " + *a};
        }
        break;
      }
    }
  }

  // 2. Paths: continuity, endpoints, cumulative bandwidth, delay bookkeeping.
  std::map<std::string, double> reserved_extra;
  for (const sg::SgLink& link : sg.links()) {
    const auto path_it = mapping.link_paths.find(link.id);
    if (path_it == mapping.link_paths.end()) {
      return Error{ErrorCode::kInvalidArgument,
                   "SG link " + link.id + " unrouted"};
    }
    UNIFY_ASSIGN_OR_RETURN(const ResolvedEndpoints ep,
                           resolve_endpoints(sg, mapping, link));
    if (ep.from_node == ep.to_node && !path_it->second.links.empty()) {
      return Error{ErrorCode::kInvalidArgument,
                   "SG link " + link.id + " colocated but has a path"};
    }
    if (ep.from_node != ep.to_node && path_it->second.links.empty()) {
      return Error{ErrorCode::kInvalidArgument,
                   "SG link " + link.id + " spans nodes but has no path"};
    }
    UNIFY_RETURN_IF_ERROR(path_nodes(substrate, path_it->second, ep.from_node,
                                     ep.to_node));
    for (const std::string& substrate_link : path_it->second.links) {
      reserved_extra[substrate_link] += link.bandwidth;
    }
  }
  for (const auto& [link_id, extra_bw] : reserved_extra) {
    const model::Link* link = substrate.find_link(link_id);
    if (link->residual_bandwidth() + 1e-9 < extra_bw) {
      return Error{ErrorCode::kResourceExhausted,
                   "substrate link " + link_id + " overcommitted by mapping"};
    }
  }

  // 3. Requirements.
  for (const sg::E2eRequirement& req : sg.requirements()) {
    UNIFY_ASSIGN_OR_RETURN(const auto chain, sg.chain_for(req));
    double delay = 0;
    for (const sg::SgLink* link : chain) {
      delay += mapping.link_paths.at(link->id).delay;
    }
    if (delay > req.max_delay + 1e-9) {
      return Error{ErrorCode::kInfeasible,
                   "requirement " + req.id + " delay " +
                       strings::format_double(delay) + " > " +
                       strings::format_double(req.max_delay)};
    }
  }
  return Result<void>::success();
}

Result<void> install_mapping(model::Nffg& target, const sg::ServiceGraph& sg,
                             const catalog::NfCatalog& catalog,
                             const Mapping& mapping, bool force_placement) {
  // Place NF instances.
  for (const auto& [nf_id, host] : mapping.nf_host) {
    const sg::SgNf* nf = sg.find_nf(nf_id);
    if (nf == nullptr) {
      return Error{ErrorCode::kNotFound, "SG NF " + nf_id};
    }
    UNIFY_ASSIGN_OR_RETURN(
        const model::Resources need,
        catalog.footprint(nf->type, nf->requirement_override));
    model::NfInstance instance;
    instance.id = nf_id;
    instance.type = nf->type;
    instance.requirement = need;
    for (int p = 0; p < nf->port_count; ++p) {
      instance.ports.push_back(model::Port{p, ""});
    }
    UNIFY_RETURN_IF_ERROR(
        target.place_nf(host, std::move(instance), force_placement));
  }

  // Synthesize the tag-switched flowrule chain per SG link and reserve
  // bandwidth. The tag is the SG link id. Rules collect per node and land
  // with one add_flowrules each.
  std::map<std::string, std::vector<model::Flowrule>> rules_by_node;
  for (const sg::SgLink& link : sg.links()) {
    const auto path_it = mapping.link_paths.find(link.id);
    if (path_it == mapping.link_paths.end()) {
      return Error{ErrorCode::kInvalidArgument,
                   "SG link " + link.id + " unrouted"};
    }
    const PathInfo& path = path_it->second;
    UNIFY_ASSIGN_OR_RETURN(const LinkRoute route,
                           route_link(target, sg, mapping, link, path));
    for (const std::string& substrate_link : path.links) {
      target.find_link(substrate_link)->reserved += link.bandwidth;
    }

    const std::string qualified = link_tag(sg, link.id);
    const std::vector<std::string>& nodes = route.nodes;
    const bool multi_node = route.first_bb < route.last_bb;
    for (std::size_t i = route.first_bb; i <= route.last_bb; ++i) {
      const std::string& node = nodes[i];
      model::Flowrule rule;
      rule.id = rule_id(qualified, node);
      rule.bandwidth = link.bandwidth;
      // Ingress side.
      if (i == 0 && route.ep.from_is_nf) {
        rule.in = model::PortRef{link.from.node, link.from.port};
      } else {
        const model::Link* arriving = target.find_link(path.links[i - 1]);
        UNIFY_ASSIGN_OR_RETURN(const int port, port_on(*arriving, node));
        rule.in = model::PortRef{node, port};
      }
      // Egress side.
      if (i == nodes.size() - 1 && route.ep.to_is_nf) {
        rule.out = model::PortRef{link.to.node, link.to.port};
      } else {
        const model::Link* departing = target.find_link(path.links[i]);
        UNIFY_ASSIGN_OR_RETURN(const int port, port_on(*departing, node));
        rule.out = model::PortRef{node, port};
      }
      // Tagging: set at the first BiS-BiS, match afterwards, strip at the
      // last; single-node realizations need no tag at all.
      if (multi_node) {
        if (i == route.first_bb) {
          rule.set_tag = qualified;
        } else {
          rule.match_tag = qualified;
          if (i == route.last_bb) rule.set_tag = "-";
        }
      }
      rules_by_node[node].push_back(std::move(rule));
    }
  }
  for (auto& [node, rules] : rules_by_node) {
    UNIFY_RETURN_IF_ERROR(target.add_flowrules(node, std::move(rules)));
  }
  return Result<void>::success();
}

Result<void> uninstall_mapping(model::Nffg& target,
                               const sg::ServiceGraph& sg,
                               const Mapping& mapping) {
  // Check everything before changing anything, so a failed uninstall
  // leaves `target` as it was: each SG link resolves to the nodes its
  // rules went to, each substrate link exists, each NF sits on its host.
  std::map<std::string, std::vector<std::string>> rules_by_node;
  std::vector<std::pair<model::Link*, double>> releases;
  for (const auto& [sg_link_id, path] : mapping.link_paths) {
    const sg::SgLink* link = sg.find_link(sg_link_id);
    if (link == nullptr) {
      return Error{ErrorCode::kNotFound, "SG link " + sg_link_id};
    }
    UNIFY_ASSIGN_OR_RETURN(const LinkRoute route,
                           route_link(target, sg, mapping, *link, path));
    const std::string tag = link_tag(sg, sg_link_id);
    for (std::size_t i = route.first_bb; i <= route.last_bb; ++i) {
      const std::string& node = route.nodes[i];
      rules_by_node[node].push_back(rule_id(tag, node));
    }
    for (const std::string& substrate_link : path.links) {
      releases.emplace_back(target.find_link(substrate_link),
                            link->bandwidth);
    }
  }
  for (const auto& [nf_id, host] : mapping.nf_host) {
    const model::BisBis* bb = target.find_bisbis(host);
    if (bb == nullptr) {
      return Error{ErrorCode::kNotFound, "BiS-BiS " + host};
    }
    if (bb->nfs.count(nf_id) == 0) {
      return Error{ErrorCode::kNotFound, "NF " + nf_id + " on " + host};
    }
  }

  // Remove flowrules first (removing NFs would drop NF-attached rules but
  // not transit rules on intermediate nodes); a rule already gone is
  // skipped.
  for (const auto& [node, ids] : rules_by_node) {
    model::BisBis* bb = target.find_bisbis(node);
    if (bb == nullptr) continue;
    std::erase_if(bb->flowrules, [&](const model::Flowrule& fr) {
      return std::find(ids.begin(), ids.end(), fr.id) != ids.end();
    });
  }
  for (const auto& [link, bandwidth] : releases) link->reserved -= bandwidth;
  for (const auto& [nf_id, host] : mapping.nf_host) {
    UNIFY_RETURN_IF_ERROR(target.remove_nf(host, nf_id));
  }
  return Result<void>::success();
}

EmbeddingScore score_mapping(const Mapping& mapping,
                             const model::Nffg& substrate) {
  EmbeddingScore score;
  score.cost = mapping.stats.bandwidth_hops;
  for (const auto& [req, delay] : mapping.requirement_delay) {
    score.delay += delay;
  }
  for (const auto& [nf, host] : mapping.nf_host) {
    if (const model::BisBis* bb = substrate.find_bisbis(host)) {
      score.penalty += bb->health_penalty;
    }
  }
  return score;
}

}  // namespace unify::mapping
