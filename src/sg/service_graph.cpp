#include "sg/service_graph.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

namespace unify::sg {

template <typename Items>
std::size_t ServiceGraph::IdIndex::find(const Items& items,
                                        std::string_view id) const noexcept {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(id) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == 0) return kNone;
    if (items[slots_[i] - 1].id == id) return slots_[i] - 1;
  }
}

template <typename Items>
void ServiceGraph::IdIndex::add_last(const Items& items) {
  if (2 * items.size() > slots_.size()) {
    rebuild(items);  // keeps the load factor at or below 1/2
  } else {
    place(items.back().id, items.size() - 1);
  }
}

template <typename Items>
void ServiceGraph::IdIndex::rebuild(const Items& items) {
  std::size_t capacity = items.empty() ? 0 : 8;
  while (capacity < 2 * items.size()) capacity *= 2;
  slots_.assign(capacity, 0);
  for (std::size_t i = 0; i < items.size(); ++i) place(items[i].id, i);
}

void ServiceGraph::IdIndex::place(std::string_view id, std::size_t position) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(id) & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint32_t>(position + 1);
}

Result<void> ServiceGraph::add_sap(std::string id, std::string name) {
  if (id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "SAP id must not be empty"};
  }
  if (saps_.count(id) != 0 || nfs_.count(id) != 0) {
    return Error{ErrorCode::kAlreadyExists, "node " + id};
  }
  saps_.emplace(std::move(id), std::move(name));
  return Result<void>::success();
}

Result<void> ServiceGraph::add_nf(SgNf nf) {
  if (nf.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "NF id must not be empty"};
  }
  if (saps_.count(nf.id) != 0 || nfs_.count(nf.id) != 0) {
    return Error{ErrorCode::kAlreadyExists, "node " + nf.id};
  }
  if (nf.port_count <= 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "NF " + nf.id + " must have at least one port"};
  }
  nfs_.emplace(nf.id, std::move(nf));
  return Result<void>::success();
}

bool ServiceGraph::endpoint_ok(const PortRef& ref) const noexcept {
  if (saps_.count(ref.node) != 0) return ref.port == 0;
  const auto it = nfs_.find(ref.node);
  return it != nfs_.end() && ref.port >= 0 &&
         ref.port < it->second.port_count;
}

Result<void> ServiceGraph::add_link(SgLink link) {
  if (link.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "link id must not be empty"};
  }
  if (link_index_.find(links_, link.id) != IdIndex::kNone) {
    return Error{ErrorCode::kAlreadyExists, "link " + link.id};
  }
  if (link.bandwidth < 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "link " + link.id + " has negative bandwidth"};
  }
  for (const PortRef* ref : {&link.from, &link.to}) {
    if (!endpoint_ok(*ref)) {
      return Error{ErrorCode::kNotFound,
                   "link " + link.id + " endpoint " + ref->to_string()};
    }
  }
  links_.push_back(std::move(link));
  link_index_.add_last(links_);
  return Result<void>::success();
}

Result<void> ServiceGraph::add_requirement(E2eRequirement req) {
  if (req.id.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "requirement id must not be empty"};
  }
  if (requirement_index_.find(requirements_, req.id) != IdIndex::kNone) {
    return Error{ErrorCode::kAlreadyExists, "requirement " + req.id};
  }
  for (const std::string* sap : {&req.from_sap, &req.to_sap}) {
    if (saps_.count(*sap) == 0) {
      return Error{ErrorCode::kNotFound, "requirement SAP " + *sap};
    }
  }
  if (req.max_delay <= 0 || req.min_bandwidth < 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "requirement " + req.id + " has non-positive constraints"};
  }
  requirements_.push_back(std::move(req));
  requirement_index_.add_last(requirements_);
  return Result<void>::success();
}

Result<void> ServiceGraph::add_constraint(PlacementConstraint constraint) {
  if (nfs_.count(constraint.nf_a) == 0) {
    return Error{ErrorCode::kNotFound, "constraint NF " + constraint.nf_a};
  }
  if (constraint.kind == ConstraintKind::kAntiAffinity) {
    if (nfs_.count(constraint.nf_b) == 0) {
      return Error{ErrorCode::kNotFound, "constraint NF " + constraint.nf_b};
    }
    if (constraint.nf_a == constraint.nf_b) {
      return Error{ErrorCode::kInvalidArgument,
                   "anti-affinity of an NF with itself"};
    }
  } else if (constraint.host.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "pin/forbid constraints need a host"};
  }
  constraints_.push_back(std::move(constraint));
  return Result<void>::success();
}

Result<void> ServiceGraph::remove_nf(const std::string& id) {
  if (nfs_.erase(id) == 0) {
    return Error{ErrorCode::kNotFound, "NF " + id};
  }
  links_.erase(std::remove_if(links_.begin(), links_.end(),
                              [&](const SgLink& l) {
                                return l.from.node == id || l.to.node == id;
                              }),
               links_.end());
  link_index_.rebuild(links_);
  return Result<void>::success();
}

const SgNf* ServiceGraph::find_nf(const std::string& id) const noexcept {
  const auto it = nfs_.find(id);
  return it == nfs_.end() ? nullptr : &it->second;
}

const SgLink* ServiceGraph::find_link(const std::string& id) const noexcept {
  const std::size_t at = link_index_.find(links_, id);
  return at == IdIndex::kNone ? nullptr : &links_[at];
}

const E2eRequirement* ServiceGraph::find_requirement(
    const std::string& id) const noexcept {
  const std::size_t at = requirement_index_.find(requirements_, id);
  return at == IdIndex::kNone ? nullptr : &requirements_[at];
}

std::vector<std::string> ServiceGraph::validate() const {
  std::vector<std::string> problems;
  for (const SgLink& l : links_) {
    for (const PortRef* ref : {&l.from, &l.to}) {
      if (!endpoint_ok(*ref)) {
        problems.push_back("link " + l.id + " endpoint " + ref->to_string() +
                           " unresolvable");
      }
    }
    if (l.bandwidth < 0) {
      problems.push_back("link " + l.id + " has negative bandwidth");
    }
  }
  for (const E2eRequirement& r : requirements_) {
    for (const std::string* sap : {&r.from_sap, &r.to_sap}) {
      if (saps_.count(*sap) == 0) {
        problems.push_back("requirement " + r.id + " references unknown SAP " +
                           *sap);
      }
    }
  }
  for (const PlacementConstraint& c : constraints_) {
    if (nfs_.count(c.nf_a) == 0) {
      problems.push_back("constraint references unknown NF " + c.nf_a);
    }
    if (c.kind == ConstraintKind::kAntiAffinity && nfs_.count(c.nf_b) == 0) {
      problems.push_back("constraint references unknown NF " + c.nf_b);
    }
  }
  // Every NF should be on some link, otherwise it can never carry traffic.
  for (const auto& [id, nf] : nfs_) {
    const bool used = std::any_of(links_.begin(), links_.end(),
                                  [&](const SgLink& l) {
                                    return l.from.node == id ||
                                           l.to.node == id;
                                  });
    if (!used) problems.push_back("NF " + id + " is not on any chain link");
  }
  return problems;
}

Result<std::vector<const SgLink*>> ServiceGraph::chain_for(
    const E2eRequirement& req) const {
  // BFS over directed links from from_sap to to_sap; nodes are SAP/NF ids.
  std::map<std::string, const SgLink*> via;  // node -> link we arrived by
  std::queue<std::string> frontier;
  frontier.push(req.from_sap);
  std::set<std::string> seen{req.from_sap};
  while (!frontier.empty()) {
    const std::string node = frontier.front();
    frontier.pop();
    if (node == req.to_sap) break;
    for (const SgLink& l : links_) {
      if (l.from.node != node || seen.count(l.to.node) != 0) continue;
      seen.insert(l.to.node);
      via[l.to.node] = &l;
      frontier.push(l.to.node);
    }
  }
  if (via.count(req.to_sap) == 0) {
    return Error{ErrorCode::kInfeasible,
                 "no directed chain from " + req.from_sap + " to " +
                     req.to_sap};
  }
  std::vector<const SgLink*> chain;
  std::string cur = req.to_sap;
  while (cur != req.from_sap) {
    const SgLink* l = via.at(cur);
    chain.push_back(l);
    cur = l->from.node;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

Result<std::vector<std::string>> ServiceGraph::nf_sequence_for(
    const E2eRequirement& req) const {
  UNIFY_ASSIGN_OR_RETURN(auto chain, chain_for(req));
  std::vector<std::string> sequence;
  for (const SgLink* l : chain) {
    if (nfs_.count(l->to.node) != 0) sequence.push_back(l->to.node);
  }
  return sequence;
}

Result<void> ServiceGraph::replace_nf(
    const std::string& nf_id, const std::vector<SgNf>& components,
    const std::vector<SgLink>& internal_links,
    const std::map<int, PortRef>& port_redirect) {
  if (nfs_.count(nf_id) == 0) {
    return Error{ErrorCode::kNotFound, "NF " + nf_id};
  }
  // Collect external links touching the NF and verify every used port has a
  // redirect before mutating anything.
  for (const SgLink& l : links_) {
    for (const PortRef* ref : {&l.from, &l.to}) {
      if (ref->node == nf_id && port_redirect.count(ref->port) == 0) {
        return Error{ErrorCode::kInvalidArgument,
                     "no redirect for external port " + ref->to_string()};
      }
    }
  }

  nfs_.erase(nf_id);
  for (const SgNf& c : components) {
    UNIFY_RETURN_IF_ERROR(add_nf(c));
  }
  // Re-point external links in place (ids preserved: the chain's identity
  // does not change when an NF is decomposed).
  for (SgLink& l : links_) {
    if (l.from.node == nf_id) l.from = port_redirect.at(l.from.port);
    if (l.to.node == nf_id) l.to = port_redirect.at(l.to.port);
  }
  for (const SgLink& l : internal_links) {
    UNIFY_RETURN_IF_ERROR(add_link(l));
  }
  // Constraints naming the replaced NF apply to every component
  // (conservative: an anti-affinity or forbid on the abstract NF must hold
  // for whatever realizes it).
  std::vector<PlacementConstraint> rewritten;
  for (const PlacementConstraint& c : constraints_) {
    if (c.nf_a != nf_id && c.nf_b != nf_id) {
      rewritten.push_back(c);
      continue;
    }
    for (const SgNf& component : components) {
      PlacementConstraint copy = c;
      if (copy.nf_a == nf_id) copy.nf_a = component.id;
      if (copy.nf_b == nf_id) copy.nf_b = component.id;
      if (copy.kind == ConstraintKind::kAntiAffinity &&
          copy.nf_a == copy.nf_b) {
        continue;  // degenerate after substitution
      }
      rewritten.push_back(std::move(copy));
    }
  }
  constraints_ = std::move(rewritten);
  return Result<void>::success();
}

bool operator==(const ServiceGraph& a, const ServiceGraph& b) {
  return a.id_ == b.id_ && a.name_ == b.name_ && a.saps_ == b.saps_ &&
         a.nfs_ == b.nfs_ && a.links_ == b.links_ &&
         a.requirements_ == b.requirements_ &&
         a.constraints_ == b.constraints_;
}

ServiceGraph make_chain(const std::string& id, const std::string& sap_in,
                        const std::vector<std::string>& nf_types,
                        const std::string& sap_out, double bandwidth,
                        double max_delay) {
  ServiceGraph sg{id};
  (void)sg.add_sap(sap_in);
  (void)sg.add_sap(sap_out);
  std::vector<std::string> nf_ids;
  for (std::size_t i = 0; i < nf_types.size(); ++i) {
    const std::string nf_id = nf_types[i] + std::to_string(i);
    (void)sg.add_nf(SgNf{nf_id, nf_types[i], 2, {}});
    nf_ids.push_back(nf_id);
  }
  PortRef prev{sap_in, 0};
  for (std::size_t i = 0; i < nf_ids.size(); ++i) {
    (void)sg.add_link(SgLink{"cl" + std::to_string(i), prev,
                             PortRef{nf_ids[i], 0}, bandwidth});
    prev = PortRef{nf_ids[i], 1};
  }
  (void)sg.add_link(SgLink{"cl" + std::to_string(nf_ids.size()), prev,
                           PortRef{sap_out, 0}, bandwidth});
  (void)sg.add_requirement(
      E2eRequirement{"e2e", sap_in, sap_out, max_delay, bandwidth});
  return sg;
}

}  // namespace unify::sg
