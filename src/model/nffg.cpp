#include "model/nffg.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <memory_resource>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace unify::model {

// ------------------------------------------------------------- NfStatus

const char* to_string(NfStatus status) noexcept {
  switch (status) {
    case NfStatus::kRequested: return "requested";
    case NfStatus::kDeploying: return "deploying";
    case NfStatus::kRunning:   return "running";
    case NfStatus::kStopped:   return "stopped";
    case NfStatus::kFailed:    return "failed";
  }
  return "unknown";
}

std::optional<NfStatus> nf_status_from_string(std::string_view name) noexcept {
  if (name == "requested") return NfStatus::kRequested;
  if (name == "deploying") return NfStatus::kDeploying;
  if (name == "running") return NfStatus::kRunning;
  if (name == "stopped") return NfStatus::kStopped;
  if (name == "failed") return NfStatus::kFailed;
  return std::nullopt;
}

// ----------------------------------------------------------- NfInstance

bool NfInstance::has_port(int port) const noexcept {
  return std::any_of(ports.begin(), ports.end(),
                     [port](const Port& p) { return p.id == port; });
}

// --------------------------------------------------------------- BisBis

bool BisBis::has_port(int port) const noexcept {
  return std::any_of(ports.begin(), ports.end(),
                     [port](const Port& p) { return p.id == port; });
}

bool BisBis::supports_nf_type(const std::string& type) const noexcept {
  if (nf_types.empty()) return true;
  return std::find(nf_types.begin(), nf_types.end(), type) != nf_types.end();
}

const Flowrule* BisBis::find_flowrule(const std::string& rule_id) const noexcept {
  for (const Flowrule& fr : flowrules) {
    if (fr.id == rule_id) return &fr;
  }
  return nullptr;
}

Resources BisBis::allocated() const noexcept {
  Resources total;
  for (const auto& [id, nf] : nfs) total += nf.requirement;
  return total;
}

Resources BisBis::residual() const noexcept { return capacity - allocated(); }

// ----------------------------------------------------------------- Nffg

void Nffg::clear_service_state() {
  for (auto& [id, bb] : bisbis_) {
    bb.nfs.clear();
    bb.flowrules.clear();
  }
  for (auto& [id, link] : links_) link.reserved = 0;
  hints_.clear();
  constraints_.clear();
}

bool Nffg::has_node(const std::string& id) const noexcept {
  return bisbis_.count(id) != 0 || saps_.count(id) != 0;
}

Result<void> Nffg::add_bisbis(BisBis node) {
  if (node.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "BiS-BiS id must not be empty"};
  }
  if (has_node(node.id)) {
    return Error{ErrorCode::kAlreadyExists, "node " + node.id};
  }
  bisbis_.emplace(node.id, std::move(node));
  return Result<void>::success();
}

const BisBis* Nffg::find_bisbis(const std::string& id) const noexcept {
  const auto it = bisbis_.find(id);
  return it == bisbis_.end() ? nullptr : &it->second;
}

BisBis* Nffg::find_bisbis(const std::string& id) noexcept {
  const auto it = bisbis_.find(id);
  return it == bisbis_.end() ? nullptr : &it->second;
}

Result<void> Nffg::remove_bisbis(const std::string& id) {
  if (bisbis_.erase(id) == 0) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + id};
  }
  // Drop dangling links.
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.from.node == id || it->second.to.node == id) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  return Result<void>::success();
}

Result<void> Nffg::add_sap(Sap sap) {
  if (sap.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "SAP id must not be empty"};
  }
  if (has_node(sap.id)) {
    return Error{ErrorCode::kAlreadyExists, "node " + sap.id};
  }
  saps_.emplace(sap.id, std::move(sap));
  return Result<void>::success();
}

const Sap* Nffg::find_sap(const std::string& id) const noexcept {
  const auto it = saps_.find(id);
  return it == saps_.end() ? nullptr : &it->second;
}

Result<void> Nffg::remove_sap(const std::string& id) {
  if (saps_.erase(id) == 0) {
    return Error{ErrorCode::kNotFound, "SAP " + id};
  }
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.from.node == id || it->second.to.node == id) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  return Result<void>::success();
}

namespace {

/// A link endpoint is valid when it names a SAP (port 0) or an existing
/// infra port of a BiS-BiS.
Result<void> check_link_endpoint(const Nffg& g, const PortRef& ref) {
  if (ref.empty()) {
    return Error{ErrorCode::kInvalidArgument, "empty link endpoint"};
  }
  if (g.find_sap(ref.node) != nullptr) {
    if (ref.port != 0) {
      return Error{ErrorCode::kInvalidArgument,
                   "SAP " + ref.node + " only has port 0"};
    }
    return Result<void>::success();
  }
  if (const BisBis* bb = g.find_bisbis(ref.node)) {
    if (!bb->has_port(ref.port)) {
      return Error{ErrorCode::kNotFound,
                   "port " + ref.to_string() + " not on BiS-BiS"};
    }
    return Result<void>::success();
  }
  return Error{ErrorCode::kNotFound, "link endpoint node " + ref.node};
}

}  // namespace

Result<void> Nffg::check_link(const Link& link, bool duplicate) const {
  if (link.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "link id must not be empty"};
  }
  if (duplicate) return Error{ErrorCode::kAlreadyExists, "link " + link.id};
  UNIFY_RETURN_IF_ERROR(check_link_endpoint(*this, link.from));
  UNIFY_RETURN_IF_ERROR(check_link_endpoint(*this, link.to));
  if (link.attrs.bandwidth < 0 || link.attrs.delay < 0 || link.reserved < 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "link " + link.id + " has negative attributes"};
  }
  return Result<void>::success();
}

Result<void> Nffg::add_link(Link link) {
  UNIFY_RETURN_IF_ERROR(check_link(link, links_.count(link.id) != 0));
  links_.emplace(link.id, std::move(link));
  return Result<void>::success();
}

Result<void> Nffg::add_bidirectional_link(const std::string& id, PortRef a,
                                          PortRef b, LinkAttrs attrs) {
  UNIFY_RETURN_IF_ERROR(add_link(Link{id, a, b, attrs, 0}));
  auto back = add_link(Link{id + "-back", b, a, attrs, 0});
  if (!back.ok()) {
    (void)remove_link(id);  // keep the pair atomic
    return back;
  }
  return Result<void>::success();
}

const Link* Nffg::find_link(const std::string& id) const noexcept {
  const auto it = links_.find(id);
  return it == links_.end() ? nullptr : &it->second;
}

Link* Nffg::find_link(const std::string& id) noexcept {
  const auto it = links_.find(id);
  return it == links_.end() ? nullptr : &it->second;
}

Result<void> Nffg::remove_link(const std::string& id) {
  if (links_.erase(id) == 0) {
    return Error{ErrorCode::kNotFound, "link " + id};
  }
  return Result<void>::success();
}

Result<void> Nffg::place_nf(const std::string& bisbis_id, NfInstance nf,
                            bool force) {
  BisBis* bb = find_bisbis(bisbis_id);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + bisbis_id};
  }
  if (nf.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "NF id must not be empty"};
  }
  if (bb->nfs.count(nf.id) != 0) {
    return Error{ErrorCode::kAlreadyExists,
                 "NF " + nf.id + " on " + bisbis_id};
  }
  if (!force) {
    if (!bb->supports_nf_type(nf.type)) {
      return Error{ErrorCode::kRejected, "BiS-BiS " + bisbis_id +
                                             " does not support NF type " +
                                             nf.type};
    }
    if (!bb->residual().fits(nf.requirement)) {
      return Error{ErrorCode::kResourceExhausted,
                   "BiS-BiS " + bisbis_id + " residual " +
                       bb->residual().to_string() + " < requirement " +
                       nf.requirement.to_string()};
    }
  }
  bb->nfs.emplace(nf.id, std::move(nf));
  return Result<void>::success();
}

Result<void> Nffg::remove_nf(const std::string& bisbis_id,
                             const std::string& nf_id) {
  BisBis* bb = find_bisbis(bisbis_id);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + bisbis_id};
  }
  if (bb->nfs.erase(nf_id) == 0) {
    return Error{ErrorCode::kNotFound, "NF " + nf_id + " on " + bisbis_id};
  }
  // Remove flowrules touching the NF's ports, and constraints naming it.
  auto& rules = bb->flowrules;
  rules.erase(std::remove_if(rules.begin(), rules.end(),
                             [&](const Flowrule& fr) {
                               return fr.in.node == nf_id ||
                                      fr.out.node == nf_id;
                             }),
              rules.end());
  std::erase_if(constraints_, [&](const PlacementConstraint& c) {
    return c.nf_a == nf_id || c.nf_b == nf_id;
  });
  return Result<void>::success();
}

std::optional<std::pair<std::string, const NfInstance*>> Nffg::find_nf(
    const std::string& nf_id) const noexcept {
  for (const auto& [bb_id, bb] : bisbis_) {
    const auto it = bb.nfs.find(nf_id);
    if (it != bb.nfs.end()) return std::make_pair(bb_id, &it->second);
  }
  return std::nullopt;
}

Result<void> Nffg::check_port_ref(const std::string& bisbis_id,
                                  const PortRef& ref) const {
  const BisBis* bb = find_bisbis(bisbis_id);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + bisbis_id};
  }
  if (ref.empty()) {
    return Error{ErrorCode::kInvalidArgument, "empty flowrule port"};
  }
  // Own infra port.
  if (ref.node == bisbis_id) {
    if (!bb->has_port(ref.port)) {
      return Error{ErrorCode::kNotFound,
                   "port " + ref.to_string() + " not on " + bisbis_id};
    }
    return Result<void>::success();
  }
  // Port of an NF hosted here.
  const auto nf_it = bb->nfs.find(ref.node);
  if (nf_it != bb->nfs.end()) {
    if (!nf_it->second.has_port(ref.port)) {
      return Error{ErrorCode::kNotFound,
                   "NF port " + ref.to_string() + " missing"};
    }
    return Result<void>::success();
  }
  return Error{ErrorCode::kInvalidArgument,
               "flowrule port " + ref.to_string() + " is neither a port of " +
                   bisbis_id + " nor of an NF hosted on it"};
}

Result<void> Nffg::add_flowrule(const std::string& bisbis_id, Flowrule rule) {
  std::vector<Flowrule> rules;
  rules.push_back(std::move(rule));
  return add_flowrules(bisbis_id, std::move(rules));
}

Result<void> Nffg::check_flowrule(const std::string& bisbis_id,
                                  const Flowrule& rule, bool duplicate) const {
  if (rule.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "flowrule id must not be empty"};
  }
  if (duplicate) {
    return Error{ErrorCode::kAlreadyExists,
                 "flowrule " + rule.id + " on " + bisbis_id};
  }
  if (rule.bandwidth < 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "flowrule " + rule.id + " has negative bandwidth"};
  }
  UNIFY_RETURN_IF_ERROR(check_port_ref(bisbis_id, rule.in));
  return check_port_ref(bisbis_id, rule.out);
}

Result<void> Nffg::add_flowrules(const std::string& bisbis_id,
                                 std::vector<Flowrule> rules) {
  BisBis* bb = find_bisbis(bisbis_id);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + bisbis_id};
  }
  // id -> index of its first rule in the batch, or kTaken when the node
  // already holds that id. A rule is a duplicate unless it is its id's
  // first, untaken occurrence.
  constexpr std::size_t kTaken = static_cast<std::size_t>(-1);
  std::unordered_map<std::string_view, std::size_t> first;
  first.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    first.emplace(rules[i].id, i);
  }
  for (const Flowrule& existing : bb->flowrules) {
    if (const auto it = first.find(existing.id); it != first.end()) {
      it->second = kTaken;
    }
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    UNIFY_RETURN_IF_ERROR(check_flowrule(
        bisbis_id, rules[i], first.find(rules[i].id)->second != i));
  }
  bb->flowrules.insert(bb->flowrules.end(),
                       std::make_move_iterator(rules.begin()),
                       std::make_move_iterator(rules.end()));
  return Result<void>::success();
}

Result<void> Nffg::remove_flowrule(const std::string& bisbis_id,
                                   const std::string& rule_id) {
  BisBis* bb = find_bisbis(bisbis_id);
  if (bb == nullptr) {
    return Error{ErrorCode::kNotFound, "BiS-BiS " + bisbis_id};
  }
  auto& rules = bb->flowrules;
  const auto it =
      std::find_if(rules.begin(), rules.end(),
                   [&](const Flowrule& fr) { return fr.id == rule_id; });
  if (it == rules.end()) {
    return Error{ErrorCode::kNotFound,
                 "flowrule " + rule_id + " on " + bisbis_id};
  }
  rules.erase(it);
  return Result<void>::success();
}

Result<void> Nffg::add_hint(ServiceHint hint) {
  std::vector<ServiceHint> hints;
  hints.push_back(std::move(hint));
  return add_hints(std::move(hints));
}

Result<void> Nffg::check_hint(const ServiceHint& hint, bool duplicate) const {
  if (hint.id.empty()) {
    return Error{ErrorCode::kInvalidArgument, "hint id must not be empty"};
  }
  if (duplicate) return Error{ErrorCode::kAlreadyExists, "hint " + hint.id};
  for (const std::string* sap : {&hint.from_sap, &hint.to_sap}) {
    if (saps_.count(*sap) == 0) {
      return Error{ErrorCode::kNotFound, "hint SAP " + *sap};
    }
  }
  return Result<void>::success();
}

Result<void> Nffg::add_hints(std::vector<ServiceHint> hints) {
  // id -> index of its first hint in the batch, or kTaken when the config
  // already holds that id (the add_flowrules scheme). The set lives in a
  // stack arena so that a decoded config's few hints, which every
  // get-config reply carries, cost no heap allocation per id.
  constexpr std::size_t kTaken = static_cast<std::size_t>(-1);
  std::array<std::byte, 4096> arena;
  std::pmr::monotonic_buffer_resource pool{arena.data(), arena.size()};
  std::pmr::unordered_map<std::string_view, std::size_t> first{&pool};
  first.reserve(hints.size());
  for (std::size_t i = 0; i < hints.size(); ++i) {
    first.emplace(hints[i].id, i);
  }
  for (const ServiceHint& existing : hints_) {
    if (const auto it = first.find(existing.id); it != first.end()) {
      it->second = kTaken;
    }
  }
  for (std::size_t i = 0; i < hints.size(); ++i) {
    UNIFY_RETURN_IF_ERROR(
        check_hint(hints[i], first.find(hints[i].id)->second != i));
  }
  hints_.insert(hints_.end(), std::make_move_iterator(hints.begin()),
                std::make_move_iterator(hints.end()));
  return Result<void>::success();
}

Result<void> Nffg::remove_hint(const std::string& hint_id) {
  for (auto it = hints_.begin(); it != hints_.end(); ++it) {
    if (it->id == hint_id) {
      hints_.erase(it);
      return Result<void>::success();
    }
  }
  return Error{ErrorCode::kNotFound, "hint " + hint_id};
}

const char* to_string(ConstraintKind kind) noexcept {
  switch (kind) {
    case ConstraintKind::kAntiAffinity: return "anti-affinity";
    case ConstraintKind::kPin:          return "pin";
    case ConstraintKind::kForbid:       return "forbid";
  }
  return "unknown";
}

Result<void> Nffg::add_constraint(PlacementConstraint constraint) {
  UNIFY_RETURN_IF_ERROR(check_constraint(constraint));
  constraints_.push_back(std::move(constraint));
  return Result<void>::success();
}

Result<void> Nffg::check_constraint(
    const PlacementConstraint& constraint) const {
  if (!find_nf(constraint.nf_a).has_value()) {
    return Error{ErrorCode::kNotFound, "constraint NF " + constraint.nf_a};
  }
  if (constraint.kind == ConstraintKind::kAntiAffinity) {
    if (!find_nf(constraint.nf_b).has_value()) {
      return Error{ErrorCode::kNotFound, "constraint NF " + constraint.nf_b};
    }
  } else if (constraint.host.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "pin/forbid constraints need a host"};
  }
  return Result<void>::success();
}

Result<void> Nffg::check_references() const {
  // nffg_from_json's order: SAPs, then per node its own id, NFs and
  // flowrules, then links, hints and constraints.
  for (const auto& [id, sap] : saps_) {
    if (sap.id.empty()) {
      return Error{ErrorCode::kInvalidArgument, "SAP id must not be empty"};
    }
  }
  std::unordered_set<std::string_view> seen;
  for (const auto& [bb_id, bb] : bisbis_) {
    if (bb.id.empty()) {
      return Error{ErrorCode::kInvalidArgument, "BiS-BiS id must not be empty"};
    }
    if (saps_.count(bb.id) != 0) {
      return Error{ErrorCode::kAlreadyExists, "node " + bb.id};
    }
    for (const auto& [nf_id, nf] : bb.nfs) {
      if (nf.id.empty()) {
        return Error{ErrorCode::kInvalidArgument, "NF id must not be empty"};
      }
    }
    seen.clear();
    for (const Flowrule& rule : bb.flowrules) {
      UNIFY_RETURN_IF_ERROR(
          check_flowrule(bb_id, rule, !seen.insert(rule.id).second));
    }
  }
  for (const auto& [id, link] : links_) {
    UNIFY_RETURN_IF_ERROR(check_link(link, /*duplicate=*/false));
  }
  seen.clear();
  for (const ServiceHint& hint : hints_) {
    UNIFY_RETURN_IF_ERROR(
        check_hint(hint, !seen.insert(hint.id).second));
  }
  for (const PlacementConstraint& c : constraints_) {
    UNIFY_RETURN_IF_ERROR(check_constraint(c));
  }
  return Result<void>::success();
}

std::vector<const Link*> Nffg::links_of(const std::string& node_id) const {
  std::vector<const Link*> out;
  for (const auto& [id, link] : links_) {
    if (link.from.node == node_id || link.to.node == node_id) {
      out.push_back(&link);
    }
  }
  return out;
}

NffgStats Nffg::stats() const noexcept {
  NffgStats s;
  s.bisbis_count = bisbis_.size();
  s.sap_count = saps_.size();
  s.link_count = links_.size();
  for (const auto& [id, bb] : bisbis_) {
    s.nf_count += bb.nfs.size();
    s.flowrule_count += bb.flowrules.size();
    s.total_capacity += bb.capacity;
    s.total_allocated += bb.allocated();
  }
  return s;
}

bool operator==(const Nffg& a, const Nffg& b) {
  if (a.id_ != b.id_ || a.name_ != b.name_) return false;
  if (a.hints_ != b.hints_) return false;
  if (a.constraints_ != b.constraints_) return false;
  if (a.saps_.size() != b.saps_.size() ||
      a.bisbis_.size() != b.bisbis_.size() ||
      a.links_.size() != b.links_.size()) {
    return false;
  }
  for (const auto& [id, sap] : a.saps_) {
    const Sap* other = b.find_sap(id);
    if (other == nullptr || other->name != sap.name) return false;
  }
  for (const auto& [id, link] : a.links_) {
    const Link* other = b.find_link(id);
    if (other == nullptr || !(other->from == link.from) ||
        !(other->to == link.to) || !(other->attrs == link.attrs) ||
        other->reserved != link.reserved) {
      return false;
    }
  }
  for (const auto& [id, bb] : a.bisbis_) {
    const BisBis* o = b.find_bisbis(id);
    if (o == nullptr || o->name != bb.name || o->domain != bb.domain ||
        !(o->capacity == bb.capacity) || o->ports != bb.ports ||
        o->nf_types != bb.nf_types || o->internal_delay != bb.internal_delay ||
        o->nfs != bb.nfs || o->flowrules != bb.flowrules) {
      return false;
    }
  }
  return true;
}

}  // namespace unify::model
