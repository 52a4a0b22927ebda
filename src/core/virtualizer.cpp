#include "core/virtualizer.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "core/config_translate.h"
#include "graph/path_kernel.h"
#include "model/topology_index.h"
#include "util/log.h"

namespace unify::core {

namespace {

/// `config` without the client elements named in `ids`: their NFs (with
/// the flowrules and constraints Nffg::remove_nf drops along), the
/// flowrules realizing their links (an untagged rule by its id, chain
/// segments by their tag) and their hints.
model::Nffg without(const model::Nffg& config,
                    const std::set<std::string>& ids) {
  model::Nffg out = config;
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const auto& [nf_id, nf] : bb.nfs) {
      if (ids.count(nf_id) != 0) (void)out.remove_nf(bb_id, nf_id);
    }
  }
  for (auto& [bb_id, bb] : out.bisbis()) {
    std::erase_if(bb.flowrules, [&](const model::Flowrule& rule) {
      const std::string& link = !rule.match_tag.empty() ? rule.match_tag
                                : !rule.set_tag.empty() ? rule.set_tag
                                                        : rule.id;
      return ids.count(link) != 0;
    });
  }
  for (const std::string& id : ids) (void)out.remove_hint(id);
  return out;
}

/// The client element ids `graph` holds: its NF ids, then its link ids,
/// then its requirement ids, each group sorted.
std::vector<std::string> element_ids(const sg::ServiceGraph& graph) {
  std::vector<std::string> out;
  for (const auto& [id, nf] : graph.nfs()) out.push_back(id);
  const auto links = static_cast<std::ptrdiff_t>(out.size());
  for (const sg::SgLink& link : graph.links()) out.push_back(link.id);
  const auto reqs = static_cast<std::ptrdiff_t>(out.size());
  for (const sg::E2eRequirement& req : graph.requirements()) {
    out.push_back(req.id);
  }
  std::sort(out.begin() + links, out.begin() + reqs);
  std::sort(out.begin() + reqs, out.end());
  return out;
}

/// NF id -> the placement constraints naming it, in graph order.
using ConstraintsByNf =
    std::map<std::string_view, std::vector<const sg::PlacementConstraint*>>;

ConstraintsByNf constraints_by_nf(const sg::ServiceGraph& graph) {
  ConstraintsByNf out;
  for (const sg::PlacementConstraint& c : graph.constraints()) {
    out[c.nf_a].push_back(&c);
    if (!c.nf_b.empty() && c.nf_b != c.nf_a) out[c.nf_b].push_back(&c);
  }
  return out;
}

/// True when `desired` still holds every element of a deployed `graph`
/// unchanged: each NF (on the same host, when `pins` are kept), each NF's
/// ordered constraint list, each link and each requirement. `accepted` is
/// the config the last edit accepted.
bool holds_unchanged(const TranslatedConfig& desired,
                     const ConstraintsByNf& desired_constraints,
                     const sg::ServiceGraph& graph,
                     const ResourceOrchestrator::Pins& pins,
                     const model::Nffg& accepted) {
  static const std::vector<const sg::PlacementConstraint*> kNone;
  const auto of = [](const ConstraintsByNf& index, const std::string& nf)
      -> const std::vector<const sg::PlacementConstraint*>& {
    const auto it = index.find(nf);
    return it == index.end() ? kNone : it->second;
  };
  const ConstraintsByNf own = constraints_by_nf(graph);
  for (const auto& [id, nf] : graph.nfs()) {
    const sg::SgNf* now = desired.sg.find_nf(id);
    if (now == nullptr || !(*now == nf)) return false;
    if (!pins.empty() && desired.pinned_hosts.at(id) != pins.at(id)) {
      return false;
    }
    const auto& before = of(own, id);
    const auto& after = of(desired_constraints, id);
    if (!std::equal(before.begin(), before.end(), after.begin(), after.end(),
                    [](const auto* a, const auto* b) { return *a == *b; })) {
      return false;
    }
  }
  for (const sg::SgLink& link : graph.links()) {
    const sg::SgLink* now = desired.sg.find_link(link.id);
    if (now == nullptr || !(*now == link)) return false;
  }
  for (const sg::E2eRequirement& req : graph.requirements()) {
    const sg::E2eRequirement* now = desired.sg.find_requirement(req.id);
    if (now != nullptr) {
      if (!(*now == req)) return false;
      continue;
    }
    // Gone from the desired config. That is no change when the accepted
    // config had already dropped it: a failed sibling of this component's
    // wave claimed it too and named it.
    if (std::any_of(accepted.hints().begin(), accepted.hints().end(),
                    [&](const model::ServiceHint& hint) {
                      return hint.id == req.id;
                    })) {
      return false;
    }
  }
  return true;
}

}  // namespace

Virtualizer::Virtualizer(ResourceOrchestrator& ro, ViewPolicy policy,
                         std::string big_node_id)
    : ro_(&ro),
      policy_(policy),
      big_node_id_(big_node_id.empty() ? ro.name() + ".big"
                                       : std::move(big_node_id)) {}

Result<model::Nffg> Virtualizer::render_single_bisbis() const {
  const model::Nffg& under = ro_->global_view();
  model::Nffg view{ro_->name() + "-single-view"};

  model::BisBis big;
  big.id = big_node_id_;
  big.name = ro_->name() + " (single BiS-BiS)";
  for (const auto& [bb_id, bb] : under.bisbis()) {
    big.capacity += bb.capacity;
  }

  // One port per SAP, plus the SAP nodes and attachment links. The
  // advertised internal delay is the worst SAP-to-SAP transit minus the
  // attachment legs, so a client's delay arithmetic on the collapsed view
  // stays conservative.
  const model::TopologyIndex index(under);
  std::vector<std::string> sap_ids;
  for (const auto& [sap_id, sap] : under.saps()) sap_ids.push_back(sap_id);

  std::map<std::string, double> attach_delay;
  std::map<std::string, double> attach_bw;
  for (const std::string& sap_id : sap_ids) {
    for (const model::Link* link : under.links_of(sap_id)) {
      attach_delay[sap_id] = link->attrs.delay;
      attach_bw[sap_id] = link->attrs.bandwidth;
    }
  }
  double worst_transit = 0;
  graph::PathWorkspace workspace;
  for (const std::string& a : sap_ids) {
    graph::shortest_path_tree(workspace, index.graph().node_capacity(),
                              index.node_of(a), index.delay_scan(0));
    const auto tree = graph::export_shortest_path_tree(
        workspace, index.graph().node_capacity());
    for (const std::string& b : sap_ids) {
      if (a == b) continue;
      const double dist = tree.dist[index.node_of(b)];
      if (dist == graph::kInf) continue;
      worst_transit = std::max(
          worst_transit, dist - attach_delay[a] - attach_delay[b]);
    }
  }
  big.internal_delay = std::max(0.0, worst_transit);

  int port = 0;
  for (const std::string& sap_id : sap_ids) {
    big.ports.push_back(model::Port{port, "to-" + sap_id});
    ++port;
  }
  UNIFY_RETURN_IF_ERROR(view.add_bisbis(std::move(big)));
  port = 0;
  for (const std::string& sap_id : sap_ids) {
    UNIFY_RETURN_IF_ERROR(
        view.add_sap(model::Sap{sap_id, under.find_sap(sap_id)->name}));
    UNIFY_RETURN_IF_ERROR(view.add_bidirectional_link(
        "v-" + sap_id, model::PortRef{sap_id, 0},
        model::PortRef{big_node_id_, port},
        model::LinkAttrs{attach_bw[sap_id], attach_delay[sap_id]}));
    ++port;
  }
  return view;
}

Result<void> Virtualizer::ensure_skeleton() {
  if (skeleton_.has_value()) return Result<void>::success();
  if (!ro_->initialized()) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  if (policy_ == ViewPolicy::kSingleBisBis) {
    UNIFY_ASSIGN_OR_RETURN(model::Nffg view, render_single_bisbis());
    skeleton_ = std::move(view);
  } else {
    // Full view: the underlying topology without deployed state.
    model::Nffg view = ro_->global_view();
    view.set_id(ro_->name() + "-full-view");
    for (auto& [bb_id, bb] : view.bisbis()) {
      bb.nfs.clear();
      bb.flowrules.clear();
    }
    for (auto& [link_id, link] : view.links()) link.reserved = 0;
    skeleton_ = std::move(view);
  }
  accepted_ = *skeleton_;
  ++accepted_version_;
  return Result<void>::success();
}

model::NfStatus Virtualizer::rolled_up_status(const std::string& nf_id,
                                              const StatusIndex& index) {
  // The RO may have decomposed this NF into components named
  // "<nf_id>.<suffix>...". Aggregate over the exact id plus the "<nf_id>."
  // range of the sorted index (ids such as "<nf_id>-x" or "<nf_id>x" sort
  // outside it).
  bool any = false, all_running = true, any_failed = false,
       any_deploying = false;
  const auto fold = [&](model::NfStatus status) {
    any = true;
    all_running &= status == model::NfStatus::kRunning;
    any_failed |= status == model::NfStatus::kFailed;
    any_deploying |= status == model::NfStatus::kDeploying ||
                     status == model::NfStatus::kRequested;
  };
  const auto by_id = [](const StatusIndex::value_type& entry,
                        std::string_view id) { return entry.first < id; };
  for (auto it = std::lower_bound(index.begin(), index.end(),
                                  std::string_view{nf_id}, by_id);
       it != index.end() && it->first == nf_id; ++it) {
    fold(it->second);
  }
  const std::string prefix = nf_id + ".";
  for (auto it = std::lower_bound(index.begin(), index.end(),
                                  std::string_view{prefix}, by_id);
       it != index.end() && strings::starts_with(it->first, prefix); ++it) {
    fold(it->second);
  }
  if (!any) return model::NfStatus::kRequested;
  if (any_failed) return model::NfStatus::kFailed;
  if (any_deploying) return model::NfStatus::kDeploying;
  return all_running ? model::NfStatus::kRunning : model::NfStatus::kStopped;
}

Result<model::Nffg> Virtualizer::get_config() {
  UNIFY_RETURN_IF_ERROR(ensure_skeleton());
  // One sorted id -> status index of the RO view per call, so each client
  // NF rolls up with two binary searches instead of a full view scan.
  StatusIndex index;
  for (const auto& [bb_id, bb] : ro_->global_view().bisbis()) {
    for (const auto& [id, nf] : bb.nfs) index.emplace_back(id, nf.status);
  }
  std::sort(index.begin(), index.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  model::Nffg out = accepted_;
  for (auto& [bb_id, bb] : out.bisbis()) {
    for (auto& [nf_id, nf] : bb.nfs) {
      nf.status = rolled_up_status(nf_id, index);
    }
  }
  return out;
}

std::string Virtualizer::config_tag() const {
  return std::to_string(accepted_version_) + "." +
         std::to_string(ro_->view_state().epoch());
}

std::vector<std::string> Virtualizer::active_requests() const {
  std::vector<std::string> out;
  for (const auto& [request, component] : services_) out.push_back(request);
  return out;
}

Result<void> Virtualizer::edit_config(const model::Nffg& desired) {
  UNIFY_RETURN_IF_ERROR(ensure_skeleton());
  ++edits_;
  UNIFY_ASSIGN_OR_RETURN(
      TranslatedConfig incoming,
      config_to_service_graph(desired, *skeleton_, "desired"));
  const sg::ServiceGraph& new_sg = incoming.sg;

  // --- 1. remove every component the desired config no longer holds
  // unchanged, with one southbound fan-out for all of them.
  const ConstraintsByNf desired_constraints = constraints_by_nf(new_sg);
  std::vector<std::string> gone;
  for (const auto& [request, component] : services_) {
    if (!holds_unchanged(incoming, desired_constraints, component.graph,
                         component.pins, accepted_)) {
      gone.push_back(request);
    }
  }
  if (!gone.empty()) {
    const std::vector<Result<void>> removed = ro_->remove_batch(gone);
    std::optional<Error> survivor_error;
    for (std::size_t k = 0; k < gone.size(); ++k) {
      if (!removed[k].ok() && ro_->deployments().count(gone[k]) != 0) {
        // The deployment survived (removal really did not happen): keep
        // its books so the whole edit can be retried.
        if (!survivor_error.has_value()) survivor_error = removed[k].error();
        continue;
      }
      // Removal is committed in the RO's books even when its southbound
      // push failed (the RO re-pushes the full slice on the next fan-out,
      // and a persistently failing domain trips the circuit breaker) — and
      // a kNotFound means it was already gone. Treating either as removed
      // keeps this virtualizer's books aligned with the RO instead of
      // wedging every future edit on a phantom service.
      const auto it = services_.find(gone[k]);
      for (const std::string& id : element_ids(it->second.graph)) {
        auto [first, last] = owner_.equal_range(id);
        while (first != last && first->second != gone[k]) ++first;
        if (first != last) owner_.erase(first);
      }
      services_.erase(it);
    }
    if (survivor_error.has_value()) return *survivor_error;
  }

  // --- 2. group the elements no component owns into connected
  // components: one union-find pass over the free links in config order
  // puts the `to` end's root under the `from` end's (SAPs are shared
  // infrastructure and do not merge services). A component's key is its
  // root's position among the free NFs in id order; a free link with no
  // free NF end comes after all of them, one component each.
  std::vector<const sg::SgNf*> free_nfs;
  std::map<std::string_view, std::size_t> position;
  for (const auto& [nf_id, nf] : new_sg.nfs()) {
    if (owner_.count(nf_id) != 0) continue;
    position.emplace(nf_id, free_nfs.size());
    free_nfs.push_back(&nf);
  }
  std::vector<std::size_t> root(free_nfs.size());
  std::iota(root.begin(), root.end(), std::size_t{0});
  constexpr std::size_t kNoNf = static_cast<std::size_t>(-1);
  // The root of a free NF's component, or kNoNf for any other node.
  const auto root_of = [&](const std::string& node) {
    const auto it = position.find(node);
    if (it == position.end()) return kNoNf;
    std::size_t i = it->second;
    while (root[i] != i) i = root[i] = root[root[i]];
    return i;
  };
  std::vector<const sg::SgLink*> free_links;
  for (const sg::SgLink& link : new_sg.links()) {
    if (owner_.count(link.id) != 0) continue;
    free_links.push_back(&link);
    const std::size_t from = root_of(link.from.node);
    const std::size_t to = root_of(link.to.node);
    if (from != kNoNf && to != kNoNf) root[to] = from;
  }
  struct Part {
    std::vector<const sg::SgNf*> nfs;
    std::vector<const sg::SgLink*> links;
  };
  std::map<std::size_t, Part> parts;
  for (const sg::SgNf* nf : free_nfs) parts[root_of(nf->id)].nfs.push_back(nf);
  std::size_t next_loose = free_nfs.size();
  for (const sg::SgLink* link : free_links) {
    std::size_t key = root_of(link->from.node);
    if (key == kNoNf) key = root_of(link->to.node);
    if (key == kNoNf) key = next_loose++;
    parts[key].links.push_back(link);
  }

  // --- 3. deploy every component as one service. Components are built
  // first and then handed to the RO as one wave: map_batch embeds them in
  // parallel on the pool (a one-component wave runs inline on the caller),
  // installs them sequentially in component order and pushes the wave
  // south once. A full-view client already did the embedding, so its
  // components carry the client's placements as pins.
  std::vector<sg::ServiceGraph> subs;
  std::vector<ResourceOrchestrator::Pins> sub_pins;
  for (const auto& [key, part] : parts) {
    sg::ServiceGraph sub{ro_->name() + "-r" + std::to_string(next_request_)};
    ResourceOrchestrator::Pins pins;
    for (const sg::SgNf* nf : part.nfs) {
      UNIFY_RETURN_IF_ERROR(sub.add_nf(*nf));
      if (policy_ == ViewPolicy::kFull) {
        pins.emplace(nf->id, incoming.pinned_hosts.at(nf->id));
      }
    }
    for (const sg::SgLink* link : part.links) {
      for (const model::PortRef* ref : {&link->from, &link->to}) {
        if (new_sg.has_sap(ref->node) && !sub.has_sap(ref->node)) {
          UNIFY_RETURN_IF_ERROR(sub.add_sap(ref->node));
        }
      }
      UNIFY_RETURN_IF_ERROR(sub.add_link(*link));
    }
    for (const sg::PlacementConstraint& c : new_sg.constraints()) {
      if (sub.find_nf(c.nf_a) != nullptr ||
          (!c.nf_b.empty() && sub.find_nf(c.nf_b) != nullptr)) {
        UNIFY_RETURN_IF_ERROR(sub.add_constraint(c));
      }
    }
    for (const sg::E2eRequirement& req : new_sg.requirements()) {
      // A requirement belongs to this component when no deployed component
      // owns it, both its SAPs are here, and the component actually
      // realizes a directed chain between them (several services may share
      // the same SAP pair).
      if (owner_.count(req.id) == 0 && sub.has_sap(req.from_sap) &&
          sub.has_sap(req.to_sap) && sub.chain_for(req).ok()) {
        UNIFY_RETURN_IF_ERROR(sub.add_requirement(req));
      }
    }
    ++next_request_;
    subs.push_back(std::move(sub));
    sub_pins.push_back(std::move(pins));
  }

  // A component that did not deploy (it did not map, or the southbound
  // push rolled it back) is left out; every client element it held is
  // named in the error, and the others stay deployed.
  std::optional<Error> failure;
  std::set<std::string> failed_ids;
  if (!subs.empty()) {
    const std::vector<Result<std::string>> deployed = ro_->map_batch(
        subs,
        policy_ == ViewPolicy::kFull ? &incoming.pinned_hosts : nullptr);
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const std::vector<std::string> ids = element_ids(subs[i]);
      if (deployed[i].ok()) {
        std::string request = subs[i].id();
        for (const std::string& id : ids) owner_.emplace(id, request);
        services_.emplace(std::move(request),
                          Component{std::move(subs[i]), std::move(sub_pins[i])});
        continue;
      }
      const Error& error = deployed[i].error();
      if (!failure.has_value()) failure = Error{error.code, error.message};
      for (const std::string& id : ids) {
        failure->causes.push_back({id, error.code, error.message});
        failed_ids.insert(id);
      }
    }
  }

  // What was accepted is the desired config minus the failed elements.
  accepted_ = failure.has_value() ? without(desired, failed_ids) : desired;
  ++accepted_version_;
  UNIFY_LOG(kInfo, "orch.virt")
      << ro_->name() << ": edit-config accepted (" << services_.size()
      << " active services, " << failed_ids.size() << " elements failed)";
  if (failure.has_value()) return *std::move(failure);
  return Result<void>::success();
}

}  // namespace unify::core
