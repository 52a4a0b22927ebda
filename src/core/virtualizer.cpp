#include "core/virtualizer.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "model/nffg_hash.h"
#include "model/topology_index.h"
#include "util/log.h"

namespace unify::core {

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
  for (const std::string& a : sap_ids) {
    const auto tree = graph::shortest_path_tree(
        index.graph().node_capacity(), index.node_of(a),
        index.scan_by_delay(0));
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
  accepted_hash_ = model::content_hash(accepted_);
  UNIFY_ASSIGN_OR_RETURN(
      accepted_translated_,
      config_to_service_graph(accepted_, *skeleton_, "accepted"));
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

std::vector<std::string> Virtualizer::active_requests() const {
  std::vector<std::string> out;
  for (const auto& [id, service] : services_) out.push_back(service.ro_request);
  return out;
}

Result<void> Virtualizer::edit_config(const model::Nffg& desired) {
  UNIFY_RETURN_IF_ERROR(ensure_skeleton());
  ++edits_;

  // Declarative no-op: a desired config hashing identically to the last
  // accepted one changes nothing — skip the translate/diff entirely (a
  // polling client would otherwise pay a full config diff per poll).
  const std::uint64_t desired_hash = model::content_hash(desired);
  if (accepted_hash_ == desired_hash) {
    ro_->metrics().add("virt.edit.noop_skips");
    return Result<void>::success();
  }

  UNIFY_ASSIGN_OR_RETURN(
      TranslatedConfig incoming,
      config_to_service_graph(desired, *skeleton_, "desired"));
  const sg::ServiceGraph& new_sg = incoming.sg;
  const sg::ServiceGraph& old_sg = accepted_translated_->sg;
  // From here on the edit may remove/deploy services; if it fails midway
  // the deployed state no longer matches accepted_, so a recovery push of
  // the accepted config must run the full diff. Re-armed on acceptance.
  accepted_hash_.reset();

  // --- 1. find client-level elements that disappeared or changed.
  std::set<std::string> dirty_nfs;
  std::set<std::string> dirty_links;
  for (const auto& [nf_id, nf] : old_sg.nfs()) {
    const sg::SgNf* now = new_sg.find_nf(nf_id);
    if (now == nullptr || !(*now == nf)) dirty_nfs.insert(nf_id);
    // Full-view clients may also move an NF: that is a placement change.
    if (policy_ == ViewPolicy::kFull && now != nullptr &&
        incoming.pinned_hosts.at(nf_id) !=
            accepted_translated_->pinned_hosts.at(nf_id)) {
      dirty_nfs.insert(nf_id);
    }
  }
  for (const sg::SgLink& link : old_sg.links()) {
    const sg::SgLink* now = new_sg.find_link(link.id);
    if (now == nullptr || !(*now == link)) dirty_links.insert(link.id);
  }
  // An NF whose constraint set changed must be redeployed.
  const auto constraints_of = [](const sg::ServiceGraph& graph,
                                 const std::string& nf) {
    std::vector<sg::PlacementConstraint> out;
    for (const sg::PlacementConstraint& c : graph.constraints()) {
      if (c.nf_a == nf || c.nf_b == nf) out.push_back(c);
    }
    return out;
  };
  for (const auto& [nf_id, nf] : old_sg.nfs()) {
    if (new_sg.find_nf(nf_id) != nullptr &&
        constraints_of(old_sg, nf_id) != constraints_of(new_sg, nf_id)) {
      dirty_nfs.insert(nf_id);
    }
  }
  std::set<std::string> dirty_reqs;
  for (const sg::E2eRequirement& req : old_sg.requirements()) {
    const sg::E2eRequirement* now = new_sg.find_requirement(req.id);
    if (now == nullptr || !(*now == req)) dirty_reqs.insert(req.id);
  }

  // --- 2. remove affected services from the RO, with one southbound
  // fan-out for all of them.
  std::vector<std::map<std::string, ClientService>::iterator> affected;
  std::vector<std::string> affected_requests;
  const auto any_dirty = [](const std::set<std::string>& ids,
                            const std::set<std::string>& dirty) {
    return std::any_of(ids.begin(), ids.end(), [&](const std::string& id) {
      return dirty.count(id) != 0;
    });
  };
  for (auto it = services_.begin(); it != services_.end(); ++it) {
    const ClientService& service = it->second;
    if (any_dirty(service.nf_ids, dirty_nfs) ||
        any_dirty(service.link_ids, dirty_links) ||
        any_dirty(service.req_ids, dirty_reqs)) {
      affected.push_back(it);
      affected_requests.push_back(service.ro_request);
    }
  }
  if (!affected.empty()) {
    const std::vector<Result<void>> removed =
        ro_->remove_batch(affected_requests);
    std::optional<Error> survivor_error;
    for (std::size_t k = 0; k < affected.size(); ++k) {
      if (!removed[k].ok() &&
          ro_->deployments().count(affected_requests[k]) != 0) {
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
      services_.erase(affected[k]);
    }
    if (survivor_error.has_value()) return *survivor_error;
  }

  // --- 3. pool of elements needing (re)deployment: everything in the new
  // config not owned by a surviving service.
  std::set<std::string> owned;
  std::set<std::string> owned_reqs;
  for (const auto& [id, service] : services_) {
    owned.insert(service.nf_ids.begin(), service.nf_ids.end());
    owned.insert(service.link_ids.begin(), service.link_ids.end());
    owned_reqs.insert(service.req_ids.begin(), service.req_ids.end());
  }
  std::vector<const sg::SgLink*> pool_links;
  std::set<std::string> pool_nfs;
  for (const sg::SgLink& link : new_sg.links()) {
    if (owned.count(link.id) == 0) pool_links.push_back(&link);
  }
  for (const auto& [nf_id, nf] : new_sg.nfs()) {
    if (owned.count(nf_id) == 0) pool_nfs.insert(nf_id);
  }

  // --- 4. group the pool into connected components (links join their NF
  // endpoints; SAPs are shared infrastructure and do not merge services).
  std::map<std::string, int> component_of;  // nf -> component
  int next_component = 0;
  for (const std::string& nf : pool_nfs) {
    component_of[nf] = next_component++;
  }
  const auto find_root = [&](int c) {
    return c;  // components merged eagerly below; no union-find needed
  };
  (void)find_root;
  // Merge components via links (simple iterate-to-fixpoint; pools are
  // small).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const sg::SgLink* link : pool_links) {
      const bool from_nf = component_of.count(link->from.node) != 0;
      const bool to_nf = component_of.count(link->to.node) != 0;
      if (from_nf && to_nf &&
          component_of[link->from.node] != component_of[link->to.node]) {
        const int victim = component_of[link->to.node];
        const int winner = component_of[link->from.node];
        for (auto& [nf, c] : component_of) {
          if (c == victim) c = winner;
        }
        changed = true;
      }
    }
  }
  // Links -> owning component (via an NF endpoint; SAP-SAP links get their
  // own singleton component).
  std::map<int, std::vector<const sg::SgLink*>> links_by_component;
  for (const sg::SgLink* link : pool_links) {
    int component = -1;
    if (component_of.count(link->from.node) != 0) {
      component = component_of[link->from.node];
    } else if (component_of.count(link->to.node) != 0) {
      component = component_of[link->to.node];
    } else {
      component = next_component++;
    }
    links_by_component[component].push_back(link);
  }
  // NFs with no links still need a component entry so validation flags
  // them at deploy time.
  std::map<int, std::vector<std::string>> nfs_by_component;
  for (const auto& [nf, component] : component_of) {
    nfs_by_component[component].push_back(nf);
  }

  // --- 5. deploy every component as one service. Components are built
  // first and then handed to the RO as one wave: map_batch embeds them in
  // parallel on the shared pool and commits sequentially in component
  // order, so the result is identical to the old per-component deploy loop
  // while the expensive mapping phase overlaps.
  std::set<int> components;
  for (const auto& [c, links] : links_by_component) components.insert(c);
  for (const auto& [c, nfs] : nfs_by_component) components.insert(c);
  std::vector<sg::ServiceGraph> subs;
  std::vector<ClientService> sub_services;
  // Request numbers appear in installed flowrule ids and steering tags, so
  // numbers consumed by components that end up NOT deployed must be
  // recycled: a client that retries after a failed edit (the service
  // layer's batch fallback does exactly that) has to produce the same data
  // plane as one that never attempted the failed edit.
  const int first_request = next_request_;
  for (const int component : components) {
    sg::ServiceGraph sub{ro_->name() + "-r" + std::to_string(next_request_)};
    ClientService service;
    std::set<std::string> sub_saps;
    for (const std::string& nf_id : nfs_by_component[component]) {
      const sg::SgNf* nf = new_sg.find_nf(nf_id);
      UNIFY_RETURN_IF_ERROR(sub.add_nf(*nf));
      service.nf_ids.insert(nf_id);
    }
    for (const sg::SgLink* link : links_by_component[component]) {
      for (const model::PortRef* ref : {&link->from, &link->to}) {
        if (new_sg.has_sap(ref->node) && sub_saps.insert(ref->node).second) {
          UNIFY_RETURN_IF_ERROR(sub.add_sap(ref->node));
        }
      }
      UNIFY_RETURN_IF_ERROR(sub.add_link(*link));
      service.link_ids.insert(link->id);
    }
    for (const sg::PlacementConstraint& c : new_sg.constraints()) {
      if (service.nf_ids.count(c.nf_a) != 0 ||
          (!c.nf_b.empty() && service.nf_ids.count(c.nf_b) != 0)) {
        UNIFY_RETURN_IF_ERROR(sub.add_constraint(c));
      }
    }
    for (const sg::E2eRequirement& req : new_sg.requirements()) {
      // A requirement belongs to this component when it is not owned by a
      // surviving service, both its SAPs are here, and the component
      // actually realizes a directed chain between them (several services
      // may share the same SAP pair).
      if (owned_reqs.count(req.id) == 0 &&
          sub_saps.count(req.from_sap) != 0 &&
          sub_saps.count(req.to_sap) != 0 && sub.chain_for(req).ok()) {
        UNIFY_RETURN_IF_ERROR(sub.add_requirement(req));
        service.req_ids.insert(req.id);
      }
    }
    service.ro_request = sub.id();
    ++next_request_;
    subs.push_back(std::move(sub));
    sub_services.push_back(std::move(service));
  }

  if (policy_ == ViewPolicy::kFull) {
    // Pinned deployments carry the client's placements; no batch API (the
    // client already did the expensive embedding), deploy sequentially.
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const auto pinned = ro_->deploy_pinned(subs[i], incoming.pinned_hosts);
      if (!pinned.ok()) {
        next_request_ = first_request + static_cast<int>(i);
        return pinned.error();
      }
      services_.emplace(sub_services[i].ro_request,
                        std::move(sub_services[i]));
    }
  } else if (subs.size() == 1) {
    const auto deployed = ro_->deploy(subs[0]);
    if (!deployed.ok()) {
      next_request_ = first_request;
      return deployed.error();
    }
    services_.emplace(sub_services[0].ro_request, std::move(sub_services[0]));
  } else if (!subs.empty()) {
    const std::vector<Result<std::string>> deployed = ro_->map_batch(subs);
    std::optional<Error> first_failure;
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      if (deployed[i].ok()) continue;
      first_failure = deployed[i].error();
      break;
    }
    if (first_failure.has_value()) {
      // edit-config is all-or-nothing over its wave of new services: undo
      // the components that did deploy, then report the first failure.
      std::vector<std::string> undo;
      for (const Result<std::string>& result : deployed) {
        if (result.ok()) undo.push_back(*result);
      }
      if (!undo.empty()) (void)ro_->remove_batch(undo);
      next_request_ = first_request;
      return *first_failure;
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      services_.emplace(sub_services[i].ro_request,
                        std::move(sub_services[i]));
    }
  }

  accepted_ = desired;
  accepted_hash_ = desired_hash;
  accepted_translated_ = std::move(incoming);
  UNIFY_LOG(kInfo, "orch.virt")
      << ro_->name() << ": edit-config accepted (" << services_.size()
      << " active services)";
  return Result<void>::success();
}

}  // namespace unify::core
