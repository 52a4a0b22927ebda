#include "service/service_layer.h"

#include <chrono>
#include <functional>
#include <set>
#include <utility>

#include "core/config_translate.h"
#include "util/log.h"
#include "util/orchestration_pool.h"

namespace unify::service {

const char* to_string(RequestState state) noexcept {
  switch (state) {
    case RequestState::kQueued:    return "queued";
    case RequestState::kPostponed: return "postponed";
    case RequestState::kShed:      return "shed";
    case RequestState::kDeployed:  return "deployed";
    case RequestState::kDegraded:  return "degraded";
    case RequestState::kFailed:    return "failed";
    case RequestState::kRemoved:   return "removed";
  }
  return "unknown";
}

namespace {
/// After this many consecutive transient push/fetch failures against the
/// client, submit_batch() probes the layer below before committing a wave
/// and rejects the batch up front when the probe fails.
constexpr int kClientSuspectAfter = 2;

/// A request that still owns southbound resources: its config must stay in
/// every push (degraded services are kept running wherever they still run,
/// never torn down by a reconciliation push).
bool is_active(RequestState state) noexcept {
  return state == RequestState::kDeployed || state == RequestState::kDegraded;
}

/// A request that still owns its id against a new submission: active, or
/// waiting for dispatch.
bool holds_id(RequestState state) noexcept {
  return is_active(state) || state == RequestState::kQueued ||
         state == RequestState::kPostponed;
}

/// The wave requests an edit-config error's causes name.
struct NamedFailures {
  std::map<std::size_t, Error> failed;  ///< wave position -> first cause
  /// Some named request holds an element no cause named.
  bool partial = false;
};

/// Matches every cause of `error` to the wave request (`requests[i]`,
/// i in `indices`) holding its path, by exact membership of the request's
/// prefixed NF, link and requirement ids. nullopt when the error has no
/// causes or a cause names anything outside the wave.
std::optional<NamedFailures> name_failures(
    const Error& error, const std::vector<sg::ServiceGraph>& requests,
    const std::vector<std::size_t>& indices) {
  if (error.causes.empty()) return std::nullopt;
  std::map<std::string, std::size_t> holder;
  for (const std::size_t i : indices) {
    const std::string prefix = requests[i].id() + ".";
    for (const auto& [nf_id, nf] : requests[i].nfs()) {
      holder.emplace(prefix + nf_id, i);
    }
    for (const sg::SgLink& link : requests[i].links()) {
      holder.emplace(prefix + link.id, i);
    }
    for (const sg::E2eRequirement& req : requests[i].requirements()) {
      holder.emplace(prefix + req.id, i);
    }
  }
  NamedFailures out;
  std::map<std::size_t, std::size_t> named;  // wave position -> causes
  for (const Error::Cause& cause : error.causes) {
    const auto it = holder.find(cause.path);
    if (it == holder.end()) return std::nullopt;
    out.failed.emplace(it->second, Error{cause.code, cause.message});
    ++named[it->second];
  }
  for (const auto& [i, count] : named) {
    const sg::ServiceGraph& graph = requests[i];
    out.partial |= count < graph.nfs().size() + graph.links().size() +
                               graph.requirements().size();
  }
  return out;
}
}  // namespace

sg::ServiceGraph prefix_elements(const sg::ServiceGraph& graph,
                                 const std::string& prefix) {
  sg::ServiceGraph out{graph.id(), graph.name()};
  for (const auto& [sap_id, name] : graph.saps()) {
    (void)out.add_sap(sap_id, name);
  }
  for (const auto& [nf_id, nf] : graph.nfs()) {
    sg::SgNf copy = nf;
    copy.id = prefix + "." + nf_id;
    (void)out.add_nf(std::move(copy));
  }
  const auto map_ref = [&](const model::PortRef& ref) {
    if (graph.has_sap(ref.node)) return ref;
    return model::PortRef{prefix + "." + ref.node, ref.port};
  };
  for (const sg::SgLink& link : graph.links()) {
    (void)out.add_link(sg::SgLink{prefix + "." + link.id, map_ref(link.from),
                                  map_ref(link.to), link.bandwidth});
  }
  for (const sg::E2eRequirement& req : graph.requirements()) {
    sg::E2eRequirement copy = req;
    copy.id = prefix + "." + req.id;
    if (!req.via.empty()) copy.via = prefix + "." + req.via;
    (void)out.add_requirement(std::move(copy));
  }
  for (const sg::PlacementConstraint& c : graph.constraints()) {
    sg::PlacementConstraint copy = c;
    copy.nf_a = prefix + "." + c.nf_a;
    if (!c.nf_b.empty()) copy.nf_b = prefix + "." + c.nf_b;
    (void)out.add_constraint(std::move(copy));
  }
  return out;
}

ServiceLayer::ServiceLayer(std::unique_ptr<adapters::DomainAdapter> client,
                           util::OrchestrationPool* pool)
    : client_(std::move(client)), pool_(pool) {}

util::OrchestrationPool& ServiceLayer::pool() const noexcept {
  return pool_ != nullptr ? *pool_ : util::OrchestrationPool::process_pool();
}

Result<void> ServiceLayer::ensure_view() {
  if (view_.has_value()) return Result<void>::success();
  UNIFY_ASSIGN_OR_RETURN(model::Nffg view, client_->fetch_view());
  if (view.bisbis().size() != 1) {
    // Multi-node views are fine in principle, but this service
    // orchestrator implements the paper's trivial single-BiS-BiS case.
    return Error{ErrorCode::kInvalidArgument,
                 "service layer expects a single-BiS-BiS view, got " +
                     std::to_string(view.bisbis().size()) + " nodes"};
  }
  // The view is the config BASE: the layer re-derives every active
  // service's NFs, flowrules and hints itself (merged_active), so any the
  // layer below still reports — e.g. on a re-fetch after a failed
  // rollback — must be stripped or the rebuild would collide with them.
  view.clear_service_state();
  big_node_ = view.bisbis().begin()->first;
  view_ = std::move(view);
  return Result<void>::success();
}

Result<model::Nffg> ServiceLayer::view() {
  UNIFY_RETURN_IF_ERROR(ensure_view());
  return *view_;
}

void ServiceLayer::set_graph(ServiceRequest& request,
                             sg::ServiceGraph graph) {
  request.prefixed = prefix_elements(graph, request.id);
  request.graph = std::move(graph);
}

sg::ServiceGraph ServiceLayer::merged_active() const {
  sg::ServiceGraph merged{"active-services"};
  for (const auto& [id, request] : requests_) {
    if (!is_active(request.state)) continue;
    const sg::ServiceGraph& prefixed = request.prefixed;
    for (const auto& [sap_id, name] : prefixed.saps()) {
      if (!merged.has_sap(sap_id)) (void)merged.add_sap(sap_id, name);
    }
    for (const auto& [nf_id, nf] : prefixed.nfs()) {
      (void)merged.add_nf(nf);
    }
    for (const sg::SgLink& link : prefixed.links()) {
      (void)merged.add_link(link);
    }
    for (const sg::E2eRequirement& req : prefixed.requirements()) {
      (void)merged.add_requirement(req);
    }
    for (const sg::PlacementConstraint& c : prefixed.constraints()) {
      (void)merged.add_constraint(c);
    }
  }
  return merged;
}

Result<void> ServiceLayer::push_config() {
  // Re-fetches the view when a failed restore dropped it (push_or_restore).
  UNIFY_RETURN_IF_ERROR(ensure_view());
  UNIFY_ASSIGN_OR_RETURN(
      const model::Nffg config,
      core::service_graph_to_config(merged_active(), *view_, big_node_));
  // Transactional push: issue the edit-config, then block on the ack. The
  // split buys nothing for a single southbound client yet, but keeps the
  // service layer on the same contract the RO drives its domains with.
  const auto pushed = [&]() -> Result<void> {
    UNIFY_ASSIGN_OR_RETURN(const adapters::PushTicket ticket,
                           client_->begin_apply(config));
    return client_->await(ticket);
  }();
  if (pushed.ok()) {
    client_failures_ = 0;
  } else if (pushed.error().code == ErrorCode::kUnavailable ||
             pushed.error().code == ErrorCode::kTimeout) {
    ++client_failures_;
  }
  return pushed;
}

Result<void> ServiceLayer::push_or_restore(
    const char* op, const std::function<bool(const Error&)>& undo,
    bool* diverged) {
  auto pushed = push_config();
  if (pushed.ok()) return pushed;
  if (!undo(pushed.error())) return pushed;
  const auto restore = push_config();
  if (restore.ok()) return pushed;
  // The restore push did not land: whatever the layer below is actually
  // running may no longer match merged_active(). Drop the cached view so
  // the next operation re-fetches ground truth, and surface both failures
  // under kRollbackFailed so the caller knows the data plane may diverge.
  if (diverged != nullptr) *diverged = true;
  view_.reset();
  metrics_.add("service.rollback_failures");
  UNIFY_LOG(kError, "service")
      << op << " rollback push failed: " << restore.error().to_string();
  return Error{ErrorCode::kRollbackFailed,
               std::string(op) + " failed (" + pushed.error().to_string() +
                   ") AND the restore push failed (" +
                   restore.error().to_string() +
                   "): data plane may diverge from the service books"};
}

std::optional<Error> ServiceLayer::validate_request(
    const sg::ServiceGraph& request) const {
  if (const auto problems = request.validate(); !problems.empty()) {
    return Error{ErrorCode::kInvalidArgument, problems.front()};
  }
  // Every SAP the user references must exist in the view.
  for (const auto& [sap_id, name] : request.saps()) {
    if (view_->find_sap(sap_id) == nullptr) {
      return Error{ErrorCode::kNotFound,
                   "SAP " + sap_id + " unknown to the orchestration layer"};
    }
  }
  return std::nullopt;
}

std::optional<Error> ServiceLayer::reuse_id(const std::string& id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return std::nullopt;
  if (holds_id(it->second.state)) {
    return Error{ErrorCode::kAlreadyExists, "request " + id};
  }
  requests_.erase(it);  // terminal ids may be reused
  return std::nullopt;
}

Result<std::string> ServiceLayer::submit(const sg::ServiceGraph& request) {
  return submit_batch({request}).front();
}

std::vector<Result<std::string>> ServiceLayer::submit_batch(
    const std::vector<sg::ServiceGraph>& requests) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<Result<std::string>> results(
      requests.size(),
      Error{ErrorCode::kInternal, "request not processed"});
  if (requests.empty()) return results;
  metrics_.add("service.batch.requests", requests.size());

  if (const auto ready = ensure_view(); !ready.ok()) {
    for (auto& result : results) result = ready.error();
    return results;
  }

  // Phase 1 — admission. Id bookkeeping reads/mutates requests_ and runs
  // inline; the per-request structural validation and SAP checks are pure
  // against the fetched view and fan out on the shared pool.
  std::vector<bool> admitted(requests.size(), false);
  std::vector<std::optional<Error>> invalid(requests.size());
  std::vector<std::function<void()>> checks;
  std::set<std::string> batch_ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sg::ServiceGraph& request = requests[i];
    if (request.id().empty()) {
      results[i] = Error{ErrorCode::kInvalidArgument,
                         "service graph needs an id"};
      continue;
    }
    if (!batch_ids.insert(request.id()).second) {
      results[i] = Error{ErrorCode::kAlreadyExists,
                         "request " + request.id() +
                             " duplicated within the batch"};
      continue;
    }
    if (auto taken = reuse_id(request.id()); taken.has_value()) {
      results[i] = *std::move(taken);
      continue;
    }
    admitted[i] = true;
    checks.push_back([this, &requests, &invalid, i] {
      invalid[i] = validate_request(requests[i]);
    });
  }
  pool().run_all(std::move(checks));
  std::size_t admitted_count = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!admitted[i]) continue;
    if (invalid[i].has_value()) {
      results[i] = *invalid[i];
      admitted[i] = false;
      continue;
    }
    ++admitted_count;
  }
  metrics_.add("service.batch.admitted", admitted_count);

  const auto finish = [&] {
    const auto wall = std::chrono::steady_clock::now() - wall_start;
    metrics_.summary("service.batch.wall_ms")
        .observe(std::chrono::duration<double, std::milli>(wall).count());
    return results;
  };
  if (admitted_count == 0) return finish();

  // The layer below has been failing transiently (kClientSuspectAfter
  // consecutive push/fetch failures): one cheap probe decides whether to
  // commit the wave at all. Rejecting up front is much cheaper than
  // pushing a doomed merged config and unwinding it per request.
  if (client_failures_ >= kClientSuspectAfter) {
    metrics_.add("service.health.probes");
    if (const auto probed = client_->probe(); !probed.ok()) {
      metrics_.add("service.health.batches_rejected");
      const Error rejected{ErrorCode::kUnavailable,
                           "orchestration layer unhealthy (" +
                               std::to_string(client_failures_) +
                               " consecutive push failures; probe: " +
                               probed.error().to_string() + ")"};
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (admitted[i]) results[i] = rejected;
      }
      return finish();
    }
    client_failures_ = 0;
  }

  // Phase 2 — the wave commit: one merged edit-config carries every
  // admitted request; the virtualizer below deploys the wave's services
  // through ResourceOrchestrator::map_batch (parallel embedding on the
  // same shared pool) and names the elements of those that failed.
  std::vector<std::size_t> indices;
  indices.reserve(admitted_count);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (admitted[i]) indices.push_back(i);
  }
  commit(requests, indices, results);
  std::size_t committed = 0;
  for (const std::size_t i : indices) committed += results[i].ok() ? 1 : 0;
  metrics_.add("service.batch.committed", committed);
  metrics_.add("service.batch.rolled_back", admitted_count - committed);
  return finish();
}

void ServiceLayer::commit(const std::vector<sg::ServiceGraph>& requests,
                          const std::vector<std::size_t>& indices,
                          std::vector<Result<std::string>>& results) {
  for (const std::size_t i : indices) {
    sg::ServiceGraph graph = requests[i];
    graph.anchor_requirements();
    ServiceRequest& request = requests_[requests[i].id()];
    request.id = requests[i].id();
    request.state = RequestState::kDeployed;
    set_graph(request, std::move(graph));
  }
  // The first cause naming each failed request (by wave position).
  std::map<std::size_t, Error> failed;
  bool diverged = false;
  const auto pushed = push_or_restore(
      "deployment",
      [&](const Error& error) {
        if (auto named = name_failures(error, requests, indices)) {
          failed = std::move(named->failed);
          for (const auto& [i, cause] : failed) {
            ServiceRequest& request = requests_.at(requests[i].id());
            request.state = RequestState::kFailed;
            request.error = cause.to_string();
            request.prefixed = sg::ServiceGraph{};
          }
          // The layer below already runs the books, unless a failed request
          // got part of itself deployed (another of its components).
          return named->partial;
        }
        // Anything else withdraws the whole wave: a lone request stays on
        // the books as kFailed (the failure is its own), a larger wave
        // leaves them.
        for (const std::size_t i : indices) {
          failed.emplace(i, Error{error.code, error.message});
          if (indices.size() > 1) {
            requests_.erase(requests[i].id());
            continue;
          }
          ServiceRequest& request = requests_.at(requests[i].id());
          request.state = RequestState::kFailed;
          request.error = error.to_string();
          request.prefixed = sg::ServiceGraph{};
        }
        return true;
      },
      &diverged);
  if (pushed.ok()) {
    UNIFY_LOG(kInfo, "service")
        << indices.size() << " request(s) deployed in one push";
  }
  for (const std::size_t i : indices) {
    const auto it = failed.find(i);
    if (it == failed.end()) {
      results[i] = requests[i].id();
    } else if (diverged) {
      results[i] = pushed.error();
    } else {
      results[i] = Error{it->second.code, "deployment of " + requests[i].id() +
                                              " failed: " +
                                              it->second.message};
    }
  }
}

void ServiceLayer::record_outcome(const AdmissionEntry& entry,
                                  RequestState state, std::string error) {
  ServiceRequest& request = requests_[entry.graph.id()];
  request.id = entry.graph.id();
  // Not active, so merged_active() never reads its prefixed copy.
  request.graph = entry.graph;
  request.prefixed = sg::ServiceGraph{};
  request.state = state;
  request.error = std::move(error);
}

bool ServiceLayer::should_postpone(const Error& error,
                                   const BelowHealth& below) const {
  // Transient transport failures always park: the substrate answered
  // nothing, not "no". Capacity/feasibility failures park only while the
  // health source says the substrate is impaired — masked-out capacity may
  // come back with the domain; on a healthy substrate the same answer is
  // final.
  if (error.code == ErrorCode::kUnavailable ||
      error.code == ErrorCode::kTimeout) {
    return true;
  }
  if (!below.impaired) return false;
  return error.code == ErrorCode::kInfeasible ||
         error.code == ErrorCode::kResourceExhausted ||
         error.code == ErrorCode::kRejected;
}

Result<void> ServiceLayer::enqueue(const sg::ServiceGraph& request,
                                   SimTime now,
                                   const AdmissionOptions& options) {
  if (request.id().empty()) {
    return Error{ErrorCode::kInvalidArgument, "service graph needs an id"};
  }
  if (auto taken = reuse_id(request.id()); taken.has_value()) {
    return *std::move(taken);
  }
  metrics_.add("service.admission.enqueued");
  AdmissionEntry entry{request, options.klass, now, options.deadline,
                       admission_seq_++};
  auto pushed = queue_.push(entry);
  if (pushed.outcome == AdmissionQueue::PushOutcome::kRejected) {
    metrics_.add("service.admission.shed_queue_full");
    record_outcome(entry, RequestState::kShed,
                   "shed: admission queue full (" +
                       std::to_string(queue_.capacity()) + ")");
    return Error{ErrorCode::kResourceExhausted,
                 "admission queue full, request " + request.id() + " shed"};
  }
  if (pushed.displaced.has_value()) {
    metrics_.add("service.admission.shed_displaced");
    record_outcome(*pushed.displaced, RequestState::kShed,
                   "shed: displaced by " + request.id() + " (" +
                       std::string(to_string(entry.klass)) + " class)");
  }
  record_outcome(entry, RequestState::kQueued, "");
  return Result<void>::success();
}

PumpReport ServiceLayer::pump(SimTime now) {
  ++pump_count_;
  PumpReport report;
  const BelowHealth below =
      health_source_ ? health_source_() : BelowHealth{};

  // 1. Parked requests: a health transition below (readmission — or a
  //    further kill, either way the world changed) re-queues everything;
  //    the pump-count backstop re-queues long-parked entries even without
  //    a health source. Deadlines keep ticking while parked.
  std::vector<Parked> keep;
  keep.reserve(parked_.size());
  for (Parked& parked : parked_) {
    const std::string id = parked.entry.graph.id();
    if (parked.entry.deadline != 0 &&
        parked.entry.deadline <= now + admission_.dispatch_margin_us) {
      metrics_.add("service.admission.shed_deadline");
      record_outcome(parked.entry, RequestState::kShed,
                     "shed: deadline expired while parked");
      ++report.shed;
      continue;
    }
    const bool transitioned =
        health_source_ && parked.fingerprint != below.fingerprint;
    const bool backstop =
        admission_.postpone_retry_pumps > 0 &&
        pump_count_ - parked.parked_at_pump >=
            static_cast<std::uint64_t>(admission_.postpone_retry_pumps);
    if (!transitioned && !backstop) {
      keep.push_back(std::move(parked));
      continue;
    }
    auto pushed = queue_.push(parked.entry);
    if (pushed.outcome == AdmissionQueue::PushOutcome::kRejected) {
      metrics_.add("service.admission.shed_queue_full");
      record_outcome(parked.entry, RequestState::kShed,
                     "shed: queue full at readmission retry");
      ++report.shed;
      continue;
    }
    if (pushed.displaced.has_value()) {
      metrics_.add("service.admission.shed_displaced");
      record_outcome(*pushed.displaced, RequestState::kShed,
                     "shed: displaced by retried " + id);
      ++report.shed;
    }
    requests_.at(id).state = RequestState::kQueued;
    metrics_.add("service.admission.requeued");
    ++report.requeued;
  }
  parked_ = std::move(keep);

  // 2. Shed-before-deadline-violation: entries that could no longer be
  //    dispatched AND land within their deadline are dropped up front.
  std::vector<AdmissionEntry> expired;
  queue_.shed_expired(now, admission_.dispatch_margin_us, expired);
  for (const AdmissionEntry& entry : expired) {
    metrics_.add("service.admission.shed_deadline");
    record_outcome(entry, RequestState::kShed,
                   "shed: deadline expired before dispatch");
  }
  report.shed += expired.size();

  // 3. Dispatch one bounded wave through submit_batch (one merged push —
  //    the same pipeline inline submissions ride).
  std::vector<AdmissionEntry> wave = queue_.pop_wave(admission_.max_wave);
  report.dispatched = wave.size();
  if (!wave.empty()) {
    metrics_.add("service.admission.dispatched", wave.size());
    std::vector<sg::ServiceGraph> graphs;
    graphs.reserve(wave.size());
    for (const AdmissionEntry& entry : wave) {
      requests_.erase(entry.graph.id());  // every outcome is re-recorded
      graphs.push_back(entry.graph);
    }
    const auto results = submit_batch(graphs);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      AdmissionEntry& entry = wave[i];
      if (results[i].ok()) {
        ++report.deployed;
        metrics_.add("service.admission.deployed");
        metrics_.observe(
            "service.admission.latency_ms",
            static_cast<double>(now - entry.enqueued_at) / 1000.0);
      } else if (should_postpone(results[i].error(), below)) {
        ++report.postponed;
        metrics_.add("service.admission.postponed");
        record_outcome(entry, RequestState::kPostponed,
                       results[i].error().to_string());
        parked_.push_back(
            Parked{std::move(entry), below.fingerprint, pump_count_});
      } else {
        ++report.failed;
        metrics_.add("service.admission.failed");
        record_outcome(entry, RequestState::kFailed,
                       results[i].error().to_string());
      }
    }
  }
  return report;
}

std::vector<Result<void>> ServiceLayer::remove_batch(
    const std::vector<std::string>& request_ids) {
  std::vector<Result<void>> results(request_ids.size(),
                                    Result<void>::success());
  // index into request_ids -> state to restore on a failed push
  std::vector<std::pair<std::size_t, RequestState>> flipped;
  for (std::size_t i = 0; i < request_ids.size(); ++i) {
    const std::string& id = request_ids[i];
    const auto it = requests_.find(id);
    if (it == requests_.end()) {
      results[i] = Error{ErrorCode::kNotFound, "active request " + id};
      continue;
    }
    switch (it->second.state) {
      case RequestState::kQueued:
      case RequestState::kPostponed:
        // Cancel: never reached the substrate, no push needed.
        (void)queue_.erase(id);
        std::erase_if(parked_, [&](const Parked& parked) {
          return parked.entry.graph.id() == id;
        });
        requests_.erase(it);
        metrics_.add("service.admission.cancelled");
        break;
      case RequestState::kDeployed:
      case RequestState::kDegraded:
        flipped.emplace_back(i, it->second.state);
        it->second.state = RequestState::kRemoved;
        break;
      default:
        results[i] = Error{ErrorCode::kNotFound, "active request " + id};
    }
  }
  if (flipped.empty()) return results;
  const auto pushed = push_or_restore("removal", [&](const Error&) {
    for (const auto& [i, prior] : flipped) {
      requests_.at(request_ids[i]).state = prior;  // keep books consistent
    }
    return true;
  });
  for (const auto& [i, prior] : flipped) {
    if (pushed.ok()) {
      requests_.erase(request_ids[i]);
    } else {
      results[i] = pushed.error();
    }
  }
  if (pushed.ok()) metrics_.add("service.batch.removed", flipped.size());
  return results;
}

Result<void> ServiceLayer::update(const sg::ServiceGraph& request) {
  UNIFY_RETURN_IF_ERROR(ensure_view());
  const auto it = requests_.find(request.id());
  if (it == requests_.end() ||
      it->second.state != RequestState::kDeployed) {
    return Error{ErrorCode::kNotFound, "active request " + request.id()};
  }
  if (auto invalid = validate_request(request); invalid.has_value()) {
    return *std::move(invalid);
  }
  sg::ServiceGraph previous = std::move(it->second.graph);
  sg::ServiceGraph next = request;
  next.anchor_requirements();
  set_graph(it->second, std::move(next));
  bool diverged = false;
  const auto pushed = push_or_restore(
      "update",
      [&](const Error&) {
        set_graph(it->second, std::move(previous));
        return true;
      },
      &diverged);
  if (pushed.ok() || diverged) return pushed;
  return Error{pushed.error().code, "update of " + request.id() +
                                        " failed (previous version kept): " +
                                        pushed.error().message};
}

Result<void> ServiceLayer::remove(const std::string& request_id) {
  return remove_batch({request_id}).front();
}

Result<std::vector<std::string>> ServiceLayer::sync_health() {
  UNIFY_ASSIGN_OR_RETURN(const model::Nffg config, client_->fetch_view());
  // Collect per-request failure evidence from the rolled-up view: any NF
  // with this request's prefix reporting kFailed degrades the request.
  // Present NFs are tracked too: restoring a degraded request needs all of
  // its NFs back in the view, not merely an absence of kFailed evidence (a
  // placement torn down below would otherwise read as "recovered").
  std::set<std::string> failed_requests;
  std::set<std::string> present_nfs;
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const auto& [nf_id, nf] : bb.nfs) {
      present_nfs.insert(nf_id);
      if (nf.status != model::NfStatus::kFailed) continue;
      const auto dot = nf_id.find('.');
      if (dot == std::string::npos) continue;
      failed_requests.insert(nf_id.substr(0, dot));
    }
  }
  const auto all_nfs_present = [&](const ServiceRequest& request) {
    for (const auto& [nf_id, nf] : request.graph.nfs()) {
      const std::string exact = request.id + "." + nf_id;
      if (present_nfs.count(exact) != 0) continue;
      // Decomposition installs "<nf>.<component>" instead of "<nf>".
      const std::string expanded = exact + ".";
      const auto it = present_nfs.lower_bound(expanded);
      if (it == present_nfs.end() || !strings::starts_with(*it, expanded)) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::string> degraded;
  for (auto& [id, request] : requests_) {
    if (request.state == RequestState::kDeployed &&
        failed_requests.count(id) != 0) {
      request.state = RequestState::kDegraded;
      request.error = "NF failure reported by the orchestration layer";
      metrics_.add("service.health.degraded");
      UNIFY_LOG(kWarn, "service") << "request " << id << " degraded";
    } else if (request.state == RequestState::kDegraded &&
               failed_requests.count(id) == 0 && all_nfs_present(request)) {
      request.state = RequestState::kDeployed;
      request.error.clear();
      metrics_.add("service.health.restored");
      UNIFY_LOG(kInfo, "service") << "request " << id << " restored";
    }
    if (request.state == RequestState::kDegraded) degraded.push_back(id);
  }
  return degraded;
}

Result<std::map<std::string, model::NfStatus>> ServiceLayer::nf_statuses(
    const std::string& request_id) {
  const auto it = requests_.find(request_id);
  if (it == requests_.end() || !is_active(it->second.state)) {
    return Error{ErrorCode::kNotFound, "active request " + request_id};
  }
  UNIFY_ASSIGN_OR_RETURN(const model::Nffg config, client_->fetch_view());
  std::map<std::string, model::NfStatus> out;
  const std::string prefix = request_id + ".";
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const auto& [nf_id, nf] : bb.nfs) {
      if (strings::starts_with(nf_id, prefix)) {
        out.emplace(nf_id.substr(prefix.size()), nf.status);
      }
    }
  }
  return out;
}

Result<bool> ServiceLayer::is_ready(const std::string& request_id) {
  UNIFY_ASSIGN_OR_RETURN(const auto statuses, nf_statuses(request_id));
  for (const auto& [nf, status] : statuses) {
    if (status != model::NfStatus::kRunning) return false;
  }
  return true;
}

}  // namespace unify::service
