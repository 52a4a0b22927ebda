// Service layer: where users submit service graphs with bandwidth/delay
// requirements (the programmatic stand-in for the paper's GUI, see
// DESIGN.md §2).
//
// The embedded service orchestrator sees the view its Unify client fetches
// from the layer below — normally a single BiS-BiS, making its own mapping
// task trivial (paper §2) — writes the union of all active services onto
// that view as a configuration, and pushes it with edit-config. Element ids
// are prefixed per request ("<request>.<nf>") so services never collide.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapters/domain_adapter.h"
#include "service/admission.h"
#include "sg/service_graph.h"
#include "telemetry/metrics.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace unify::util {
class OrchestrationPool;
}  // namespace unify::util

namespace unify::service {

/// Request lifecycle (DESIGN.md §12). The happy path is kQueued ->
/// kDeployed -> kRemoved, and a removed request leaves the books once its
/// teardown push lands; overload and failure add
///
///   kQueued ----(deadline passed / displaced)----> kShed        (terminal)
///   kQueued ----(transient substrate failure)----> kPostponed --> kQueued
///   kQueued ----(validation / infeasible)--------> kFailed      (id reusable)
///   kDeployed <-> kDegraded  (health reconciliation; kept, not torn down)
///
/// submit()/submit_batch() skip the queue: kDeployed or kFailed directly.
/// kDegraded = the service is still admitted (its config stays in every
/// push, it is NOT torn down) but the layer below reports at least one of
/// its NFs failed — typically stranded on a down domain awaiting healing.
/// kPostponed = parked: the substrate below is impaired, the request waits
/// for a health transition (readmission) instead of burning retries.
/// kRemoved = teardown push in flight; a failed push restores the prior
/// state, a landed one erases the record.
enum class RequestState {
  kQueued,     ///< waiting in the bounded admission queue
  kPostponed,  ///< parked on a degraded substrate, retried on readmission
  kShed,       ///< dropped by admission control (queue bound or deadline)
  kDeployed,
  kDegraded,
  kFailed,
  kRemoved,
};
[[nodiscard]] const char* to_string(RequestState state) noexcept;

struct ServiceRequest {
  std::string id;
  sg::ServiceGraph graph;
  RequestState state = RequestState::kDeployed;
  std::string error;  ///< set when state == kFailed / kDegraded / kShed
  /// prefix_elements(graph, id): the request as every push carries it,
  /// built once whenever the record becomes active (kDeployed). Empty in
  /// every other state: merged_active() reads only active records.
  sg::ServiceGraph prefixed;
};

/// Knobs of the overload-safe admission lifecycle (enqueue()/pump()).
struct AdmissionPolicy {
  /// Bound on queued (not yet dispatched) requests; beyond it enqueue()
  /// sheds — lowest class first, the newcomer itself when nothing queued
  /// ranks below it.
  std::size_t queue_capacity = 256;
  /// Requests dispatched per pump() as ONE submit_batch wave.
  std::size_t max_wave = 16;
  /// Sim-time headroom a dispatch needs to land before a deadline (covers
  /// the southbound RPC latency): entries with deadline <= now + margin
  /// are shed instead of dispatched (shed-before-deadline-violation).
  SimTime dispatch_margin_us = 1000;
  /// Without a health source, parked (kPostponed) requests re-enter the
  /// queue after this many pump() calls. With one, they re-enter as soon
  /// as the health fingerprint below moves (and this acts as a backstop).
  int postpone_retry_pumps = 4;
};

/// What the admission lifecycle knows about the substrate below, fed by
/// set_health_source() (normally wired to core::HealthManager).
struct BelowHealth {
  /// Changes exactly on health-state transitions below; parked requests
  /// are retried when it moves (HealthManager::state_fingerprint()).
  std::uint64_t fingerprint = 0;
  /// True while any domain below is degraded/down: capacity-type failures
  /// then park (kPostponed) instead of failing — the capacity may come
  /// back with the domain. False = the substrate is healthy, so an
  /// infeasible request is genuinely infeasible (kFailed).
  bool impaired = false;
};

/// Outcome tally of one pump() pass.
struct PumpReport {
  std::size_t dispatched = 0;  ///< popped from the queue this pass
  std::size_t deployed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;        ///< deadline-expired before dispatch
  std::size_t postponed = 0;   ///< parked on a transient/impaired failure
  std::size_t requeued = 0;    ///< parked requests re-entering the queue
};

class ServiceLayer {
 public:
  /// `client` speaks the Unify interface to the orchestration layer below
  /// (normally a UnifyClientAdapter; any DomainAdapter works, which also
  /// makes the service layer trivially testable against a fake). `pool`
  /// carries the batch admission work of submit_batch; nullptr selects the
  /// shared process-scoped util::OrchestrationPool — the same pool the RO
  /// below maps batches on, so exactly one pool exists per process.
  explicit ServiceLayer(std::unique_ptr<adapters::DomainAdapter> client,
                        util::OrchestrationPool* pool = nullptr);

  /// Validates and deploys a service request: submit_batch() of one. The
  /// request id is the service graph id; kAlreadyExists while that id is
  /// queued, parked, deployed or degraded. On failure the previous
  /// configuration is restored and the request is recorded as kFailed.
  Result<std::string> submit(const sg::ServiceGraph& request);

  /// Admits, validates and deploys a whole wave of service requests.
  ///
  /// Structural validation fans out on the shared OrchestrationPool, then
  /// the wave is committed with ONE merged edit-config — the virtualizer
  /// below hands the new services to ResourceOrchestrator::map_batch,
  /// which embeds them in parallel on the same pool, commits those that
  /// map and names, element by element, those that did not
  /// (Error::causes). Each request the causes name is recorded kFailed
  /// ("deployment of <id> failed: ..." with the cause's code); the rest
  /// stay deployed, with outcomes and final state byte-identical to a
  /// sequential submit() loop (batch_golden_test). A second push happens
  /// only to take down what a failed request got deployed beyond its
  /// named elements. An error that names anything else (transport,
  /// removal, unknown element) withdraws the whole wave and pushes the
  /// restored books.
  ///
  /// Returns one Result per request, index-aligned with `requests`.
  /// Telemetry: service.batch.{requests,admitted,committed,rolled_back}
  /// counters and the service.batch.wall_ms summary in metrics().
  std::vector<Result<std::string>> submit_batch(
      const std::vector<sg::ServiceGraph>& requests);

  // -- overload-safe admission lifecycle (DESIGN.md §12) -----------------

  /// Places a request into the bounded admission queue (state kQueued)
  /// instead of deploying it inline; `now` (sim-time) stamps the arrival
  /// for the admission-latency summary. Fails with kResourceExhausted when
  /// admission control sheds the newcomer (queue full of same-or-higher
  /// class work; recorded as kShed), kAlreadyExists when the id is active
  /// or already queued. Dispatch happens on the next pump().
  Result<void> enqueue(const sg::ServiceGraph& request, SimTime now,
                       const AdmissionOptions& options = {});

  /// One admission pass at sim-time `now`: re-queues parked requests that
  /// are due (health transition below, or the retry backstop), sheds
  /// queued requests whose deadline can no longer be met, then dispatches
  /// up to max_wave requests as one submit_batch wave. Per-request
  /// outcomes: success -> kDeployed; transient substrate failure (or a
  /// capacity failure while the substrate is impaired) -> kPostponed;
  /// anything else -> kFailed. Telemetry: service.admission.* counters
  /// and the service.admission.latency_ms summary (sim-time queue wait of
  /// dispatched requests).
  PumpReport pump(SimTime now);

  /// Tears the service down (pushes the remaining services' config), or
  /// cancels it without a push while it is queued or parked:
  /// remove_batch() of one id.
  Result<void> remove(const std::string& request_id);

  /// Batch removal with ONE reconciliation push for every active id in
  /// `request_ids` (the churn departure path: N removals cost one push,
  /// not N). Queued/parked ids are cancelled without a push. Removed and
  /// cancelled records leave the books. Results are index-aligned; on a
  /// failed push every flipped state is restored and pushed again.
  std::vector<Result<void>> remove_batch(
      const std::vector<std::string>& request_ids);

  void set_admission_policy(const AdmissionPolicy& policy) {
    admission_ = policy;
    queue_.set_capacity(policy.queue_capacity);
  }
  /// Wires the admission lifecycle to the health of the layers below
  /// (normally {HealthManager::state_fingerprint(), any_unhealthy()}):
  /// parked requests retry on fingerprint transitions, and capacity
  /// failures park instead of failing while `impaired` is true.
  void set_health_source(std::function<BelowHealth()> source) {
    health_source_ = std::move(source);
  }

  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::size_t parked_count() const noexcept {
    return parked_.size();
  }

  /// Replaces a deployed request with a modified graph under the same id
  /// (elastic update). On failure the previous version stays deployed.
  Result<void> update(const sg::ServiceGraph& request);

  [[nodiscard]] const std::map<std::string, ServiceRequest>& requests()
      const noexcept {
    return requests_;
  }

  /// Rolled-up NF statuses of a deployed request, keyed by the user's NF
  /// ids (unprefixed).
  [[nodiscard]] Result<std::map<std::string, model::NfStatus>> nf_statuses(
      const std::string& request_id);

  /// True when every NF of the request reports running.
  [[nodiscard]] Result<bool> is_ready(const std::string& request_id);

  /// The view the service orchestrator works against (fetched lazily).
  [[nodiscard]] Result<model::Nffg> view();

  /// Reconciles request states with the health the layer below reports:
  /// a deployed request with any failed NF flips to kDegraded (kept, not
  /// torn down); a degraded one flips back to kDeployed only when all of
  /// its NFs are present below again and none reports failed (absence of
  /// failure evidence alone is not recovery — a torn-down placement would
  /// otherwise read as healthy). Returns the ids currently degraded.
  Result<std::vector<std::string>> sync_health();

  /// Batch/deployment counters (service.batch.*).
  [[nodiscard]] telemetry::Registry& metrics() noexcept { return metrics_; }

 private:
  /// A parked (kPostponed) request: re-queued when the health fingerprint
  /// below moves or after the postpone_retry_pumps backstop.
  struct Parked {
    AdmissionEntry entry;
    std::uint64_t fingerprint = 0;   ///< BelowHealth at park time
    std::uint64_t parked_at_pump = 0;
  };

  Result<void> ensure_view();
  Result<void> push_config();
  /// The one book transaction: pushes the books; on failure runs `undo`
  /// (given the push error) and, when it returns true, pushes the restored
  /// books; returns the push error. When the restore push fails too, the
  /// layer below may diverge from the books: the cached view is dropped
  /// (the next push re-fetches ground truth), `*diverged` is set and both
  /// failures surface as kRollbackFailed for `op`.
  Result<void> push_or_restore(const char* op,
                               const std::function<bool(const Error&)>& undo,
                               bool* diverged = nullptr);
  /// Commits `indices` (admitted, ascending request order) on top of the
  /// current books as one merged push and records the per-request outcomes
  /// the push error's causes name (see submit_batch). Fills `results` for
  /// every index.
  void commit(const std::vector<sg::ServiceGraph>& requests,
              const std::vector<std::size_t>& indices,
              std::vector<Result<std::string>>& results);
  /// True when `error` should park the request (kPostponed) rather than
  /// fail it: transient transport errors always, capacity errors while the
  /// substrate below reports impaired.
  [[nodiscard]] bool should_postpone(const Error& error,
                                     const BelowHealth& below) const;
  /// Records a terminal admission outcome (kShed/kFailed) for `entry`.
  void record_outcome(const AdmissionEntry& entry, RequestState state,
                      std::string error);
  /// Sets an active record's graph: stores `graph` and builds its
  /// prefixed copy for merged_active(). `request.id` must be set.
  static void set_graph(ServiceRequest& request, sg::ServiceGraph graph);
  /// Union of the prefixed graphs of every active record.
  [[nodiscard]] sg::ServiceGraph merged_active() const;
  /// Pure per-request checks (structure + SAP existence against the
  /// fetched view). Thread-safe; submit_batch runs these on the pool.
  [[nodiscard]] std::optional<Error> validate_request(
      const sg::ServiceGraph& request) const;
  /// Frees `id` for a new submission or enqueue: kAlreadyExists while a
  /// request with that id is queued, parked, deployed or degraded;
  /// otherwise drops the old (terminal) record.
  [[nodiscard]] std::optional<Error> reuse_id(const std::string& id);
  [[nodiscard]] util::OrchestrationPool& pool() const noexcept;

  std::unique_ptr<adapters::DomainAdapter> client_;
  util::OrchestrationPool* pool_;
  std::map<std::string, ServiceRequest> requests_;
  std::optional<model::Nffg> view_;
  std::string big_node_;
  /// Consecutive transient push failures against client_ (reset on any
  /// successful push); drives the pre-batch suspect probe.
  int client_failures_ = 0;
  // -- admission lifecycle ------------------------------------------------
  AdmissionPolicy admission_;
  AdmissionQueue queue_{admission_.queue_capacity};
  std::vector<Parked> parked_;
  std::function<BelowHealth()> health_source_;
  std::uint64_t admission_seq_ = 0;
  std::uint64_t pump_count_ = 0;
  telemetry::Registry metrics_;
};

/// Clones `graph` with every NF, link and requirement id (and every
/// requirement's `via`) prefixed by "<prefix>."; SAP ids are left
/// untouched (SAPs are shared infrastructure).
[[nodiscard]] sg::ServiceGraph prefix_elements(const sg::ServiceGraph& graph,
                                               const std::string& prefix);

}  // namespace unify::service
