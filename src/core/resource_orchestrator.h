// Resource Orchestrator (RO): the manager of the joint SFC control plane.
//
// The RO owns a set of southbound domains behind DomainAdapter interfaces
// (native technology domains or child UNIFY domains via the Unify RPC
// client — it cannot tell the difference, which is the point), maintains
// the merged multi-domain resource view, maps service graphs onto it with a
// pluggable embedding algorithm (optionally decomposition-aware), splits
// the resulting configuration per domain and pushes each slice south.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adapters/domain_adapter.h"
#include "catalog/nf_catalog.h"
#include "core/health_manager.h"
#include "core/pinned_mapper.h"
#include "core/sharded_state.h"
#include "mapping/decomp_aware_mapper.h"
#include "mapping/mapper.h"
#include "model/nffg.h"
#include "model/nffg_merge.h"
#include "sg/service_graph.h"
#include "telemetry/metrics.h"
#include "util/result.h"

namespace unify::util {
class OrchestrationPool;
}  // namespace unify::util

namespace unify::core {

/// Southbound push behaviour (per-domain retry, fan-out width, dirty
/// tracking). All knobs are per-RO; the defaults reproduce a plain
/// attempt-once push with clean-domain skipping.
struct PushPolicy {
  /// Total tries per domain per fan-out. Retries happen only on
  /// kUnavailable/kTimeout (transient transport faults); rejections and
  /// semantic errors surface immediately.
  int max_attempts = 1;
  /// Host-time sleep before the first retry; doubles (times
  /// backoff_multiplier) on each further one.
  std::int64_t backoff_initial_us = 200;
  double backoff_multiplier = 2.0;
  /// Caps concurrently pushed exclusion groups (0 = pool width, 1 =
  /// strictly sequential in domain order).
  std::size_t parallelism = 0;
  /// Skip domains whose slice is byte-identical to the last acknowledged
  /// push at an unchanged adapter view_epoch(). Disable for ablation.
  bool skip_clean = true;
};

struct RoOptions {
  /// Enumerate NF decompositions during mapping (paper showcase iii).
  bool use_decomposition = true;
  std::size_t max_decomposition_combinations = 32;
  /// Worker pool for batch mapping and the southbound push fan-out;
  /// nullptr selects the shared process-scoped pool
  /// (util::OrchestrationPool::process_pool()). One pool serves every RO
  /// and service layer in the process — inject a private instance only
  /// for isolation in tests.
  util::OrchestrationPool* pool = nullptr;
  PushPolicy push;
  /// Per-domain circuit breaking (DESIGN.md §10).
  HealthPolicy health;
};

class ResourceOrchestrator {
 public:
  ResourceOrchestrator(std::string name,
                       std::shared_ptr<const mapping::Mapper> mapper,
                       catalog::NfCatalog catalog, RoOptions options = {});

  /// Registers a southbound domain. Must happen before initialize().
  Result<void> add_domain(std::unique_ptr<adapters::DomainAdapter> adapter);

  /// Fetches every domain view and merges them (stitching shared SAPs)
  /// into the RO's global resource view.
  Result<void> initialize();
  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  /// The merged view including everything deployed through this RO
  /// (placements, flowrules, link reservations).
  [[nodiscard]] const model::Nffg& global_view() const noexcept {
    return view_.read();
  }

  /// The sharded copy-on-write container behind global_view(): epoch,
  /// per-domain shard stamps and CoW/snapshot telemetry. Read-only;
  /// benches and tests use it to observe snapshot behaviour.
  [[nodiscard]] const ShardedViewState& view_state() const noexcept {
    return view_;
  }

  struct Deployment {
    std::string request_id;
    sg::ServiceGraph original;  ///< the request as submitted
    sg::ServiceGraph expanded;  ///< post-decomposition service graph
    mapping::Mapping mapping;
    /// Submission order; the healing pass re-embeds stranded deployments
    /// oldest-first so early tenants win contention for surviving capacity.
    std::uint64_t sequence = 0;
    /// Set when healing could not re-place this deployment off a down
    /// domain: it is kept (not torn down) and retried on the next heal().
    bool degraded = false;
    std::string degraded_reason;
  };

  /// Maps and deploys a service graph. On success the placement is pushed
  /// to every affected domain and recorded under the returned request id
  /// (the service graph's id). Fails without side effects when mapping is
  /// infeasible; a domain-push failure after successful mapping is
  /// reported and the global view keeps the accepted state of the
  /// domains that succeeded.
  Result<std::string> deploy(const sg::ServiceGraph& request);

  /// Maps a batch of service graphs concurrently, then deploys them as one
  /// transaction with one southbound fan-out.
  ///
  /// Embedding is the expensive phase and reads only the (unchanging)
  /// global view, so every request is mapped speculatively in parallel on
  /// the shared OrchestrationPool (`workers` caps this batch's parallelism;
  /// 0 = the pool's full width; 1 runs inline), each worker running the
  /// mapper on its own substrate copy. Installs then happen strictly
  /// sequentially in request order: each speculative mapping is
  /// re-validated against the view as left by the earlier installs, and
  /// re-mapped on the spot when the validation detects a resource
  /// conflict. The survivors are pushed south together, once. When that
  /// push fails, every request installed by this batch is rolled back (in
  /// reverse order, then re-pushed) and each of their slots carries the
  /// push error as "deployment <id> rolled back: ...". The mappings and
  /// the final view are deterministic (independent of thread scheduling)
  /// and match the equivalent sequential deploy() loop whenever the
  /// requests do not contend for the same substrate resources; the
  /// sequence of pushes does not (one fan-out instead of one per request).
  ///
  /// Returns one Result per request, index-aligned with `requests`.
  std::vector<Result<std::string>> map_batch(
      const std::vector<sg::ServiceGraph>& requests, std::size_t workers = 0);

  /// The worker pool batch mapping runs on (shared process pool unless one
  /// was injected through RoOptions).
  [[nodiscard]] util::OrchestrationPool& pool() const noexcept;

  /// Deploys with placements fixed by the caller (full-view client did the
  /// embedding): NF hosts come from `pins`, only links are routed, no
  /// decomposition is applied.
  Result<std::string> deploy_pinned(
      const sg::ServiceGraph& request,
      const std::map<std::string, std::string>& pins);

  /// Tears a deployment down everywhere and releases its resources:
  /// remove_batch({request_id})[0].
  Result<void> remove(const std::string& request_id);

  /// Tears several deployments down with one southbound fan-out: releases
  /// every id's resources in order, then pushes once. Returns one Result
  /// per id, index-aligned with `request_ids`: kNotFound for an unknown id;
  /// a failed release leaves that deployment in place with its error; a
  /// failed push is reported on every released id, whose removal still
  /// stays committed in the books (the next fan-out re-pushes the full
  /// slice, and a persistently failing domain trips its circuit breaker).
  std::vector<Result<void>> remove_batch(
      const std::vector<std::string>& request_ids);

  /// Re-maps a live deployment onto the current view (break-before-make
  /// migration, the paper's "migration between technologies"): useful
  /// after capacities changed or other services freed resources. Restores
  /// the previous placement when the new mapping fails.
  Result<void> redeploy(const std::string& request_id);

  /// Re-fetches one domain's view and refreshes the capacities and
  /// attributes of its BiS-BiS nodes in the global view (topology changes
  /// are not supported; deployed state is kept). Models a domain
  /// re-advertising resources.
  Result<void> refresh_domain(const std::string& domain);

  /// Pulls NF operational statuses up from the domains into the view.
  Result<void> sync_statuses();

  /// Recomputes every domain's slice from the current view and pushes the
  /// dirty ones south (same fan-out engine deploy()/remove() use). Useful
  /// after out-of-band view edits and as the bench driver.
  Result<void> resync_domains();

  // -- domain health ------------------------------------------------------

  /// Per-domain circuit-breaker state (fed by every southbound outcome).
  [[nodiscard]] const HealthManager& health() const noexcept {
    return health_;
  }

  /// Forces a domain's circuit open (operator drain / out-of-band failure
  /// signal): the domain leaves the push/fetch fan-out and its capacity is
  /// masked out of the global view until heal() readmits it.
  Result<void> open_circuit(const std::string& domain,
                            const std::string& reason);

  /// Out-of-band liveness observation for one domain — the heartbeat feed
  /// (DESIGN.md §14): a session's keepalive verdicts stream in here with
  /// exactly the weight of a push/fetch outcome, so a silently partitioned
  /// domain trips its breaker in O(heartbeat interval) instead of waiting
  /// for the next push deadline. Wire a resilient session's on_liveness
  /// hook to this. Same-thread only (like every RO entry point).
  Result<void> note_domain_liveness(const std::string& domain,
                                    const Result<void>& observation);

  /// Outcome of one healing pass (request/domain ids, in processing order).
  struct HealReport {
    std::vector<std::string> readmitted;  ///< domains whose probe succeeded
    std::vector<std::string> still_down;  ///< domains whose probe failed
    std::vector<std::string> healed;      ///< requests re-embedded onto survivors
    std::vector<std::string> degraded;    ///< requests that could not be re-placed
    std::vector<std::string> recovered;   ///< degraded requests whose domain returned
    /// Probes skipped this pass because the domain is still inside its
    /// exponential backoff window (HealthPolicy::probe_backoff_initial).
    std::uint64_t probes_deferred = 0;
    /// Failure of the final readmission resync, if any (the heal itself
    /// still counts: placements and health state are already updated).
    std::optional<Error> resync_error;
  };

  /// One pass of the healing loop: half-open probe every down domain
  /// (readmitting responsive ones — capacity unmasked, slice resynced) and
  /// liveness-probe every degraded one (a pass clears its failure streak
  /// and embedding-cost penalty; a failure feeds the streak), then walk
  /// deployments in submission order and re-embed every one with an NF or
  /// routed link on a still-down domain, make-before-break: the
  /// replacement is mapped speculatively against the masked view first —
  /// in parallel on the shared pool, reusing the map_batch machinery — and
  /// the old placement is released only after its replacement embedding
  /// verified, so a heal pass never reduces the placed-service count and
  /// never dips substrate capacity below what the survivors need. Requests
  /// that cannot be re-placed are marked degraded — kept, not torn down,
  /// old books untouched — and retried on the next pass. Deterministic for
  /// a given fault pattern.
  Result<HealReport> heal();

  /// Status of one NF by instance id (searches the view).
  [[nodiscard]] std::optional<model::NfStatus> nf_status(
      const std::string& nf_id) const;

  [[nodiscard]] const std::map<std::string, Deployment>& deployments()
      const noexcept {
    return deployments_;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const catalog::NfCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] telemetry::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& domain_names() const noexcept {
    return domain_names_;
  }

 private:
  /// Mapping-phase counters produced by prepare(); folded into metrics_ by
  /// the (single-threaded) caller so prepare() can run on worker threads.
  struct PrepareStats {
    std::uint64_t decomposition_combinations = 0;
    std::uint64_t pre_expansions = 0;
  };

  /// Admission checks with no side effects: id set and unused, graph
  /// structurally valid, NF ids free in `view`.
  Result<void> admit(const sg::ServiceGraph& request) const;
  /// The pure mapping phase of deploy(): expansion/decomposition plus
  /// embedding against `view` (an Nffg or an epoch-frozen ViewSnapshot —
  /// speculative batch workers pass the latter so every worker shares one
  /// immutable view and topology index). Thread-safe (const, touches no
  /// RO state).
  Result<Deployment> prepare(const sg::ServiceGraph& request,
                             const mapping::SubstrateView& view,
                             PrepareStats& stats) const;
  /// prepare() against a snapshot of the current view; the snapshot is
  /// released before returning, so a commit right after mutates the view
  /// in place instead of triggering a copy-on-write clone.
  Result<Deployment> prepare_current(const sg::ServiceGraph& request,
                                     PrepareStats& stats) const;
  /// Materializes a mapped deployment into the view (stamping the shards
  /// it touches) and the books, without pushing. Returns the request id.
  Result<std::string> install(Deployment deployment);
  /// install() plus push_or_roll_back() for a single deployment.
  Result<std::string> commit(Deployment deployment);
  /// The push half of a commit: one push_slices() fan-out. When it fails,
  /// uninstalls every deployment of `installed` (in reverse order), re-pushes
  /// so domains that already accepted their slice converge back, and
  /// returns the push error.
  Result<void> push_or_roll_back(const std::vector<std::string>& installed);

  /// Last acknowledged push per domain (index-aligned with adapters_).
  /// Two-tier dirty tracking, cheapest test first:
  ///  1. `acked_stamp` — the domain's ShardedViewState shard stamp when the
  ///     slice was cut. If it still matches (and the adapter epoch does),
  ///     no view mutation touched the shard since the ack: skip without
  ///     even materializing the slice.
  ///  2. `acked_hash` — content hash of the acked slice. If the stamp
  ///     moved but the re-cut slice hashes the same, the mutations were
  ///     no-ops for this domain: skip the push, refresh the stamp.
  struct DomainPushState {
    std::uint64_t acked_hash = 0;
    std::uint64_t acked_stamp = 0;
    std::uint64_t acked_epoch = 0;
    bool valid = false;
  };

  /// Outcome of one domain's push task, filled in by a pool worker.
  /// Workers write only their own slot; the caller folds after the join.
  struct PushOutcome {
    Result<void> result = Result<void>::success();
    int attempts = 0;
  };

  /// Pushes `slice` to adapters_[index] with the configured retry policy
  /// (transient kUnavailable/kTimeout errors only). Runs on pool workers:
  /// touches the adapter and `outcome`, nothing else on the RO.
  void push_one(std::size_t index, const model::Nffg& slice,
                PushOutcome& outcome) const;

  /// The southbound fan-out: splits the view per domain, skips clean
  /// domains, groups the rest by adapters' exclusion_key() (adapters
  /// sharing simulated machinery must not run concurrently) and pushes
  /// each group as one pool task. Every domain is attempted even when
  /// others fail; failures are aggregated into one MultiError.
  Result<void> push_slices();

  /// Fetches every domain's view concurrently on the pool (same exclusion
  /// grouping as push_slices). Results are index-aligned with adapters_.
  std::vector<Result<model::Nffg>> fetch_views_parallel();

  /// Groups adapter indices by exclusion_key(): null keys get singleton
  /// groups, equal non-null keys share one (ordered) group.
  [[nodiscard]] std::vector<std::vector<std::size_t>> exclusion_groups(
      const std::vector<std::size_t>& indices) const;

  /// Capacity/bandwidth masked out of view_ while circuits are open, keyed
  /// by node/link id so the original values can be restored on readmission.
  struct ViewMask {
    std::map<std::string, model::Resources> bb_capacity;
    std::map<std::string, double> link_bandwidth;
  };

  /// Rebuilds the view mask from scratch for the currently open circuits:
  /// restores every previously masked value, then zeroes the capacity of
  /// all BiS-BiS on down domains and the bandwidth of every link touching
  /// them. Idempotent and order-independent, so adjacent domains may go
  /// down and recover in any order.
  void remask_view();

  /// Feeds one domain's push/fetch outcome into the health manager,
  /// remasking the view when this observation opened the circuit.
  void note_southbound_outcome(std::size_t index, const Result<void>& result);

  /// True when the deployment has an NF placed on — or a routed path
  /// crossing — any of `down` (domain names).
  [[nodiscard]] bool touches_domains(
      const Deployment& deployment,
      const std::set<std::string>& down) const;

  /// Overwrites the view statuses of every NF of this deployment.
  void set_deployment_nf_status(const Deployment& deployment,
                                model::NfStatus status);

  /// Projects HealthManager::penalty() onto every BiS-BiS of the view
  /// (model::BisBis::health_penalty) so mappers bias node selection away
  /// from flaky domains. Called after every health observation/transition.
  void refresh_health_penalties();

  /// Make-before-break swap: atomically (w.r.t. the books) replaces the
  /// deployment `id` with `replacement`, whose mapping was already verified
  /// against the current view with the old placement still installed. The
  /// old placement is uninstalled, the replacement installed and pushed; on
  /// any failure the old placement and books are restored. Preserves the
  /// deployment's submission sequence.
  Result<void> heal_swap(const std::string& id, Deployment replacement);

  /// Domains whose slice can change when `mapping` is installed or
  /// uninstalled: the domains of every NF host plus both endpoint domains
  /// of every routed link (a conservative superset — cross-domain links
  /// appear in no slice, but their endpoint domains are cheap to stamp).
  [[nodiscard]] std::vector<std::string> touched_domains(
      const mapping::Mapping& mapping) const;

  std::string name_;
  std::shared_ptr<const mapping::Mapper> mapper_;
  catalog::NfCatalog catalog_;
  RoOptions options_;
  std::vector<std::unique_ptr<adapters::DomainAdapter>> adapters_;
  std::vector<std::string> domain_names_;
  std::vector<DomainPushState> push_state_;
  /// The merged global view, sharded by domain: copy-on-write with
  /// per-domain shard stamps. Readers (speculative mappers) work against
  /// epoch-frozen snapshots; mutations go through view_.mut() and stamp
  /// the domains they touch so push_slices() can skip clean shards.
  ShardedViewState view_;
  bool initialized_ = false;
  std::map<std::string, Deployment> deployments_;
  std::uint64_t next_sequence_ = 1;
  HealthManager health_;
  ViewMask mask_;
  telemetry::Registry metrics_;
};

}  // namespace unify::core
