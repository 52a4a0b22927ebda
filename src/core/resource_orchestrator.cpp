#include "core/resource_orchestrator.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "model/nffg_hash.h"
#include "model/nffg_json.h"
#include "util/log.h"
#include "util/orchestration_pool.h"

namespace unify::core {

namespace {

/// The error a deployment reports when its commit push failed and it was
/// rolled back.
Error rolled_back(const std::string& id, const Error& push_error) {
  return Error{push_error.code,
               "deployment " + id + " rolled back: " + push_error.message};
}

}  // namespace

util::OrchestrationPool& ResourceOrchestrator::pool() const noexcept {
  return options_.pool != nullptr ? *options_.pool
                                  : util::OrchestrationPool::process_pool();
}

ResourceOrchestrator::ResourceOrchestrator(
    std::string name, std::shared_ptr<const mapping::Mapper> mapper,
    catalog::NfCatalog catalog, RoOptions options)
    : name_(std::move(name)),
      mapper_(std::move(mapper)),
      catalog_(std::move(catalog)),
      options_(options) {}

Result<void> ResourceOrchestrator::add_domain(
    std::unique_ptr<adapters::DomainAdapter> adapter) {
  if (initialized_) {
    return Error{ErrorCode::kInvalidArgument,
                 "domains must be added before initialize()"};
  }
  for (const auto& existing : adapters_) {
    if (existing->domain() == adapter->domain()) {
      return Error{ErrorCode::kAlreadyExists,
                   "domain " + adapter->domain()};
    }
  }
  domain_names_.push_back(adapter->domain());
  adapters_.push_back(std::move(adapter));
  return Result<void>::success();
}

Result<void> ResourceOrchestrator::initialize() {
  if (initialized_) {
    return Error{ErrorCode::kAlreadyExists, "RO already initialized"};
  }
  if (adapters_.empty()) {
    return Error{ErrorCode::kInvalidArgument, "RO has no domains"};
  }
  // All domain views are fetched concurrently (the merge itself stays on
  // the caller thread); domain order in the merge is preserved, so the
  // result is identical to the old sequential loop.
  std::vector<Result<model::Nffg>> fetched = fetch_views_parallel();
  MultiError failures;
  std::vector<model::DomainView> views;
  views.reserve(adapters_.size());
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    if (!fetched[i].ok()) {
      failures.add(adapters_[i]->domain(), fetched[i].error());
      continue;
    }
    views.push_back(model::DomainView{adapters_[i]->domain(),
                                      std::move(fetched[i]).value()});
  }
  if (!failures.empty()) return failures.to_error();
  UNIFY_ASSIGN_OR_RETURN(model::Nffg merged, model::merge_views(views));
  merged.set_id(name_ + "-global-view");
  view_.reset(std::move(merged));
  push_state_.assign(adapters_.size(), DomainPushState{});
  health_.reset(options_.health, domain_names_);
  mask_ = ViewMask{};
  refresh_health_penalties();
  metrics_.set_gauge("ro.health.down_domains", 0);
  initialized_ = true;
  UNIFY_LOG(kInfo, "orch.ro")
      << name_ << ": merged " << adapters_.size() << " domains into "
      << view_.read().bisbis().size() << " BiS-BiS nodes";
  return Result<void>::success();
}

Result<void> ResourceOrchestrator::admit(
    const sg::ServiceGraph& request) const {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  if (request.id().empty()) {
    return Error{ErrorCode::kInvalidArgument, "service graph needs an id"};
  }
  if (deployments_.count(request.id()) != 0) {
    return Error{ErrorCode::kAlreadyExists, "request " + request.id()};
  }
  if (const auto problems = request.validate(); !problems.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "invalid service graph: " + problems.front()};
  }
  // NF instance ids live in a flat substrate namespace; reject collisions
  // with live deployments up front (callers namespace per request, as the
  // service layer does).
  for (const auto& [nf_id, nf] : request.nfs()) {
    if (view_.read().find_nf(nf_id).has_value()) {
      return Error{ErrorCode::kAlreadyExists,
                   "NF id " + nf_id + " already deployed"};
    }
  }
  return Result<void>::success();
}

Result<ResourceOrchestrator::Deployment> ResourceOrchestrator::prepare(
    const sg::ServiceGraph& request, const mapping::SubstrateView& view,
    PrepareStats& stats) const {
  // Map (with decomposition when enabled).
  Deployment deployment;
  deployment.request_id = request.id();
  deployment.original = request;
  if (options_.use_decomposition) {
    mapping::DecompAwareMapper decomp(mapper_,
                                      options_.max_decomposition_combinations);
    UNIFY_ASSIGN_OR_RETURN(mapping::DecompResult result,
                           decomp.map_with_decomposition(request, view,
                                                         catalog_));
    deployment.expanded = std::move(result.expanded);
    deployment.mapping = std::move(result.mapping);
    stats.decomposition_combinations = result.combinations_tried;
  } else {
    sg::ServiceGraph expanded = request;
    UNIFY_ASSIGN_OR_RETURN(const std::size_t applied,
                           catalog::expand_all(expanded, catalog_));
    stats.pre_expansions = applied;
    UNIFY_ASSIGN_OR_RETURN(mapping::Mapping mapping,
                           mapper_->map(expanded, view, catalog_));
    deployment.expanded = std::move(expanded);
    deployment.mapping = std::move(mapping);
  }
  return deployment;
}

Result<ResourceOrchestrator::Deployment> ResourceOrchestrator::prepare_current(
    const sg::ServiceGraph& request, PrepareStats& stats) const {
  const model::ViewSnapshot snap = view_.snapshot();
  return prepare(request, snap, stats);
}

Result<std::string> ResourceOrchestrator::deploy(
    const sg::ServiceGraph& request) {
  UNIFY_RETURN_IF_ERROR(admit(request));
  PrepareStats stats;
  UNIFY_ASSIGN_OR_RETURN(Deployment deployment,
                         prepare_current(request, stats));
  if (options_.use_decomposition) {
    metrics_.add("ro.decomposition_combinations",
                 stats.decomposition_combinations);
  } else {
    metrics_.add("ro.pre_expansions", stats.pre_expansions);
  }
  return commit(std::move(deployment));
}

std::vector<Result<std::string>> ResourceOrchestrator::map_batch(
    const std::vector<sg::ServiceGraph>& requests, std::size_t workers) {
  std::vector<Result<std::string>> results;
  results.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(Error{ErrorCode::kInternal, "request not processed"});
  }
  if (requests.empty()) return results;

  // Speculative phase: map every admissible request against one frozen
  // snapshot of the current view in parallel on the shared pool. The
  // snapshot pins the epoch and shares a single topology index across all
  // workers (no per-request substrate copies); workers write disjoint
  // slots, so the only synchronization needed is the batch join. The
  // snapshot scope ends before the commit loop, so the strictly-sequential
  // commits mutate the view in place instead of cloning it.
  std::vector<std::optional<Result<Deployment>>> prepared(requests.size());
  std::vector<PrepareStats> stats(requests.size());
  std::size_t pool_size = 0;
  {
    const model::ViewSnapshot snap = view_.snapshot();
    const mapping::SubstrateView frozen(snap);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (const auto admitted = admit(requests[i]); !admitted.ok()) {
        results[i] = admitted.error();
        continue;
      }
      tasks.push_back([this, &requests, &prepared, &stats, &frozen, i] {
        prepared[i] = prepare(requests[i], frozen, stats[i]);
      });
    }
    pool_size = pool().run_all(std::move(tasks), workers);
  }

  // Install phase: strictly sequential, in request order. Earlier installs
  // change the view, so each speculative mapping is re-validated and
  // re-mapped on conflict (optimistic concurrency). Nothing is pushed until
  // every survivor is installed.
  telemetry::Registry batch_metrics;
  batch_metrics.add("ro.batch_requests", requests.size());
  batch_metrics.set_gauge("ro.batch_workers",
                          static_cast<double>(pool_size));
  batch_metrics.set_gauge("ro.batch_pool_workers",
                          static_cast<double>(pool().workers()));
  batch_metrics.set_gauge("ro.batch_pools_constructed",
                          static_cast<double>(
                              util::OrchestrationPool::constructed()));
  std::vector<std::string> installed;
  std::vector<std::size_t> installed_slots;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!prepared[i].has_value()) continue;  // rejected by admit()
    // Earlier installs may have taken this request id or its NF ids.
    if (const auto admitted = admit(requests[i]); !admitted.ok()) {
      results[i] = admitted.error();
      continue;
    }
    Result<Deployment> outcome = std::move(*prepared[i]);
    if (outcome.ok() &&
        !mapping::verify_mapping(outcome->expanded, view_.read(), catalog_,
                                 outcome->mapping)
             .ok()) {
      // A previous install consumed resources the speculative mapping
      // relies on; re-map against the current view.
      batch_metrics.add("ro.batch_conflicts");
      outcome = prepare_current(requests[i], stats[i]);
      if (outcome.ok()) batch_metrics.add("ro.batch_remaps");
    }
    if (!outcome.ok()) {
      results[i] = outcome.error();
      continue;
    }
    if (options_.use_decomposition) {
      batch_metrics.add("ro.decomposition_combinations",
                        stats[i].decomposition_combinations);
    } else {
      batch_metrics.add("ro.pre_expansions", stats[i].pre_expansions);
    }
    results[i] = install(std::move(outcome).value());
    if (results[i].ok()) {
      installed.push_back(*results[i]);
      installed_slots.push_back(i);
    }
  }
  metrics_.merge(batch_metrics);

  // Group commit: one southbound fan-out for the whole batch.
  if (installed.empty()) return results;
  if (const auto pushed = push_or_roll_back(installed); !pushed.ok()) {
    for (std::size_t k = 0; k < installed.size(); ++k) {
      results[installed_slots[k]] = rolled_back(installed[k], pushed.error());
    }
    return results;
  }
  for (const std::string& id : installed) {
    UNIFY_LOG(kInfo, "orch.ro") << name_ << ": deployed " << id;
  }
  return results;
}

Result<std::string> ResourceOrchestrator::deploy_pinned(
    const sg::ServiceGraph& request,
    const std::map<std::string, std::string>& pins) {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  if (request.id().empty() || deployments_.count(request.id()) != 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "bad or duplicate request id " + request.id()};
  }
  Deployment deployment;
  deployment.request_id = request.id();
  deployment.original = request;
  deployment.expanded = request;
  const PinnedMapper pinned(pins);
  {
    // Snapshot released before commit() so the install mutates in place.
    const model::ViewSnapshot snap = view_.snapshot();
    UNIFY_ASSIGN_OR_RETURN(deployment.mapping,
                           pinned.map(request, snap, catalog_));
  }
  return commit(std::move(deployment));
}

Result<std::string> ResourceOrchestrator::install(Deployment deployment) {
  // Materialize into the global view, stamping the shards the mapping
  // touches so push_slices() can skip the clean ones.
  UNIFY_RETURN_IF_ERROR(mapping::install_mapping(
      view_.mut(), deployment.expanded, catalog_, deployment.mapping));
  view_.bump(touched_domains(deployment.mapping));
  deployment.sequence = next_sequence_++;
  metrics_.add("ro.deployments");
  metrics_.summary("ro.nfs_per_request")
      .observe(static_cast<double>(deployment.mapping.stats.nfs_placed));
  std::string id = deployment.request_id;
  deployments_.emplace(id, std::move(deployment));
  return id;
}

Result<void> ResourceOrchestrator::push_or_roll_back(
    const std::vector<std::string>& installed) {
  const auto pushed = push_slices();
  if (pushed.ok()) return pushed;
  // Roll the installs back, newest first: release the view's resources,
  // then re-push so domains that already accepted their slice converge
  // back.
  for (auto id = installed.rbegin(); id != installed.rend(); ++id) {
    const auto it = deployments_.find(*id);
    (void)mapping::uninstall_mapping(view_.mut(), it->second.expanded,
                                     it->second.mapping);
    view_.bump(touched_domains(it->second.mapping));
    deployments_.erase(it);
  }
  if (const auto repush = push_slices(); !repush.ok()) {
    UNIFY_LOG(kError, "orch.ro")
        << name_ << ": rollback push failed: " << repush.error().to_string();
  }
  return pushed;
}

Result<std::string> ResourceOrchestrator::commit(Deployment deployment) {
  UNIFY_ASSIGN_OR_RETURN(std::string id, install(std::move(deployment)));
  if (const auto pushed = push_or_roll_back({id}); !pushed.ok()) {
    return rolled_back(id, pushed.error());
  }
  UNIFY_LOG(kInfo, "orch.ro") << name_ << ": deployed " << id;
  return id;
}

Result<void> ResourceOrchestrator::remove(const std::string& request_id) {
  return remove_batch({request_id})[0];
}

std::vector<Result<void>> ResourceOrchestrator::remove_batch(
    const std::vector<std::string>& request_ids) {
  std::vector<Result<void>> results(request_ids.size(),
                                    Result<void>::success());
  std::vector<std::size_t> removed;
  for (std::size_t i = 0; i < request_ids.size(); ++i) {
    const auto it = deployments_.find(request_ids[i]);
    if (it == deployments_.end()) {
      results[i] = Error{ErrorCode::kNotFound, "request " + request_ids[i]};
      continue;
    }
    if (const auto released = mapping::uninstall_mapping(
            view_.mut(), it->second.expanded, it->second.mapping);
        !released.ok()) {
      results[i] = released;
      continue;
    }
    view_.bump(touched_domains(it->second.mapping));
    deployments_.erase(it);
    removed.push_back(i);
  }
  if (removed.empty()) return results;
  if (const auto pushed = push_slices(); !pushed.ok()) {
    for (const std::size_t i : removed) results[i] = pushed;
    return results;
  }
  metrics_.add("ro.removals", removed.size());
  return results;
}

Result<void> ResourceOrchestrator::redeploy(const std::string& request_id) {
  const auto it = deployments_.find(request_id);
  if (it == deployments_.end()) {
    return Error{ErrorCode::kNotFound, "request " + request_id};
  }
  const Deployment previous = it->second;
  // Free the old placement, remap the original request on what remains.
  UNIFY_RETURN_IF_ERROR(mapping::uninstall_mapping(
      view_.mut(), previous.expanded, previous.mapping));
  view_.bump(touched_domains(previous.mapping));
  deployments_.erase(it);
  auto redone = deploy(previous.original);
  if (!redone.ok()) {
    // No slice has been pushed (the failure was in mapping), so the old
    // placement is still physically running; re-record it in the view.
    // Forced install: the advertised capacity may have shrunk below what
    // the running NFs consume, which is exactly the situation migration
    // exists to resolve.
    if (const auto back = mapping::install_mapping(
            view_.mut(), previous.expanded, catalog_, previous.mapping,
            /*force_placement=*/true);
        !back.ok()) {
      return Error{ErrorCode::kInternal,
                   "redeploy failed AND restore failed: " +
                       back.error().to_string() +
                       " (original failure: " + redone.error().to_string() +
                       ")"};
    }
    view_.bump(touched_domains(previous.mapping));
    deployments_.emplace(request_id, previous);
    return Error{redone.error().code,
                 "redeploy of " + request_id +
                     " failed, previous placement restored: " +
                     redone.error().message};
  }
  metrics_.add("ro.redeploys");
  return push_slices();
}

Result<void> ResourceOrchestrator::refresh_domain(const std::string& domain) {
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    const auto& adapter = adapters_[i];
    if (adapter->domain() != domain) continue;
    if (!health_.admits(i)) {
      return Error{ErrorCode::kUnavailable,
                   "circuit open for domain " + domain +
                       "; heal() readmits it after a successful probe"};
    }
    UNIFY_ASSIGN_OR_RETURN(const model::Nffg fresh, adapter->fetch_view());
    // internal_delay is baked into the topology index's edge weights, so a
    // refresh invalidates the cached index (mut_topology), not just data.
    model::Nffg& view = view_.mut_topology();
    for (const auto& [bb_id, bb] : fresh.bisbis()) {
      model::BisBis* mine = view.find_bisbis(bb_id);
      if (mine == nullptr) {
        return Error{ErrorCode::kInvalidArgument,
                     "domain " + domain + " advertised new BiS-BiS " + bb_id +
                         "; topology changes require re-initialization"};
      }
      mine->capacity = bb.capacity;
      mine->nf_types = bb.nf_types;
      mine->internal_delay = bb.internal_delay;
    }
    view_.bump(domain);
    metrics_.add("ro.domain_refreshes");
    return Result<void>::success();
  }
  return Error{ErrorCode::kNotFound, "domain " + domain};
}

std::vector<std::vector<std::size_t>> ResourceOrchestrator::exclusion_groups(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<const void*> keys;  // index-aligned with groups
  for (const std::size_t index : indices) {
    const void* key = adapters_[index]->exclusion_key();
    if (key != nullptr) {
      bool merged = false;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (keys[g] == key) {
          groups[g].push_back(index);
          merged = true;
          break;
        }
      }
      if (merged) continue;
    }
    groups.push_back({index});
    keys.push_back(key);
  }
  return groups;
}

void ResourceOrchestrator::push_one(std::size_t index,
                                    const model::Nffg& slice,
                                    PushOutcome& outcome) const {
  adapters::DomainAdapter& adapter = *adapters_[index];
  const int max_attempts = std::max(1, options_.push.max_attempts);
  std::int64_t backoff_us = options_.push.backoff_initial_us;
  for (int attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    auto applied = [&]() -> Result<void> {
      UNIFY_ASSIGN_OR_RETURN(const adapters::PushTicket ticket,
                             adapter.begin_apply(slice));
      return adapter.await(ticket);
    }();
    if (applied.ok()) {
      outcome.result = Result<void>::success();
      return;
    }
    const ErrorCode code = applied.error().code;
    const bool transient =
        code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
    if (!transient || attempt >= max_attempts) {
      outcome.result = std::move(applied);
      return;
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
    backoff_us = static_cast<std::int64_t>(
        static_cast<double>(backoff_us) * options_.push.backoff_multiplier);
  }
}

Result<void> ResourceOrchestrator::push_slices() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (push_state_.size() != adapters_.size()) {
    push_state_.assign(adapters_.size(), DomainPushState{});
  }
  // Caller thread: decide dirtiness per domain against the last
  // acknowledged push, cheapest test first.
  //  1. Shard-stamp fast path: if the domain's shard stamp is unchanged
  //     since the ack (and the adapter epoch is too), no view mutation
  //     touched the domain — skip without materializing the slice. This is
  //     what keeps a million-node view from being re-sliced on every push.
  //  2. Content-hash path: the stamp moved, so cut the slice and hash it.
  //     If the hash still matches the acked one, the mutations were no-ops
  //     for this domain — skip the push and refresh the acked stamp so the
  //     fast path re-arms.
  // Either way a domain is clean only while its adapter view_epoch() is
  // unchanged (an epoch bump means the domain mutated since the ack).
  std::vector<std::optional<model::Nffg>> slices(adapters_.size());
  std::vector<std::uint64_t> slice_hash(adapters_.size(), 0);
  std::vector<std::uint64_t> slice_stamp(adapters_.size(), 0);
  std::vector<std::size_t> dirty;
  std::uint64_t skipped = 0;
  std::uint64_t gated = 0;
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    if (!health_.admits(i)) {
      // Circuit open: no retry storms against a dead domain. Its
      // push_state_ was invalidated when the circuit opened, so the slice
      // is re-pushed by the readmission resync.
      ++gated;
      continue;
    }
    DomainPushState& state = push_state_[i];
    const std::uint64_t stamp = view_.shard_stamp(domain_names_[i]);
    const std::uint64_t adapter_epoch = adapters_[i]->view_epoch();
    const bool epoch_clean =
        options_.push.skip_clean && state.valid &&
        state.acked_epoch == adapter_epoch;
    if (epoch_clean && state.acked_stamp == stamp) {
      ++skipped;
      continue;
    }
    slices[i].emplace(
        model::slice_for_domain(view_.read(), domain_names_[i]));
    slice_hash[i] = model::content_hash(*slices[i]);
    slice_stamp[i] = stamp;
    if (epoch_clean && state.acked_hash == slice_hash[i]) {
      ++skipped;
      state.acked_stamp = stamp;
      continue;
    }
    dirty.push_back(i);
  }
  metrics_.add("ro.push.skipped_clean", skipped);
  if (gated > 0) metrics_.add("ro.health.pushes_gated", gated);

  if (!dirty.empty()) {
    // Fan out: one pool task per exclusion group (adapters sharing
    // simulated machinery stay sequential within their group). Workers
    // write only their own PushOutcome slot; everything else is folded on
    // the caller thread after the join. The join is tasks-completed, so a
    // child RO reached through a UnifyClientAdapter can fan its own pushes
    // out on the same pool without deadlocking the parent.
    metrics_.add("ro.push.fanout", dirty.size());
    const auto groups = exclusion_groups(dirty);
    std::vector<PushOutcome> outcomes(adapters_.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      tasks.push_back([this, &groups, &slices, &outcomes, g] {
        for (const std::size_t index : groups[g]) {
          push_one(index, *slices[index], outcomes[index]);
        }
      });
    }
    pool().run_all(std::move(tasks), options_.push.parallelism);

    MultiError failures;
    std::uint64_t retries = 0;
    for (const std::size_t i : dirty) {
      const PushOutcome& outcome = outcomes[i];
      if (outcome.attempts > 1) {
        retries += static_cast<std::uint64_t>(outcome.attempts - 1);
      }
      if (outcome.result.ok()) {
        push_state_[i] = DomainPushState{slice_hash[i], slice_stamp[i],
                                         adapters_[i]->view_epoch(), true};
        metrics_.add("ro.slice_pushes");
      } else {
        // Unknown domain state (a failed apply may have landed partially):
        // never consider it clean until a push succeeds.
        push_state_[i].valid = false;
        failures.add(adapters_[i]->domain(), outcome.result.error());
      }
      note_southbound_outcome(i, outcome.result);
    }
    if (retries > 0) metrics_.add("ro.push.retries", retries);
    const auto wall = std::chrono::steady_clock::now() - wall_start;
    metrics_.summary("ro.push.wall_ms")
        .observe(std::chrono::duration<double, std::milli>(wall).count());
    if (!failures.empty()) {
      metrics_.add("ro.push.partial_failures", failures.size());
      UNIFY_LOG(kWarn, "orch.ro")
          << name_ << ": " << failures.size() << "/" << dirty.size()
          << " domain pushes failed";
      return failures.to_error();
    }
    return Result<void>::success();
  }
  const auto wall = std::chrono::steady_clock::now() - wall_start;
  metrics_.summary("ro.push.wall_ms")
      .observe(std::chrono::duration<double, std::milli>(wall).count());
  return Result<void>::success();
}

std::vector<Result<model::Nffg>> ResourceOrchestrator::fetch_views_parallel() {
  std::vector<Result<model::Nffg>> results;
  results.reserve(adapters_.size());
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    results.emplace_back(
        Error{ErrorCode::kInternal, "domain view not fetched"});
  }
  std::vector<std::size_t> all;
  all.reserve(adapters_.size());
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    if (!health_.admits(i)) {
      results[i] = Error{ErrorCode::kUnavailable,
                         "circuit open for domain " + domain_names_[i]};
      continue;
    }
    all.push_back(i);
  }
  const auto groups = exclusion_groups(all);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    tasks.push_back([this, &groups, &results, g] {
      for (const std::size_t index : groups[g]) {
        results[index] = adapters_[index]->fetch_view();
      }
    });
  }
  pool().run_all(std::move(tasks), options_.push.parallelism);
  return results;
}

Result<void> ResourceOrchestrator::resync_domains() {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  metrics_.add("ro.resyncs");
  return push_slices();
}

Result<void> ResourceOrchestrator::sync_statuses() {
  // Fetch concurrently, fold into the view sequentially (in domain order,
  // so the merged result is identical to the old sequential loop).
  std::vector<Result<model::Nffg>> fetched = fetch_views_parallel();
  MultiError failures;
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    if (!health_.admits(i)) {
      // Known-down domain: its NFs keep their last known statuses (the
      // healing pass stamps them kFailed when it gives up on them) and the
      // sync itself still succeeds for the survivors.
      continue;
    }
    if (!fetched[i].ok()) {
      note_southbound_outcome(i, fetched[i].error());
      failures.add(adapters_[i]->domain(), fetched[i].error());
      continue;
    }
    note_southbound_outcome(i, Result<void>::success());
    const model::Nffg& domain_view = *fetched[i];
    model::Nffg& view = view_.mut();
    bool changed = false;
    for (const auto& [bb_id, bb] : domain_view.bisbis()) {
      model::BisBis* mine = view.find_bisbis(bb_id);
      if (mine == nullptr) continue;
      for (const auto& [nf_id, nf] : bb.nfs) {
        const auto it = mine->nfs.find(nf_id);
        if (it != mine->nfs.end() && it->second.status != nf.status) {
          it->second.status = nf.status;
          changed = true;
        }
      }
    }
    // Only an actually-changed status dirties the domain's shard; a
    // no-op sync keeps the push fast path armed.
    if (changed) view_.bump(adapters_[i]->domain());
  }
  if (!failures.empty()) return failures.to_error();
  return Result<void>::success();
}

void ResourceOrchestrator::note_southbound_outcome(std::size_t index,
                                                  const Result<void>& result) {
  if (result.ok()) {
    health_.record_success(index);
    refresh_health_penalties();
    return;
  }
  if (health_.record_failure(index, result.error())) {
    metrics_.add("ro.health.circuit_opens");
    push_state_[index].valid = false;
    remask_view();  // refreshes penalties too
  } else {
    refresh_health_penalties();
  }
}

void ResourceOrchestrator::refresh_health_penalties() {
  if (domain_names_.empty()) return;
  std::map<std::string, double> by_domain;
  for (std::size_t i = 0; i < domain_names_.size(); ++i) {
    by_domain[domain_names_[i]] = health_.penalty(i);
  }
  // health_penalty is orchestrator-internal (never serialized into a
  // slice and excluded from content_hash), so no shard stamp moves here.
  for (auto& [bb_id, bb] : view_.mut().bisbis()) {
    const auto it = by_domain.find(bb.domain);
    bb.health_penalty = it == by_domain.end() ? 0.0 : it->second;
  }
}

void ResourceOrchestrator::remask_view() {
  // Restore everything previously masked, then re-mask from scratch for
  // the currently open circuits. Rebuilding wholesale keeps the
  // bookkeeping correct when adjacent domains go down and recover in any
  // interleaving (a per-domain mask would save already-zeroed values).
  //
  // Shards touched: the previously-down domains (their values are
  // restored) plus the currently-down ones (they get zeroed) — a masked
  // link is either intra-domain (in that domain's slice) or cross-domain
  // (in no slice), so no other shard can change.
  std::set<std::string> affected;
  {
    model::Nffg& view = view_.mut();
    for (const auto& [bb_id, capacity] : mask_.bb_capacity) {
      if (model::BisBis* bb = view.find_bisbis(bb_id); bb != nullptr) {
        affected.insert(bb->domain);
        bb->capacity = capacity;
      }
    }
    for (const auto& [link_id, bandwidth] : mask_.link_bandwidth) {
      if (model::Link* link = view.find_link(link_id); link != nullptr) {
        link->attrs.bandwidth = bandwidth;
      }
    }
  }
  mask_ = ViewMask{};

  std::set<std::string> down;
  for (const std::size_t i : health_.open_circuits()) {
    down.insert(domain_names_[i]);
  }
  metrics_.set_gauge("ro.health.down_domains",
                     static_cast<double>(down.size()));
  refresh_health_penalties();
  affected.insert(down.begin(), down.end());
  if (!affected.empty()) {
    view_.bump(std::vector<std::string>(affected.begin(), affected.end()));
  }
  if (down.empty()) return;

  model::Nffg& view = view_.mut();
  const auto in_down_domain = [&](const std::string& node_id) {
    const model::BisBis* bb = view.find_bisbis(node_id);
    return bb != nullptr && down.count(bb->domain) != 0;
  };
  for (auto& [bb_id, bb] : view.bisbis()) {
    if (down.count(bb.domain) == 0) continue;
    mask_.bb_capacity.emplace(bb_id, bb.capacity);
    // Zero capacity (not capacity = allocated): residual stays <= 0 even
    // while healing uninstalls strand-ed placements, so the mapper can
    // never sneak a new NF onto the dead domain mid-pass.
    bb.capacity = model::Resources{};
  }
  for (auto& [link_id, link] : view.links()) {
    if (!in_down_domain(link.from.node) && !in_down_domain(link.to.node)) {
      continue;
    }
    mask_.link_bandwidth.emplace(link_id, link.attrs.bandwidth);
    link.attrs.bandwidth = 0;
  }
}

bool ResourceOrchestrator::touches_domains(
    const Deployment& deployment, const std::set<std::string>& down) const {
  if (down.empty()) return false;
  const model::Nffg& view = view_.read();
  const auto bb_down = [&](const std::string& bb_id) {
    const model::BisBis* bb = view.find_bisbis(bb_id);
    return bb != nullptr && down.count(bb->domain) != 0;
  };
  for (const auto& [nf_id, host] : deployment.mapping.nf_host) {
    if (bb_down(host)) return true;
  }
  for (const auto& [sg_link, path] : deployment.mapping.link_paths) {
    for (const std::string& link_id : path.links) {
      const model::Link* link = view.find_link(link_id);
      if (link == nullptr) continue;
      if (bb_down(link->from.node) || bb_down(link->to.node)) return true;
    }
  }
  return false;
}

std::vector<std::string> ResourceOrchestrator::touched_domains(
    const mapping::Mapping& mapping) const {
  std::set<std::string> domains;
  const model::Nffg& view = view_.read();
  const auto note = [&](const std::string& bb_id) {
    if (const model::BisBis* bb = view.find_bisbis(bb_id); bb != nullptr) {
      domains.insert(bb->domain);
    }
  };
  for (const auto& [nf_id, host] : mapping.nf_host) note(host);
  for (const auto& [sg_link, path] : mapping.link_paths) {
    for (const std::string& link_id : path.links) {
      if (const model::Link* link = view.find_link(link_id);
          link != nullptr) {
        note(link->from.node);
        note(link->to.node);
      }
    }
  }
  return {domains.begin(), domains.end()};
}

void ResourceOrchestrator::set_deployment_nf_status(
    const Deployment& deployment, model::NfStatus status) {
  model::Nffg& view = view_.mut();
  std::set<std::string> domains;
  for (const auto& [nf_id, host] : deployment.mapping.nf_host) {
    model::BisBis* bb = view.find_bisbis(host);
    if (bb == nullptr) continue;
    const auto it = bb->nfs.find(nf_id);
    if (it != bb->nfs.end() && it->second.status != status) {
      it->second.status = status;
      domains.insert(bb->domain);
    }
  }
  if (!domains.empty()) {
    view_.bump(std::vector<std::string>(domains.begin(), domains.end()));
  }
}

Result<void> ResourceOrchestrator::heal_swap(const std::string& id,
                                             Deployment replacement) {
  const auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return Error{ErrorCode::kNotFound, "request " + id};
  }
  const Deployment previous = it->second;
  replacement.sequence = previous.sequence;
  // Break: the replacement embedding was verified against the view with the
  // old placement still installed, so releasing the old books now and
  // installing the replacement can only fail on internal inconsistency.
  UNIFY_RETURN_IF_ERROR(mapping::uninstall_mapping(
      view_.mut(), previous.expanded, previous.mapping));
  view_.bump(touched_domains(previous.mapping));
  if (const auto installed = mapping::install_mapping(
          view_.mut(), replacement.expanded, catalog_, replacement.mapping);
      !installed.ok()) {
    // Restore forcibly: the old hosts may sit on a masked (zero-capacity)
    // domain, which is exactly where the stranded placement came from.
    (void)mapping::install_mapping(view_.mut(), previous.expanded, catalog_,
                                   previous.mapping, /*force_placement=*/true);
    view_.bump(touched_domains(previous.mapping));
    return installed.error();
  }
  view_.bump(touched_domains(replacement.mapping));
  it->second = std::move(replacement);
  if (const auto pushed = push_slices(); !pushed.ok()) {
    // Swap back so the books keep describing what actually runs; the repush
    // converges domains that already accepted the new slice.
    (void)mapping::uninstall_mapping(view_.mut(), it->second.expanded,
                                     it->second.mapping);
    view_.bump(touched_domains(it->second.mapping));
    (void)mapping::install_mapping(view_.mut(), previous.expanded, catalog_,
                                   previous.mapping, /*force_placement=*/true);
    view_.bump(touched_domains(previous.mapping));
    it->second = previous;
    if (const auto repush = push_slices(); !repush.ok()) {
      UNIFY_LOG(kError, "orch.ro")
          << name_ << ": heal swap rollback push failed: "
          << repush.error().to_string();
    }
    return pushed.error();
  }
  return Result<void>::success();
}

Result<void> ResourceOrchestrator::open_circuit(const std::string& domain,
                                                const std::string& reason) {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  for (std::size_t i = 0; i < domain_names_.size(); ++i) {
    if (domain_names_[i] != domain) continue;
    if (!health_.open_circuit(i, reason)) {
      return Error{ErrorCode::kAlreadyExists,
                   "circuit already open for domain " + domain};
    }
    metrics_.add("ro.health.circuit_opens");
    push_state_[i].valid = false;
    remask_view();
    return Result<void>::success();
  }
  return Error{ErrorCode::kNotFound, "domain " + domain};
}

Result<void> ResourceOrchestrator::note_domain_liveness(
    const std::string& domain, const Result<void>& observation) {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  for (std::size_t i = 0; i < domain_names_.size(); ++i) {
    if (domain_names_[i] != domain) continue;
    if (!observation.ok()) metrics_.add("ro.health.liveness_failures");
    note_southbound_outcome(i, observation);
    return Result<void>::success();
  }
  return Error{ErrorCode::kNotFound, "domain " + domain};
}

Result<ResourceOrchestrator::HealReport> ResourceOrchestrator::heal() {
  if (!initialized_) {
    return Error{ErrorCode::kUnavailable, "RO not initialized"};
  }
  HealReport report;

  // Phase 1: half-open probe every down domain. A responsive domain is
  // readmitted immediately — capacity unmasked via remask_view(), dirty
  // push state — so the re-embedding below can already use its capacity.
  bool any_readmitted = false;
  for (const std::size_t i : health_.open_circuits()) {
    if (!health_.should_probe(i)) {
      // Still inside the exponential backoff window after earlier failed
      // probes: skip this pass (the domain stays down and masked).
      ++report.probes_deferred;
      metrics_.add("ro.health.probes_deferred");
      report.still_down.push_back(domain_names_[i]);
      continue;
    }
    health_.begin_probe(i);
    metrics_.add("ro.health.probes");
    if (const auto probed = adapters_[i]->probe(); probed.ok()) {
      health_.close_circuit(i);
      metrics_.add("ro.health.circuit_closes");
      push_state_[i].valid = false;
      report.readmitted.push_back(domain_names_[i]);
      any_readmitted = true;
    } else {
      health_.probe_failed(i, probed.error());
      metrics_.add("ro.health.probe_failures");
      report.still_down.push_back(domain_names_[i]);
    }
  }

  // Phase 1b: liveness-probe degraded (flaky but still admitted) domains.
  // A pass proves the domain recovered — record_success resets the failure
  // streak, so its embedding-cost penalty clears and load re-balances — and
  // a failure feeds the streak, tripping the breaker now rather than on the
  // next real push.
  for (std::size_t i = 0; i < adapters_.size(); ++i) {
    if (health_.health(i) != DomainHealth::kDegraded) continue;
    if (!health_.should_probe(i)) {
      ++report.probes_deferred;
      metrics_.add("ro.health.probes_deferred");
      continue;
    }
    metrics_.add("ro.health.probes");
    const auto probed = adapters_[i]->probe();
    if (!probed.ok()) metrics_.add("ro.health.probe_failures");
    note_southbound_outcome(i, probed);
  }
  remask_view();

  std::set<std::string> down;
  for (const std::size_t i : health_.open_circuits()) {
    down.insert(domain_names_[i]);
  }

  // Phase 2: walk deployments in submission order. Stranded ones (an NF or
  // a routed link on a still-down domain) are re-embedded onto surviving
  // capacity; ones stranded no longer (their domain came back) recover.
  std::vector<std::pair<std::uint64_t, std::string>> order;
  order.reserve(deployments_.size());
  for (const auto& [id, dep] : deployments_) {
    order.emplace_back(dep.sequence, id);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::string> stranded;
  for (const auto& [sequence, id] : order) {
    auto it = deployments_.find(id);
    if (it == deployments_.end()) continue;
    if (touches_domains(it->second, down)) {
      stranded.push_back(id);
      continue;
    }
    if (it->second.degraded) {
      // The domain that stranded this request returned before we managed
      // to re-place it: the old placement is intact and the readmission
      // resync below re-pushes it. Statuses restart their lifecycle.
      it->second.degraded = false;
      it->second.degraded_reason.clear();
      set_deployment_nf_status(it->second, model::NfStatus::kRequested);
      metrics_.add("ro.health.recovered");
      report.recovered.push_back(id);
    }
  }

  const auto mark_degraded = [&](const std::string& id, const Error& error) {
    metrics_.add("ro.health.heal_failures");
    report.degraded.push_back(id);
    const auto still = deployments_.find(id);
    if (still != deployments_.end()) {
      // Unrecoverable for now: keep the deployment (its NFs may well be
      // running wherever the domain still is), surface it as degraded
      // and retry on the next pass.
      still->second.degraded = true;
      still->second.degraded_reason = error.to_string();
      set_deployment_nf_status(still->second, model::NfStatus::kFailed);
    }
    UNIFY_LOG(kWarn, "orch.ro")
        << name_ << ": heal could not re-place " << id << ": "
        << error.to_string();
  };

  // Make: map every stranded deployment's replacement against the masked
  // view first, in parallel on the shared pool (map_batch's speculative
  // machinery — workers read only view_/catalog_ and write disjoint
  // slots). The old placements are still installed, so each replacement
  // is planned against exactly the capacity the survivors really have,
  // and NF-id collisions cannot happen: place_nf() rejects a duplicate id
  // only on the same BiS-BiS, and the stranded hosts are masked to zero.
  std::vector<std::optional<Result<Deployment>>> prepared(stranded.size());
  std::vector<PrepareStats> stats(stranded.size());
  {
    // One frozen snapshot of the masked view for all speculative
    // replacements; released before the sequential swaps mutate.
    const model::ViewSnapshot snap = view_.snapshot();
    const mapping::SubstrateView frozen(snap);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(stranded.size());
    for (std::size_t k = 0; k < stranded.size(); ++k) {
      const Deployment& dep = deployments_.at(stranded[k]);
      tasks.push_back([this, &prepared, &stats, &frozen, &dep, k] {
        prepared[k] = prepare(dep.original, frozen, stats[k]);
      });
    }
    pool().run_all(std::move(tasks));
  }

  // Break: strictly sequential swaps in submission order. Earlier swaps
  // consume survivor capacity, so each speculative mapping is re-verified
  // against the current view and re-mapped on conflict before the old
  // placement is released. On any failure the old books stay untouched
  // and the service goes degraded.
  for (std::size_t k = 0; k < stranded.size(); ++k) {
    const std::string& id = stranded[k];
    Result<Deployment> outcome = std::move(*prepared[k]);
    if (outcome.ok() &&
        !mapping::verify_mapping(outcome->expanded, view_.read(), catalog_,
                                 outcome->mapping)
             .ok()) {
      metrics_.add("ro.health.heal_remaps");
      outcome = prepare_current(deployments_.at(id).original, stats[k]);
    }
    if (outcome.ok()) {
      if (const auto swapped = heal_swap(id, std::move(outcome).value());
          swapped.ok()) {
        const auto healed = deployments_.find(id);
        healed->second.degraded = false;
        healed->second.degraded_reason.clear();
        metrics_.add("ro.health.heals");
        report.healed.push_back(id);
        continue;
      } else {
        outcome = swapped.error();
      }
    }
    mark_degraded(id, outcome.error());
  }

  // Phase 3: push readmitted domains back to a byte-consistent slice.
  if (any_readmitted) {
    if (const auto resynced = resync_domains(); !resynced.ok()) {
      report.resync_error = resynced.error();
    }
  }
  return report;
}

std::optional<model::NfStatus> ResourceOrchestrator::nf_status(
    const std::string& nf_id) const {
  const auto found = view_.read().find_nf(nf_id);
  if (!found.has_value()) return std::nullopt;
  return found->second->status;
}

}  // namespace unify::core
