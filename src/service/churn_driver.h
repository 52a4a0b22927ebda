// Churn driver: materializes an infra::churn event stream against the full
// orchestration stack (DESIGN.md §12.3).
//
// The driver owns a canonical soak topology — n accept-all domains in a
// line (the chaos topology), each behind a FaultyAdapter, under one RO /
// virtualizer / service layer connected by a framed Unify link — and
// replays a ChurnEngine's events against it: arrivals enqueue(), pump()
// runs on a fixed sim-time cadence, departures coalesce into remove_batch
// waves, migrations re-enqueue live services at re-embed priority, and
// maintenance windows open/heal domain circuits. The same driver backs the
// churn tests (SLO invariants, determinism) and bench_churn (latency /
// shed-rate numbers), so both measure the identical code path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/resource_orchestrator.h"
#include "core/virtualizer.h"
#include "infra/churn.h"
#include "service/service_layer.h"
#include "util/sim_clock.h"

namespace unify::service {

/// The full soak stack. Built in place (no moves: the layers hold
/// references to the clock and to each other).
struct ChurnStack {
  /// `n_domains` accept-all domains in a line; the admission policy is
  /// applied to the service layer and its health source is wired to the
  /// RO's HealthManager.
  explicit ChurnStack(std::size_t n_domains,
                      const AdmissionPolicy& policy = {});
  ChurnStack(const ChurnStack&) = delete;
  ChurnStack& operator=(const ChurnStack&) = delete;

  SimClock clock;
  std::unique_ptr<core::ResourceOrchestrator> ro;
  std::unique_ptr<core::Virtualizer> virtualizer;
  std::unique_ptr<ServiceLayer> layer;
  std::vector<adapters::FaultyAdapter*> faults;  ///< borrowed, owned by ro
  std::size_t domains = 0;
  /// Set when any accept-all domain was ever asked to apply a slice that
  /// overcommits its capacity (the occupancy-conservation SLO).
  bool overcommit_seen = false;
};

/// Aggregate outcome of one run_churn() pass.
struct ChurnRunReport {
  std::size_t arrivals = 0;    ///< arrival events the engine generated
  std::size_t enqueued = 0;    ///< accepted into the admission queue
  std::size_t deployed = 0;    ///< reached kDeployed via pump()
  std::size_t failed = 0;
  std::size_t shed = 0;        ///< queue bound + displaced + deadline
  std::size_t migrations = 0;  ///< re-embed requests from storms
  std::size_t removed = 0;     ///< departures that tore a service down
  std::size_t pumps = 0;
  std::size_t max_queue_depth = 0;
  std::size_t max_parked = 0;
  std::size_t peak_deployed = 0;  ///< peak live deployments below
  std::size_t live_at_end = 0;    ///< active requests after the run
  double adm_latency_p50_ms = 0;  ///< sim-time enqueue->deploy latency
  double adm_latency_p99_ms = 0;
  double shed_rate = 0;           ///< shed / enqueue attempts
  bool overcommit = false;        ///< any domain ever overcommitted
  /// Set when any heal pass reduced the placed-deployment count
  /// (make-before-break SLO).
  bool heal_shrank = false;
  /// Deterministic fingerprint of the externally observable end state;
  /// equal across runs of the same (spec, seed).
  std::string signature;
};

/// Called after every pump with the stack and the current sim-time; tests
/// hang per-step invariant checks here.
using ChurnTickFn =
    std::function<void(ChurnStack& stack, SimTime now,
                       const PumpReport& report)>;

/// Replays the (spec, seed) event stream against `stack`. `pump_period_us`
/// is the admission cadence: departures buffered since the last tick are
/// flushed as one remove_batch, then pump() dispatches one wave. After the
/// horizon the driver quiesces: clears faults, heals every circuit and
/// pumps until the queue and parking lot drain.
ChurnRunReport run_churn(ChurnStack& stack,
                         const infra::churn::ScenarioSpec& spec,
                         std::uint64_t seed,
                         SimTime pump_period_us = 1'000'000,
                         const ChurnTickFn& on_tick = {});

}  // namespace unify::service
