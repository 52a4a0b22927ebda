// Domain health manager: per-domain failure detection and circuit breaking.
//
// Real southbound domains fail, drain and come back; an RO that keeps
// retrying a dead domain turns every push fan-out into a retry storm and
// keeps embedding new services onto capacity that cannot be programmed.
// The HealthManager tracks one circuit-breaker state machine per domain:
//
//     healthy --(transient failures)--> degraded --(threshold)--> down
//        ^                                                          |
//        +-- close_circuit() <-- probing <------ begin_probe() -----+
//                                   |                               ^
//                                   +------- probe_failed() --------+
//
// The machine is fed passively by push/fetch outcomes (record_failure /
// record_success) and driven actively by the orchestrator's healing pass
// (begin_probe on a down domain, then close_circuit or probe_failed with
// the probe's outcome). Only transient transport errors (kUnavailable,
// kTimeout) count towards opening the circuit: a rejection proves the
// domain is alive and resets the failure streak. While the circuit is open
// (down or probing) the domain is excluded from the push/fetch fan-out —
// admits() is the gate — and the orchestrator masks its capacity out of
// the global view so new embeddings route around it (DESIGN.md §10).
//
// The manager is plain bookkeeping with no locking: it is only touched
// from the orchestrator's caller thread (pool workers report outcomes into
// private slots that the caller folds, as everywhere else in the RO).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace unify::core {

enum class DomainHealth { kHealthy, kDegraded, kDown, kProbing };
[[nodiscard]] const char* to_string(DomainHealth health) noexcept;

class HealthManager {
 public:
  struct DomainRecord {
    std::string domain;
    DomainHealth health = DomainHealth::kHealthy;
    /// Transient failures since the last success (resets on any response).
    int consecutive_failures = 0;
    std::uint64_t failures_total = 0;
    std::uint64_t circuit_opens = 0;
    std::uint64_t probes = 0;
    std::uint64_t probe_failures = 0;
    /// Bumps on every observation and transition (never regresses); lets
    /// callers detect "anything happened since I last looked" cheaply.
    std::uint64_t generation = 0;
    std::string last_error;  ///< most recent failure, for reports/logs
  };

  HealthManager() = default;

  /// (Re)arms the manager for `domains` (index-aligned with the RO's
  /// adapters). All domains start healthy.
  void reset(std::vector<std::string> domains);

  // -- passive feed (push/fetch outcomes) --------------------------------

  /// Records a failed southbound operation. Returns true when exactly this
  /// observation opened the circuit (the caller masks the domain then).
  /// Non-transient errors prove liveness and reset the failure streak;
  /// observations against an already-open circuit never re-open it.
  bool record_failure(std::size_t index, const Error& error);
  void record_success(std::size_t index);

  // -- active transitions (healing pass) ---------------------------------

  /// Forces the circuit open (healthy/degraded -> down) regardless of the
  /// failure streak — operator drain, or a caller that learned out-of-band
  /// that the domain died. Returns true when the state actually changed.
  bool open_circuit(std::size_t index, const std::string& reason);
  /// down -> probing (half-open): one cheap liveness probe is in flight.
  void begin_probe(std::size_t index);
  /// probing -> down: the probe failed, the breaker stays open.
  void probe_failed(std::size_t index, const Error& error);
  /// probing/down -> healthy: the domain is readmitted (the caller unmasks
  /// capacity and resyncs the slice). Resets the failure streak.
  void close_circuit(std::size_t index);

  // -- queries -----------------------------------------------------------

  /// False while the circuit is open (down or probing): the domain must be
  /// excluded from push/fetch fan-outs. Unknown indices are admitted, so
  /// the manager is safe to consult before reset() armed it.
  [[nodiscard]] bool admits(std::size_t index) const noexcept;
  [[nodiscard]] DomainHealth health(std::size_t index) const noexcept;
  /// Embedding-cost bias for the domain: 0 iff healthy, scaled by the
  /// failure streak while degraded, higher while probing, highest while
  /// down (constants in health_manager.cpp). The orchestrator projects it
  /// onto every BiS-BiS of the domain (model::BisBis::health_penalty) so
  /// mappers drain flaky domains before the breaker trips.
  [[nodiscard]] double penalty(std::size_t index) const noexcept;
  [[nodiscard]] const DomainRecord& record(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  /// Indices whose circuit is open (down or probing), ascending.
  [[nodiscard]] std::vector<std::size_t> open_circuits() const;
  [[nodiscard]] bool any_open() const noexcept;
  /// True when any domain is not kHealthy (degraded counts, unlike
  /// any_open): the layer above parks capacity-starved requests only while
  /// the substrate below is actually impaired.
  [[nodiscard]] bool any_unhealthy() const noexcept;
  /// Order-sensitive digest of the per-domain health STATES (not the
  /// generations): changes exactly when some domain transitions, stays put
  /// across mere observations. Admission layers stamp parked requests with
  /// it and retry them when it moves — "a domain was readmitted (or died),
  /// re-evaluate" — without coupling to this manager's internals.
  [[nodiscard]] std::uint64_t state_fingerprint() const noexcept;

 private:
  std::vector<DomainRecord> records_;
};

}  // namespace unify::core
