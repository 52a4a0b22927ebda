// Deterministic trace-driven churn scenario engine (DESIGN.md §12.2).
//
// Generates the workload side of a production soak: Poisson service
// arrivals (with non-homogeneous flash-crowd windows), heavy-tailed
// (bounded-Pareto) service lifetimes, migration storms that re-embed a
// fraction of the live population, and rolling per-domain maintenance
// windows — all as one merged, timestamp-ordered event stream over
// simulated time, so hours of churn compress into seconds of wall clock.
//
// The engine is substrate-agnostic: events reference SAP/domain indices
// and abstract chain shapes; the driver (service::run_churn) materializes
// them against a concrete stack. Everything is derived from one seeded
// Rng pulled in a fixed order, so a (spec, seed) pair yields a
// bit-identical event stream on every run and platform — the replay
// contract the churn tests and CHURN_SEED overrides rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/sim_clock.h"

namespace unify::infra::churn {

/// Abstract service shape; the driver turns it into an sg::make_chain.
struct ChainSpec {
  int src_sap = 0;  ///< SAP index in [0, spec.n_saps)
  int dst_sap = 1;
  std::vector<int> nf_types;  ///< indices into the driver's NF type pool
  double bandwidth = 5;
  double max_delay_ms = 500;
};

enum class EventKind {
  kArrival,           ///< new service request (chain, deadline, priority 0)
  kDeparture,         ///< the service's lifetime ended
  kMigrate,           ///< re-embed a live service (priority: heal class)
  kMaintenanceBegin,  ///< domain goes down for maintenance
  kMaintenanceEnd,    ///< domain comes back
};
[[nodiscard]] const char* to_string(EventKind kind) noexcept;

struct Event {
  SimTime at = 0;
  EventKind kind = EventKind::kArrival;
  std::string service_id;  ///< arrival / departure / migrate
  ChainSpec chain;         ///< arrival / migrate
  int domain = -1;         ///< maintenance events
  SimTime deadline = 0;    ///< absolute admission deadline (arrivals)
};

struct ScenarioSpec {
  SimTime horizon_us = 600'000'000;  ///< 10 sim-minutes of churn
  // -- arrival process ----------------------------------------------------
  double arrival_rate_hz = 20;  ///< base Poisson rate
  struct FlashCrowd {
    SimTime at = 0;
    SimTime duration_us = 0;
    double multiplier = 1;  ///< arrival rate scales by this inside the window
  };
  std::vector<FlashCrowd> flash_crowds;
  // -- lifetimes: bounded Pareto (heavy tail, finite worst case) ----------
  double lifetime_min_s = 0.5;
  double lifetime_alpha = 1.4;
  double lifetime_cap_s = 120;
  // -- admission deadlines, uniform after arrival -------------------------
  double deadline_min_s = 1.0;
  double deadline_max_s = 5.0;
  // -- chain shape --------------------------------------------------------
  int nf_pool = 3;  ///< nf_types drawn from [0, nf_pool)
  int chain_min = 1;
  int chain_max = 2;
  double bandwidth_min = 1;
  double bandwidth_max = 10;
  double max_delay_ms = 500;
  // -- substrate interface ------------------------------------------------
  int n_saps = 3;
  int n_domains = 3;
  // -- disruption schedules -----------------------------------------------
  struct Maintenance {
    SimTime at = 0;
    SimTime duration_us = 0;
    int domain = 0;
  };
  std::vector<Maintenance> maintenance;
  struct MigrationStorm {
    SimTime at = 0;
    double fraction = 0.25;  ///< of the live population to re-embed
  };
  std::vector<MigrationStorm> storms;
};

/// Appends one maintenance window per domain, `stagger_us` apart (rolling
/// maintenance: at any instant at most one domain is down when
/// stagger >= window).
void add_rolling_maintenance(ScenarioSpec& spec, SimTime first_at,
                             SimTime window_us, SimTime stagger_us);

class ChurnEngine {
 public:
  ChurnEngine(ScenarioSpec spec, std::uint64_t seed);

  /// The next event in timestamp order (ties broken by generation order),
  /// or nullopt past the horizon. Timestamps never decrease.
  std::optional<Event> next();

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t arrivals_generated() const noexcept {
    return arrivals_;
  }
  /// Services arrived but not yet departed, from the generator's point of
  /// view (admission outcomes are the driver's business).
  [[nodiscard]] std::size_t live() const noexcept { return live_ids_.size(); }

 private:
  struct Pending {
    SimTime at;
    std::uint64_t seq;
    Event event;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] double rate_at(SimTime t) const noexcept;
  [[nodiscard]] double peak_rate() const noexcept;
  void push(SimTime at, Event event);
  void schedule_next_arrival();
  [[nodiscard]] ChainSpec random_chain();
  [[nodiscard]] SimTime random_lifetime_us();
  void expand_storm(const ScenarioSpec::MigrationStorm& storm);

  ScenarioSpec spec_;
  Rng rng_;
  std::priority_queue<Pending, std::vector<Pending>, Later> queue_;
  std::vector<std::string> live_ids_;  ///< swap-erased; order is seeded
  std::vector<ChainSpec> live_chains_;  ///< parallel to live_ids_
  SimTime arrival_cursor_ = 0;  ///< time of the last scheduled arrival
  std::size_t next_storm_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_service_ = 0;
  std::size_t arrivals_ = 0;
};

}  // namespace unify::infra::churn
