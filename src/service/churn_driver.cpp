#include "service/churn_driver.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "catalog/nf_catalog.h"
#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "sg/service_graph.h"

namespace unify::service {
namespace {

/// The NF type pool churn chains draw from (all in the default catalog).
const std::vector<std::string>& nf_type_pool() {
  static const std::vector<std::string> kPool{"nat", "fw-lite", "dpi"};
  return kPool;
}

/// Accept-all domain that replays the last accepted slice and flags any
/// overcommitted slice it is asked to apply (the occupancy-conservation
/// SLO: make-before-break means no domain ever sees residual < 0).
class AcceptAllDomain final : public adapters::DomainAdapter {
 public:
  AcceptAllDomain(std::string name, model::Nffg view, bool* overcommit)
      : name_(std::move(name)), view_(std::move(view)),
        overcommit_(overcommit) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    if (applies_ == 0) return view_;
    return last_applied_;
  }
  Result<void> apply(const model::Nffg& desired) override {
    ++applies_;
    for (const auto& [bb_id, bb] : desired.bisbis()) {
      const model::Resources res = bb.residual();
      if (res.cpu < -1e-9 || res.mem < -1e-9 || res.storage < -1e-9) {
        *overcommit_ = true;
      }
    }
    last_applied_ = desired;
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applies_;
  }

 private:
  std::string name_;
  model::Nffg view_;
  model::Nffg last_applied_;
  std::uint64_t applies_ = 0;
  bool* overcommit_;
};

/// Domain i of an n-domain line: customer SAP sap<i>, stitch SAPs
/// x<i-1>/x<i> towards the neighbours (the chaos soak topology).
model::Nffg churn_domain_view(std::size_t i, std::size_t n) {
  const std::string bb = "bb" + std::to_string(i);
  model::Nffg g{bb + "-view"};
  // Sized so the default scenario's steady-state live population (~30
  // chains) fits with headroom: overload then comes from flash crowds and
  // maintenance (exercising the queue bound), not permanent saturation.
  (void)g.add_bisbis(model::make_bisbis(bb, {128, 65536, 1600}, 6));
  model::attach_sap(g, "sap" + std::to_string(i), bb, 0, {1000, 0.1});
  if (i > 0) {
    model::attach_sap(g, "x" + std::to_string(i - 1), bb, 1, {1000, 0.5});
  }
  if (i + 1 < n) {
    model::attach_sap(g, "x" + std::to_string(i), bb, 2, {1000, 0.5});
  }
  return g;
}

/// Turns an abstract ChainSpec into a concrete service graph against the
/// line topology's SAP names and the catalog's NF types.
sg::ServiceGraph materialize(const std::string& id,
                             const infra::churn::ChainSpec& chain,
                             std::size_t n_domains) {
  const auto& pool = nf_type_pool();
  const auto sap = [n_domains](int index) {
    return "sap" + std::to_string(static_cast<std::size_t>(index) % n_domains);
  };
  std::vector<std::string> nfs;
  nfs.reserve(chain.nf_types.size());
  for (const int type : chain.nf_types) {
    nfs.push_back(pool[static_cast<std::size_t>(type) % pool.size()]);
  }
  return sg::make_chain(id, sap(chain.src_sap), nfs, sap(chain.dst_sap),
                        chain.bandwidth, chain.max_delay_ms);
}

}  // namespace

ChurnStack::ChurnStack(std::size_t n_domains, const AdmissionPolicy& policy)
    : domains(n_domains) {
  ro = std::make_unique<core::ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  for (std::size_t i = 0; i < n_domains; ++i) {
    auto faulty = std::make_unique<adapters::FaultyAdapter>(
        std::make_unique<AcceptAllDomain>("d" + std::to_string(i),
                                          churn_domain_view(i, n_domains),
                                          &overcommit_seen));
    faults.push_back(faulty.get());
    (void)ro->add_domain(std::move(faulty));
  }
  (void)ro->initialize();
  virtualizer = std::make_unique<core::Virtualizer>(
      *ro, core::ViewPolicy::kSingleBisBis);
  layer = std::make_unique<ServiceLayer>(
      core::make_unify_link(*virtualizer, clock, "north"));
  layer->set_admission_policy(policy);
  layer->set_health_source([ro = ro.get()] {
    return BelowHealth{ro->health().state_fingerprint(),
                       ro->health().any_unhealthy()};
  });
}

ChurnRunReport run_churn(ChurnStack& stack,
                         const infra::churn::ScenarioSpec& spec,
                         std::uint64_t seed, SimTime pump_period_us,
                         const ChurnTickFn& on_tick) {
  infra::churn::ChurnEngine engine(spec, seed);
  ChurnRunReport report;
  std::vector<std::string> departures;  ///< buffered until the next tick
  // Engine service id -> current layer id: a migration retires the old
  // placement and re-embeds under "<id>m", so later engine events (the
  // departure, another storm) must chase the alias.
  std::map<std::string, std::string> alias;
  SimTime next_pump = pump_period_us;

  // Make-before-break SLO: a heal pass must never reduce the placed
  // deployment count.
  const auto heal_checked = [&] {
    const std::size_t placed_before = stack.ro->deployments().size();
    const auto healed = stack.ro->heal();
    if (!healed.ok()) return;
    if (stack.ro->deployments().size() < placed_before) {
      report.heal_shrank = true;
    }
  };

  const auto flush_and_pump = [&](SimTime t) {
    if (!departures.empty()) {
      const auto results = stack.layer->remove_batch(departures);
      for (const auto& result : results) {
        if (result.ok()) ++report.removed;
      }
      departures.clear();
    }
    const PumpReport pumped = stack.layer->pump(t);
    ++report.pumps;
    report.deployed += pumped.deployed;
    report.failed += pumped.failed;
    report.max_queue_depth =
        std::max(report.max_queue_depth, stack.layer->queue_depth());
    report.max_parked =
        std::max(report.max_parked, stack.layer->parked_count());
    report.peak_deployed =
        std::max(report.peak_deployed, stack.ro->deployments().size());
    if (on_tick) on_tick(stack, t, pumped);
  };

  while (auto event = engine.next()) {
    while (next_pump <= event->at) {
      flush_and_pump(next_pump);
      next_pump += pump_period_us;
    }
    switch (event->kind) {
      case infra::churn::EventKind::kArrival: {
        const sg::ServiceGraph graph =
            materialize(event->service_id, event->chain, stack.domains);
        AdmissionOptions options;
        options.deadline = event->deadline;
        if (stack.layer->enqueue(graph, event->at, options).ok()) {
          ++report.enqueued;
        }
        break;
      }
      case infra::churn::EventKind::kDeparture: {
        const auto it = alias.find(event->service_id);
        departures.push_back(it == alias.end() ? event->service_id
                                               : it->second);
        if (it != alias.end()) alias.erase(it);
        break;
      }
      case infra::churn::EventKind::kMigrate: {
        const auto it = alias.find(event->service_id);
        const std::string current =
            it == alias.end() ? event->service_id : it->second;
        const auto& requests = stack.layer->requests();
        const auto rit = requests.find(current);
        if (rit == requests.end() ||
            (rit->second.state != RequestState::kDeployed &&
             rit->second.state != RequestState::kDegraded)) {
          break;  // never deployed (shed/failed/queued): nothing to move
        }
        const std::string next_id = current + "m";
        AdmissionOptions options;
        options.klass = AdmissionClass::kReembed;
        options.deadline = event->deadline;
        const sg::ServiceGraph graph =
            materialize(next_id, event->chain, stack.domains);
        if (stack.layer->enqueue(graph, event->at, options).ok()) {
          ++report.migrations;
          departures.push_back(current);
          alias[event->service_id] = next_id;
        }
        break;
      }
      case infra::churn::EventKind::kMaintenanceBegin: {
        const auto d = static_cast<std::size_t>(event->domain);
        if (d >= stack.domains) break;
        stack.faults[d]->set_failure_rate(1.0);
        (void)stack.ro->open_circuit("d" + std::to_string(d), "maintenance");
        break;
      }
      case infra::churn::EventKind::kMaintenanceEnd: {
        const auto d = static_cast<std::size_t>(event->domain);
        if (d >= stack.domains) break;
        stack.faults[d]->set_failure_rate(0.0);
        heal_checked();
        (void)stack.layer->sync_health();
        break;
      }
    }
  }

  // Tail of the horizon, then quiesce: clear every fault, heal every
  // circuit, and pump until the queue and parking lot drain (deadlines
  // shed what can no longer be served).
  while (next_pump <= spec.horizon_us) {
    flush_and_pump(next_pump);
    next_pump += pump_period_us;
  }
  for (adapters::FaultyAdapter* fault : stack.faults) {
    fault->fail_next(0);
    fault->set_failure_rate(0.0);
  }
  for (int round = 0; round < 4 && stack.ro->health().any_open(); ++round) {
    heal_checked();
  }
  (void)stack.layer->sync_health();
  SimTime t = next_pump;
  for (int round = 0;
       round < 64 && (stack.layer->queue_depth() > 0 ||
                      stack.layer->parked_count() > 0 ||
                      !departures.empty());
       ++round) {
    flush_and_pump(t);
    t += pump_period_us;
  }

  report.arrivals = engine.arrivals_generated();
  telemetry::Registry& metrics = stack.layer->metrics();
  report.shed = metrics.counter("service.admission.shed_queue_full") +
                metrics.counter("service.admission.shed_displaced") +
                metrics.counter("service.admission.shed_deadline");
  const std::uint64_t attempts =
      metrics.counter("service.admission.enqueued");
  report.shed_rate = attempts == 0
                         ? 0.0
                         : static_cast<double>(report.shed) /
                               static_cast<double>(attempts);
  if (const telemetry::Summary* latency =
          metrics.find_summary("service.admission.latency_ms")) {
    report.adm_latency_p50_ms = latency->percentile(0.5);
    report.adm_latency_p99_ms = latency->percentile(0.99);
  }
  report.overcommit = stack.overcommit_seen;
  std::size_t live = 0;
  std::ostringstream signature;
  for (const auto& [id, request] : stack.layer->requests()) {
    if (request.state == RequestState::kDeployed ||
        request.state == RequestState::kDegraded) {
      ++live;
    }
    signature << id << '=' << to_string(request.state) << ';';
  }
  report.live_at_end = live;
  signature << "deployments=" << stack.ro->deployments().size()
            << ";arrivals=" << report.arrivals
            << ";deployed=" << metrics.counter("service.admission.deployed")
            << ";shed=" << report.shed
            << ";failed=" << metrics.counter("service.admission.failed");
  report.signature = signature.str();
  return report;
}

}  // namespace unify::service
