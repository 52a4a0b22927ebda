// Healing pass cost: K services are stranded on a killed domain (their
// NFs pinned there; endpoints on survivors) and one heal() call must
// probe the dead domain, fail, and re-embed all K onto the remaining
// 2/4/8 domains. Measures the time-to-heal the circuit breaker buys —
// the benchmark argument is the survivor count, so it shows how healing
// scales with the capacity left to re-embed into. heal() is
// make-before-break: replacements are mapped and installed before the
// stranded placements are released.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/resource_orchestrator.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "sg/service_graph.h"

namespace {

using namespace unify;

constexpr std::size_t kStrandedServices = 8;

class AcceptAllAdapter final : public adapters::DomainAdapter {
 public:
  AcceptAllAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg&) override {
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }

 private:
  std::string name_;
  model::Nffg view_;
};

/// Domain i of an n-domain line (stitch SAP x<i> shared with the next).
model::Nffg line_domain_view(std::size_t i, std::size_t n) {
  const std::string bb = "bb" + std::to_string(i);
  model::Nffg g{bb + "-view"};
  (void)g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 6));
  model::attach_sap(g, "sap" + std::to_string(i), bb, 0, {1000, 0.1});
  if (i > 0) {
    model::attach_sap(g, "x" + std::to_string(i - 1), bb, 1, {1000, 0.5});
  }
  if (i + 1 < n) {
    model::attach_sap(g, "x" + std::to_string(i), bb, 2, {1000, 0.5});
  }
  return g;
}

/// sap<from> -> nf<k> -> sap<to>, with its NF pinned onto the victim.
sg::ServiceGraph stranded_chain(std::size_t k, std::size_t from,
                                std::size_t to) {
  sg::ServiceGraph g{"s" + std::to_string(k)};
  const std::string nf = "nf" + std::to_string(k);
  (void)g.add_sap("sap" + std::to_string(from));
  (void)g.add_sap("sap" + std::to_string(to));
  (void)g.add_nf(sg::SgNf{nf, "nat", 2, model::Resources{1, 512, 1}});
  (void)g.add_link(sg::SgLink{
      "in", {"sap" + std::to_string(from), 0}, {nf, 0}, 5});
  (void)g.add_link(sg::SgLink{
      "out", {nf, 1}, {"sap" + std::to_string(to), 0}, 5});
  (void)g.add_requirement(sg::E2eRequirement{
      "e2e", "sap" + std::to_string(from), "sap" + std::to_string(to), 500,
      5});
  return g;
}

void BM_HealStrandedServices(benchmark::State& state) {
  const auto survivors = static_cast<std::size_t>(state.range(0));
  const std::size_t domains = survivors + 1;  // domain 0 is the victim
  std::uint64_t heals = 0;

  for (auto _ : state) {
    state.PauseTiming();
    core::ResourceOrchestrator ro(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    std::vector<adapters::FaultyAdapter*> faults;
    for (std::size_t i = 0; i < domains; ++i) {
      auto faulty = std::make_unique<adapters::FaultyAdapter>(
          std::make_unique<AcceptAllAdapter>("d" + std::to_string(i),
                                             line_domain_view(i, domains)));
      faults.push_back(faulty.get());
      if (!ro.add_domain(std::move(faulty)).ok()) {
        state.SkipWithError("add_domain failed");
        return;
      }
    }
    if (!ro.initialize().ok()) {
      state.SkipWithError("initialize failed");
      return;
    }
    for (std::size_t k = 0; k < kStrandedServices; ++k) {
      const std::size_t from = 1 + (k % survivors);
      const std::size_t to = 1 + ((k + 1) % survivors);
      const auto deployed = ro.deploy_pinned(
          stranded_chain(k, from, to),
          {{"nf" + std::to_string(k), "bb0"}});
      if (!deployed.ok()) {
        state.SkipWithError("deploy_pinned failed");
        return;
      }
    }
    if (!ro.open_circuit("d0", "bench kill").ok()) {
      state.SkipWithError("open_circuit failed");
      return;
    }
    faults[0]->set_failure_rate(1.0);  // the probe keeps failing
    state.ResumeTiming();

    const auto healed = ro.heal();
    if (!healed.ok() || healed->healed.size() != kStrandedServices) {
      state.SkipWithError("heal did not recover every stranded service");
      return;
    }
    ++heals;
  }
  state.counters["survivors"] = static_cast<double>(survivors);
  state.counters["stranded_services"] =
      static_cast<double>(kStrandedServices);
  state.counters["heals"] = static_cast<double>(heals);
}

}  // namespace

BENCHMARK(BM_HealStrandedServices)
    ->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
