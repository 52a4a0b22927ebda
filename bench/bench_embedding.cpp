// E3 — embedding algorithm comparison.
//
// Mapping time of each algorithm vs substrate family and chain length,
// plus an offline acceptance sweep: how many chains each algorithm packs
// onto the same substrate before the first rejection. Baselines (first-fit
// and random) route with the same path engine, isolating the placement
// policy as the variable.
#include <benchmark/benchmark.h>

#include <optional>

#include "core/resource_orchestrator.h"
#include "infra/topologies.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mapper.h"
#include "service/service_layer.h"
#include "util/orchestration_pool.h"

namespace {

using namespace unify;

std::unique_ptr<mapping::Mapper> make_mapper(int which) {
  switch (which) {
    case 0: return std::make_unique<mapping::GreedyMapper>();
    case 1: return std::make_unique<mapping::ChainDpMapper>();
    case 2: return std::make_unique<mapping::BnbMapper>();
    case 3: return std::make_unique<mapping::FirstFitMapper>();
    default: return std::make_unique<mapping::RandomMapper>();
  }
}
constexpr int kMapperCount = 5;

model::Nffg make_substrate(int which) {
  switch (which) {
    case 0: return infra::topo::leaf_spine(2, 8, 2);
    case 1: return infra::topo::ring(12, 2);
    default: {
      Rng rng(7);
      return infra::topo::random_connected(16, 3.0, 2, rng);
    }
  }
}

const char* substrate_name(int which) {
  switch (which) {
    case 0: return "leaf-spine";
    case 1: return "ring";
    default: return "random";
  }
}

/// Args: {mapper, substrate, chain length}.
void BM_MapChain(benchmark::State& state) {
  const auto mapper = make_mapper(static_cast<int>(state.range(0)));
  const model::Nffg substrate = make_substrate(static_cast<int>(state.range(1)));
  const int length = static_cast<int>(state.range(2));
  const catalog::NfCatalog cat = catalog::default_catalog();
  std::vector<std::string> nf_types;
  for (int i = 0; i < length; ++i) {
    nf_types.push_back(i % 2 == 0 ? "fw-lite" : "monitor");
  }
  const sg::ServiceGraph sg =
      sg::make_chain("chain", "sap1", nf_types, "sap2", 100, 1000);

  std::size_t failures = 0;
  double bw_hops = 0;
  double delay = 0;
  for (auto _ : state) {
    auto mapping = mapper->map(sg, substrate, cat);
    if (!mapping.ok()) {
      ++failures;
    } else {
      bw_hops = mapping->stats.bandwidth_hops;
      delay = 0;
      for (const auto& [req, d] : mapping->requirement_delay) delay += d;
    }
    benchmark::DoNotOptimize(mapping);
  }
  state.SetLabel(std::string(substrate_name(static_cast<int>(state.range(1)))) +
                 "/" + mapper->name());
  state.counters["failed"] = static_cast<double>(failures);
  state.counters["bw_hops"] = bw_hops;
  state.counters["delay_ms"] = delay;
}

/// Acceptance under load: install chains until the first rejection.
/// Args: {mapper, substrate}. The count is the series of interest; time per
/// iteration covers the whole fill sequence.
void BM_FillUntilRejection(benchmark::State& state) {
  const auto mapper = make_mapper(static_cast<int>(state.range(0)));
  const catalog::NfCatalog cat = catalog::default_catalog();
  std::size_t accepted_total = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    model::Nffg substrate = make_substrate(static_cast<int>(state.range(1)));
    std::size_t accepted = 0;
    for (int i = 0; i < 256; ++i) {
      const std::string id = "svc" + std::to_string(i);
      const sg::ServiceGraph sg = service::prefix_elements(
          sg::make_chain(id, "sap1",
                         {i % 2 == 0 ? "fw-lite" : "monitor"}, "sap2", 200,
                         1000),
          id);
      auto mapping = mapper->map(sg, substrate, cat);
      if (!mapping.ok()) break;
      if (!mapping::install_mapping(substrate, sg, cat, *mapping).ok()) {
        break;
      }
      ++accepted;
    }
    accepted_total += accepted;
    ++rounds;
  }
  state.SetLabel(std::string(substrate_name(static_cast<int>(state.range(1)))) +
                 "/" + mapper->name());
  if (rounds > 0) {
    state.counters["chains_accepted"] =
        static_cast<double>(accepted_total) / static_cast<double>(rounds);
  }
}

void map_args(benchmark::internal::Benchmark* bench) {
  for (int mapper = 0; mapper < kMapperCount; ++mapper) {
    for (int substrate = 0; substrate < 3; ++substrate) {
      for (const int length : {2, 4, 8}) {
        bench->Args({mapper, substrate, length});
      }
    }
  }
}

void fill_args(benchmark::internal::Benchmark* bench) {
  for (int mapper = 0; mapper < kMapperCount; ++mapper) {
    for (int substrate = 0; substrate < 3; ++substrate) {
      bench->Args({mapper, substrate});
    }
  }
}

/// Canned-view adapter so the RO front-end can be benchmarked without real
/// domains.
class StaticAdapter final : public adapters::DomainAdapter {
 public:
  StaticAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  const std::string& domain() const noexcept override { return name_; }
  Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg&) override {
    return Result<void>::success();
  }
  std::uint64_t native_operations() const noexcept override { return 0; }

 private:
  std::string name_;
  model::Nffg view_;
};

std::unique_ptr<core::ResourceOrchestrator> batch_ro(
    util::OrchestrationPool* pool) {
  core::RoOptions options;
  options.pool = pool;
  auto ro = std::make_unique<core::ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), options);
  (void)ro->add_domain(std::make_unique<StaticAdapter>(
      "d1", infra::topo::leaf_spine(2, 8, 2)));
  (void)ro->initialize();
  return ro;
}

/// Batch throughput: the same `requests` independent chains deployed
/// through a sequential deploy() loop (workers == 0) or through one
/// map_batch() on an injected OrchestrationPool of `workers` threads.
/// Args: {requests, workers}.
void BM_BatchDeploy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  std::vector<sg::ServiceGraph> requests;
  for (int i = 0; i < n; ++i) {
    const std::string id = "svc" + std::to_string(i);
    requests.push_back(service::prefix_elements(
        sg::make_chain(id, "sap1",
                       {i % 2 == 0 ? "fw-lite" : "monitor"}, "sap2", 10,
                       1000),
        id));
  }

  std::optional<util::OrchestrationPool> pool;
  if (workers > 0) pool.emplace(static_cast<std::size_t>(workers));
  std::size_t failures = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh view per lap; setup excluded.
    auto ro = batch_ro(pool.has_value() ? &*pool : nullptr);
    state.ResumeTiming();
    if (workers == 0) {
      for (const sg::ServiceGraph& request : requests) {
        if (!ro->deploy(request).ok()) ++failures;
      }
    } else {
      for (const auto& result : ro->map_batch(requests)) {
        if (!result.ok()) ++failures;
      }
    }
  }
  state.SetLabel(workers == 0 ? "sequential"
                              : "batch/w" + std::to_string(workers));
  state.counters["failed"] = static_cast<double>(failures);
  state.counters["chains_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void batch_args(benchmark::internal::Benchmark* bench) {
  for (const int n : {8, 32}) {
    for (const int workers : {0, 1, 2, 4}) {
      bench->Args({n, workers});
    }
  }
}

BENCHMARK(BM_MapChain)->Apply(map_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FillUntilRejection)
    ->Apply(fill_args)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchDeploy)->Apply(batch_args)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
