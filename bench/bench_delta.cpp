// E7 — the delta-based edit-config ablation (DESIGN.md §6.4).
//
// A manager keeps re-sending its (growing) full desired configuration; the
// adapter computes the difference against what is already deployed (the
// UNIFY design); the naive baseline first tears everything down, by
// applying the adapter's initial empty view, and then installs the whole
// desired config. The series of interest is native domain operations and
// simulated control latency per *newly added* service when N services
// already run: O(1) for the delta strategy vs O(N) for the naive one.
#include <benchmark/benchmark.h>

#include "adapters/un_adapter.h"
#include "infra/universal_node.h"
#include "model/nffg_builder.h"

namespace {

using namespace unify;

/// Adds one more NF + its two steering rules to the config.
void add_service(model::Nffg& config, const std::string& node, int index) {
  const std::string nf_id = "nf" + std::to_string(index);
  (void)config.place_nf(node, model::make_nf(nf_id, "monitor",
                                             {0.05, 16, 0.1}, 2),
                        /*force=*/true);
  (void)config.add_flowrule(node, model::Flowrule{nf_id + "-in",
                                                  {node, 0},
                                                  {nf_id, 0},
                                                  "", nf_id, 1});
  (void)config.add_flowrule(node, model::Flowrule{nf_id + "-out",
                                                  {nf_id, 1},
                                                  {node, 1},
                                                  nf_id, "-", 1});
}

void run(benchmark::State& state, bool full_reinstall) {
  const int preexisting = static_cast<int>(state.range(0));
  std::uint64_t ops_for_last = 0;
  SimTime sim_for_last = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimClock clock;
    infra::UnConfig config;
    config.lsi_ports = 512;
    infra::UniversalNode un(clock, "un", model::Resources{64, 65536, 500},
                            config);
    adapters::UnAdapter adapter(un);
    adapter.map_sap(0, "in", {10000, 0.1});
    adapter.map_sap(1, "out", {10000, 0.1});
    auto view = adapter.fetch_view();
    if (!view.ok()) {
      state.SkipWithError("view failed");
      break;
    }
    model::Nffg desired = *view;
    for (int i = 0; i < preexisting; ++i) {
      add_service(desired, adapter.bisbis_id(), i);
    }
    if (!adapter.apply(desired).ok()) {
      state.SkipWithError("preload failed");
      break;
    }
    const std::uint64_t ops_before = adapter.native_operations();
    const SimTime sim_before = clock.now();
    add_service(desired, adapter.bisbis_id(), preexisting);
    state.ResumeTiming();

    if (full_reinstall && !adapter.apply(*view).ok()) {
      state.SkipWithError("teardown failed");
      break;
    }
    if (!adapter.apply(desired).ok()) {
      state.SkipWithError("apply failed");
      break;
    }

    state.PauseTiming();
    ops_for_last = adapter.native_operations() - ops_before;
    sim_for_last = clock.now() - sim_before;
    state.ResumeTiming();
  }
  state.counters["native_ops_for_new_service"] =
      static_cast<double>(ops_for_last);
  state.counters["sim_ms_for_new_service"] =
      static_cast<double>(sim_for_last) / 1000.0;
}

void BM_DeltaEditConfig(benchmark::State& state) { run(state, false); }
void BM_FullReinstall(benchmark::State& state) { run(state, true); }

BENCHMARK(BM_DeltaEditConfig)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullReinstall)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
