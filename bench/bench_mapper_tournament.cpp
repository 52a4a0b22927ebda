// E8 — mapper tournament: embedding quality × wall time for each lane of
// the mapper field over seeded multi-domain substrates. Run with
// --benchmark_format=json for the machine-readable table; the counters
// carry the quality axis (feasible/cost/delay/total) next to
// google-benchmark's time axis.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "infra/topologies.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "util/rng.h"

namespace {

using namespace unify;

/// The mapper field, one Args index per lane.
std::unique_ptr<mapping::Mapper> make_contestant(int which) {
  switch (which) {
    case 0: return std::make_unique<mapping::GreedyMapper>();
    case 1: return std::make_unique<mapping::ChainDpMapper>();
    default: return std::make_unique<mapping::BnbMapper>();
  }
}
constexpr int kContestants = 3;

model::Nffg make_substrate(int which) {
  Rng rng(0x70D0 + static_cast<std::uint64_t>(which));
  switch (which) {
    case 0: return infra::topo::multi_domain(2, 5, 3.0, 2, rng);
    default: return infra::topo::multi_domain(4, 6, 3.0, 2, rng);
  }
}

const char* substrate_name(int which) {
  return which == 0 ? "2x5-domains" : "4x6-domains";
}

sg::ServiceGraph make_request(int length, std::uint64_t seed) {
  static const std::vector<std::string> kTypes = {"nat", "monitor", "vpn",
                                                  "fw-lite"};
  Rng rng(seed);
  std::vector<std::string> nf_types;
  for (int i = 0; i < length; ++i) {
    nf_types.push_back(kTypes[rng.next_below(kTypes.size())]);
  }
  return sg::make_chain("svc", "sap1", nf_types, "sap2",
                        10 + static_cast<double>(rng.next_below(40)), 500);
}

/// Args: {contestant, substrate, chain length}. Quality counters come from
/// the last successful lap (the instance is fixed, so every lap agrees).
void BM_Tournament(benchmark::State& state) {
  const auto contestant = make_contestant(static_cast<int>(state.range(0)));
  const model::Nffg substrate =
      make_substrate(static_cast<int>(state.range(1)));
  const int length = static_cast<int>(state.range(2));
  const catalog::NfCatalog cat = catalog::default_catalog();
  const sg::ServiceGraph sg =
      make_request(length, 0x5eed + static_cast<std::uint64_t>(length));

  std::size_t failures = 0;
  mapping::EmbeddingScore score;
  bool feasible = false;
  for (auto _ : state) {
    auto mapping = contestant->map(sg, substrate, cat);
    if (!mapping.ok()) {
      ++failures;
    } else {
      feasible = true;
      score = mapping::score_mapping(*mapping, substrate);
    }
    benchmark::DoNotOptimize(mapping);
  }
  state.SetLabel(std::string(substrate_name(static_cast<int>(state.range(1)))) +
                 "/" + contestant->name());
  state.counters["feasible"] = feasible ? 1 : 0;
  state.counters["failed"] = static_cast<double>(failures);
  state.counters["cost"] = score.cost;
  state.counters["delay_ms"] = score.delay;
  state.counters["total"] = score.total();
}

void tournament_args(benchmark::internal::Benchmark* bench) {
  for (int contestant = 0; contestant < kContestants; ++contestant) {
    for (int substrate = 0; substrate < 2; ++substrate) {
      for (const int length : {2, 4}) {
        bench->Args({contestant, substrate, length});
      }
    }
  }
}

BENCHMARK(BM_Tournament)
    ->Apply(tournament_args)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
