// Embedding playground: compare the pluggable mapping algorithms on the
// same substrate and watch acceptance degrade as load grows.
//
// ESCAPEv2's point (iv): the framework is extensible "with additional plug
// and play components/algorithms, like ... network embedding algorithms".
// This example exercises exactly that seam: the same RO-less mapping call
// with five interchangeable algorithms.
//
// Run: ./embedding_playground [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "infra/topologies.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"

using namespace unify;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  Rng rng(seed);

  // A 12-node random substrate with two SAPs.
  const model::Nffg substrate = infra::topo::random_connected(12, 3.0, 2, rng);
  const catalog::NfCatalog cat = catalog::default_catalog();
  std::printf("substrate: %zu BiS-BiS, %zu links (seed %llu)\n\n",
              substrate.bisbis().size(), substrate.links().size(),
              static_cast<unsigned long long>(seed));

  std::vector<std::unique_ptr<mapping::Mapper>> mappers;
  mappers.push_back(std::make_unique<mapping::GreedyMapper>());
  mappers.push_back(std::make_unique<mapping::ChainDpMapper>());
  mappers.push_back(std::make_unique<mapping::FirstFitMapper>());
  mappers.push_back(std::make_unique<mapping::RandomMapper>());
  mappers.push_back(std::make_unique<mapping::BnbMapper>());

  std::printf("%-14s | %-9s | %-10s | %-10s | %-8s\n", "mapper", "accepted",
              "delay(ms)", "bw*hops", "nodes");
  std::printf("%s\n", std::string(62, '-').c_str());

  // One chain of growing length until each mapper gives up.
  for (int length = 2; length <= 10; length += 2) {
    std::vector<std::string> nf_types;
    for (int i = 0; i < length; ++i) {
      nf_types.push_back(i % 2 == 0 ? "fw-lite" : "monitor");
    }
    const sg::ServiceGraph sg =
        sg::make_chain("chain" + std::to_string(length), "sap1", nf_types,
                       "sap2", 200, 25);
    std::printf("-- chain of %d NFs --\n", length);
    for (const auto& mapper : mappers) {
      const auto mapping = mapper->map(sg, substrate, cat);
      if (mapping.ok()) {
        double delay = 0;
        for (const auto& [req, d] : mapping->requirement_delay) delay += d;
        std::printf("%-14s | %-9s | %10.2f | %10.0f | %8zu\n",
                    mapper->name().c_str(), "yes", delay,
                    mapping->stats.bandwidth_hops,
                    mapping->stats.nodes_used);
      } else {
        std::printf("%-14s | %-9s | %10s | %10s | %8s\n",
                    mapper->name().c_str(), "no", "-", "-", "-");
      }
    }
  }
  std::printf("\nembedding_playground OK\n");
  return 0;
}
