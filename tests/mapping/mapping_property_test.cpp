// Property-based sweeps over randomized substrates and service chains:
// whatever a mapper returns must satisfy the independent verifier, install
// cleanly, and uninstall back to the pristine substrate.
#include <gtest/gtest.h>

#include "catalog/decomposition.h"
#include "infra/topologies.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mapper.h"

namespace unify::mapping {
namespace {

const std::vector<std::string> kAtomicTypes{
    "fw-lite", "fw-stateful", "nat", "monitor", "vpn", "compressor"};

sg::ServiceGraph random_chain(Rng& rng, int max_len) {
  const int len = static_cast<int>(rng.next_int(1, max_len));
  std::vector<std::string> types;
  for (int i = 0; i < len; ++i) {
    types.push_back(kAtomicTypes[rng.next_below(kAtomicTypes.size())]);
  }
  const double bw = rng.next_double(10, 200);
  const double delay = rng.next_double(10, 200);
  return sg::make_chain("svc", "sap1", types, "sap2", bw, delay);
}

model::Nffg random_substrate(Rng& rng) {
  const int n = static_cast<int>(rng.next_int(4, 20));
  const double degree = rng.next_double(2.0, 4.0);
  return infra::topo::random_connected(n, degree, 2, rng);
}

class MapperProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  std::unique_ptr<Mapper> make() const {
    switch (std::get<0>(GetParam())) {
      case 0: return std::make_unique<GreedyMapper>();
      case 1: return std::make_unique<ChainDpMapper>();
      case 2: return std::make_unique<BnbMapper>();
      case 3: return std::make_unique<FirstFitMapper>();
      default: return std::make_unique<RandomMapper>();
    }
  }
};

TEST_P(MapperProperty, SuccessfulMappingsVerifyInstallAndUninstall) {
  Rng rng(std::get<1>(GetParam()));
  const catalog::NfCatalog cat = catalog::default_catalog();
  const auto mapper = make();
  int successes = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const model::Nffg substrate = random_substrate(rng);
    const sg::ServiceGraph sg = random_chain(rng, 5);
    const auto mapping = mapper->map(sg, substrate, cat);
    if (!mapping.ok()) continue;  // infeasible is a legal outcome
    ++successes;

    // The independent verifier must agree.
    const auto verified = verify_mapping(sg, substrate, cat, *mapping);
    EXPECT_TRUE(verified.ok())
        << mapper->name() << " trial " << trial << ": "
        << verified.error().to_string();

    // Install produces a structurally valid configuration...
    model::Nffg configured = substrate;
    ASSERT_TRUE(install_mapping(configured, sg, cat, *mapping).ok());
    EXPECT_TRUE(configured.validate().empty());
    EXPECT_EQ(configured.stats().nf_count, sg.nfs().size());

    // ...and uninstall restores the pristine substrate exactly.
    ASSERT_TRUE(uninstall_mapping(configured, sg, *mapping).ok());
    EXPECT_EQ(configured, substrate);
  }
  // Generous substrates: most trials should succeed for every algorithm.
  EXPECT_GT(successes, 0);
}

TEST_P(MapperProperty, ReportedDelaysMatchRecomputation) {
  Rng rng(std::get<1>(GetParam()) ^ 0xABCDEF);
  const catalog::NfCatalog cat = catalog::default_catalog();
  const auto mapper = make();
  for (int trial = 0; trial < 6; ++trial) {
    const model::Nffg substrate = random_substrate(rng);
    const sg::ServiceGraph sg = random_chain(rng, 4);
    const auto mapping = mapper->map(sg, substrate, cat);
    if (!mapping.ok()) continue;
    for (const sg::E2eRequirement& req : sg.requirements()) {
      const auto chain = sg.chain_for(req);
      ASSERT_TRUE(chain.ok());
      double recomputed = 0;
      for (const sg::SgLink* link : *chain) {
        recomputed += mapping->link_paths.at(link->id).delay;
      }
      EXPECT_NEAR(mapping->requirement_delay.at(req.id), recomputed, 1e-9);
      EXPECT_LE(recomputed, req.max_delay + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapperProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(11u, 23u, 47u)));

TEST(DecompositionProperty, ExpansionPreservesChainConnectivity) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const std::vector<std::string> composites{"firewall", "secure-gw",
                                            "cdn-edge"};
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    std::vector<std::string> types;
    const int len = static_cast<int>(rng.next_int(1, 4));
    for (int i = 0; i < len; ++i) {
      types.push_back(rng.next_bool(0.5)
                          ? composites[rng.next_below(composites.size())]
                          : kAtomicTypes[rng.next_below(kAtomicTypes.size())]);
    }
    sg::ServiceGraph sg =
        sg::make_chain("svc", "a", types, "b", 50, 1000);
    const auto before = sg.nf_sequence_for(sg.requirements()[0]);
    ASSERT_TRUE(before.ok());
    auto applied = expand_all(sg, cat, catalog::random_chooser(rng));
    ASSERT_TRUE(applied.ok()) << applied.error().to_string();
    EXPECT_TRUE(sg.validate().empty()) << "seed " << seed;
    const auto after = sg.nf_sequence_for(sg.requirements()[0]);
    ASSERT_TRUE(after.ok()) << "seed " << seed;
    // Expansion never shortens a chain.
    EXPECT_GE(after->size(), before->size());
    // Every remaining type is atomic.
    for (const auto& [id, nf] : sg.nfs()) {
      EXPECT_TRUE(cat.decompositions_of(nf.type).empty());
    }
  }
}

TEST(MappingProperty, SequentialFillNeverOvercommits) {
  // Keep installing random chains; at every step the substrate must stay
  // structurally valid (no compute or bandwidth overcommit).
  Rng rng(2026);
  const catalog::NfCatalog cat = catalog::default_catalog();
  model::Nffg substrate = infra::topo::leaf_spine(2, 4, 2);
  GreedyMapper mapper;
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    sg::ServiceGraph sg = random_chain(rng, 3);
    // Unique ids per round (flat NF namespace).
    sg::ServiceGraph unique{"svc" + std::to_string(i)};
    for (const auto& [sap, name] : sg.saps()) {
      ASSERT_TRUE(unique.add_sap(sap, name).ok());
    }
    for (const auto& [nf_id, nf] : sg.nfs()) {
      sg::SgNf copy = nf;
      copy.id = "r" + std::to_string(i) + "." + nf_id;
      ASSERT_TRUE(unique.add_nf(copy).ok());
    }
    for (const sg::SgLink& link : sg.links()) {
      sg::SgLink copy = link;
      copy.id = "r" + std::to_string(i) + "." + link.id;
      if (!sg.has_sap(copy.from.node)) {
        copy.from.node = "r" + std::to_string(i) + "." + copy.from.node;
      }
      if (!sg.has_sap(copy.to.node)) {
        copy.to.node = "r" + std::to_string(i) + "." + copy.to.node;
      }
      ASSERT_TRUE(unique.add_link(copy).ok());
    }
    const auto mapping = mapper.map(unique, substrate, cat);
    if (!mapping.ok()) continue;
    ASSERT_TRUE(install_mapping(substrate, unique, cat, *mapping).ok());
    ++accepted;
    const auto problems = substrate.validate();
    ASSERT_TRUE(problems.empty())
        << "after " << accepted << " installs: " << problems.front();
  }
  EXPECT_GT(accepted, 4);
}

}  // namespace
}  // namespace unify::mapping
