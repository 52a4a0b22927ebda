// Mapper conformance: every registered embedding algorithm, heuristic or
// exact, honours the same contract over hundreds of seeded (topology,
// chain) instances —
//   - anything returned passes the independent verifier (capacity,
//     bandwidth, path continuity, max_delay);
//   - rejects are honest: a mapper either embeds the whole request or
//     fails, it never hands back a silent partial placement;
//   - stochastic mappers replay byte-identically per seed (the contract
//     of DESIGN.md §15);
//   - the branch-and-bound baseline lower-bounds every other mapper's
//     canonically re-scored embedding on the instances it solves to proven
//     optimality.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "infra/topologies.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/context.h"
#include "mapping/greedy_mapper.h"
#include "mapping/mapper.h"
#include "util/rng.h"

namespace unify::mapping {
namespace {

const std::vector<std::string> kAtomicTypes{
    "fw-lite", "fw-stateful", "nat", "monitor", "vpn", "compressor"};

struct Instance {
  model::Nffg substrate;
  sg::ServiceGraph sg;
};

Instance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.next_int(4, 14));
  const double degree = rng.next_double(2.0, 4.0);
  Instance inst{infra::topo::random_connected(n, degree, 2, rng),
                sg::ServiceGraph{"unset"}};
  const int len = static_cast<int>(rng.next_int(1, 4));
  std::vector<std::string> types;
  for (int i = 0; i < len; ++i) {
    types.push_back(kAtomicTypes[rng.next_below(kAtomicTypes.size())]);
  }
  const double bw = rng.next_double(10, 200);
  const double delay = rng.next_double(10, 200);
  inst.sg = sg::make_chain("svc", "sap1", types, "sap2", bw, delay);
  return inst;
}

/// Conformance sweeps every mapper over this many seeded instances.
constexpr std::uint64_t kInstances = 500;
/// Determinism (double-mapping) and BnB bounding use a cheaper slice.
constexpr std::uint64_t kReplayInstances = 120;
constexpr std::uint64_t kBoundInstances = 150;

struct MapperCase {
  const char* label;
  bool stochastic;  ///< output depends on the seed given to make()
  std::unique_ptr<Mapper> (*make)(std::uint64_t seed);
};

const MapperCase kMappers[] = {
    {"greedy", false,
     [](std::uint64_t) -> std::unique_ptr<Mapper> {
       return std::make_unique<GreedyMapper>();
     }},
    {"chain_dp", false,
     [](std::uint64_t) -> std::unique_ptr<Mapper> {
       return std::make_unique<ChainDpMapper>();
     }},
    {"bnb", false,
     [](std::uint64_t) -> std::unique_ptr<Mapper> {
       return std::make_unique<BnbMapper>();
     }},
    {"first_fit", false,
     [](std::uint64_t) -> std::unique_ptr<Mapper> {
       return std::make_unique<FirstFitMapper>();
     }},
    {"random", true,
     [](std::uint64_t seed) -> std::unique_ptr<Mapper> {
       return std::make_unique<RandomMapper>(seed);
     }},
};

class MapperConformance : public ::testing::TestWithParam<int> {
 protected:
  const MapperCase& field() const { return kMappers[GetParam()]; }
};

TEST_P(MapperConformance, RespectsConstraintsOverSeededInstances) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  int successes = 0;
  for (std::uint64_t seed = 0; seed < kInstances; ++seed) {
    const Instance inst = make_instance(seed);
    const auto mapper = field().make(seed + 1);
    const auto mapping = mapper->map(inst.sg, inst.substrate, cat);
    if (!mapping.ok()) continue;  // an honest reject is a legal outcome
    ++successes;
    // Whole embedding or nothing: every NF placed, every SG link routed.
    EXPECT_EQ(mapping->stats.nfs_placed, inst.sg.nfs().size())
        << field().label << " seed " << seed;
    EXPECT_EQ(mapping->nf_host.size(), inst.sg.nfs().size())
        << field().label << " seed " << seed;
    EXPECT_EQ(mapping->link_paths.size(), inst.sg.links().size())
        << field().label << " seed " << seed;
    // The independent verifier re-checks capacity, bandwidth, path
    // continuity and every requirement's max_delay.
    const auto verified = verify_mapping(inst.sg, inst.substrate, cat,
                                         *mapping);
    EXPECT_TRUE(verified.ok()) << field().label << " seed " << seed << ": "
                               << verified.error().to_string();
  }
  // The generator leans generous: every algorithm must embed a healthy
  // share of the 500 instances, or it is rejecting dishonestly.
  EXPECT_GT(successes, static_cast<int>(kInstances) / 4) << field().label;
}

TEST_P(MapperConformance, SameSeedReplaysByteIdentical) {
  if (!field().stochastic) {
    GTEST_SKIP() << field().label << " takes no seed";
  }
  const catalog::NfCatalog cat = catalog::default_catalog();
  int compared = 0;
  for (std::uint64_t seed = 0; seed < kReplayInstances; ++seed) {
    const Instance inst = make_instance(seed);
    // Two independently constructed mappers — any hidden shared state
    // (statics, clock reads) would break the replay.
    const auto first = field().make(seed + 1)->map(inst.sg, inst.substrate,
                                                   cat);
    const auto second = field().make(seed + 1)->map(inst.sg, inst.substrate,
                                                    cat);
    ASSERT_EQ(first.ok(), second.ok()) << field().label << " seed " << seed;
    if (!first.ok()) continue;
    ++compared;
    EXPECT_EQ(*first, *second) << field().label << " seed " << seed;
  }
  EXPECT_GT(compared, 0) << field().label;
}

INSTANTIATE_TEST_SUITE_P(
    Field, MapperConformance,
    ::testing::Range(0, static_cast<int>(std::size(kMappers))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kMappers[info.param].label);
    });

/// Re-scores another mapper's *placement* under the canonical evaluation
/// BnB proves optimality against (fresh Context, route_all in SG-link
/// order): routing order differs between algorithms, so comparing raw
/// scores would compare evaluation procedures, not placements. nullopt
/// when the placement does not survive canonical routing.
std::optional<EmbeddingScore> canonical_score(const Instance& inst,
                                              const catalog::NfCatalog& cat,
                                              const Mapping& mapping) {
  Context ctx(inst.sg, inst.substrate, cat);
  for (const auto& [nf, host] : mapping.nf_host) {
    if (!ctx.place(nf, host).ok()) return std::nullopt;
  }
  if (!ctx.route_all().ok()) return std::nullopt;
  if (!ctx.check_requirements().ok()) return std::nullopt;
  return score_mapping(ctx.finish("canonical"), inst.substrate);
}

TEST(BnbBaseline, LowerBoundsEveryMapperOnExactlySolvedInstances) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const BnbMapper bnb;
  int proven = 0;
  int dominated = 0;
  for (std::uint64_t seed = 0; seed < kBoundInstances; ++seed) {
    const Instance inst = make_instance(seed);
    if (inst.sg.nfs().size() > BnbOptions{}.max_nfs) continue;
    const auto exact = bnb.map_exact(inst.sg, inst.substrate, cat);
    if (!exact.ok() || !exact->optimal) continue;
    ++proven;
    const double best = score_mapping(exact->mapping, inst.substrate).total();
    // The root relaxation never exceeds the proven optimum.
    EXPECT_LE(exact->lower_bound, best + 1e-6) << "seed " << seed;
    for (const MapperCase& rival : kMappers) {
      const auto mapping =
          rival.make(seed + 1)->map(inst.sg, inst.substrate, cat);
      if (!mapping.ok()) continue;
      const auto rescored = canonical_score(inst, cat, *mapping);
      if (!rescored.has_value()) continue;  // placement needs its own routing
      ++dominated;
      EXPECT_LE(best, rescored->total() + 1e-6)
          << rival.label << " beat the proven optimum on seed " << seed;
    }
  }
  // The small-instance generator must give the exact baseline real work.
  EXPECT_GT(proven, 20);
  EXPECT_GT(dominated, 100);
}

TEST(BnbBaseline, RefusesOversizedInstances) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  BnbOptions options;
  options.max_nfs = 2;
  const BnbMapper bnb(options);
  Rng rng(7);
  const model::Nffg substrate = infra::topo::random_connected(10, 3, 2, rng);
  const sg::ServiceGraph sg = sg::make_chain(
      "svc", "sap1", {"nat", "monitor", "vpn"}, "sap2", 20, 500);
  const auto result = bnb.map(sg, substrate, cat);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kResourceExhausted);
}

TEST(BnbBaseline, ReportsInfeasibilityFromTheRootRelaxation) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const model::Nffg substrate = infra::topo::line(3);
  // 1 ms budget across a multi-hop line topology: provably impossible.
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 5, 0.0001);
  const BnbMapper bnb;
  const auto result = bnb.map_exact(sg, substrate, cat);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInfeasible);
}

}  // namespace
}  // namespace unify::mapping
