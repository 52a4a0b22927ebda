// Property sweeps on the NFFG model: random configuration pairs converge
// under diff/apply, and random NFFGs survive the JSON codec.
#include <gtest/gtest.h>

#include "infra/topologies.h"
#include "model/nffg_builder.h"
#include "model/nffg_diff.h"
#include "model/nffg_json.h"
#include "util/rng.h"

namespace unify::model {
namespace {

/// Random configuration over a fixed 6-node substrate: a handful of NFs on
/// random nodes with intra-node flowrules between their ports.
Nffg random_config(Rng& rng) {
  infra::topo::TopoParams params;
  Nffg g = infra::topo::ring(6, 2, params);
  const int nf_count = static_cast<int>(rng.next_int(0, 6));
  std::vector<std::pair<std::string, std::string>> placed;  // (host, nf)
  for (int i = 0; i < nf_count; ++i) {
    const std::string host = "bb" + std::to_string(rng.next_int(0, 5));
    const std::string nf_id = "nf" + std::to_string(i);
    if (g.place_nf(host, make_nf(nf_id, "firewall",
                                 {1, static_cast<double>(rng.next_int(100, 500)), 1}, 2))
            .ok()) {
      placed.emplace_back(host, nf_id);
    }
  }
  for (std::size_t i = 0; i + 1 < placed.size(); ++i) {
    if (placed[i].first != placed[i + 1].first) continue;
    (void)g.add_flowrule(
        placed[i].first,
        Flowrule{"fr" + std::to_string(i),
                 {placed[i].second, 1},
                 {placed[i + 1].second, 0},
                 rng.next_bool(0.3) ? "tagA" : "",
                 rng.next_bool(0.3) ? "tagB" : "",
                 static_cast<double>(rng.next_int(0, 50))});
  }
  return g;
}

class NffgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NffgProperty, DiffApplyConverges) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Nffg base = random_config(rng);
    const Nffg target = random_config(rng);
    const auto delta = diff(base, target);
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    ASSERT_TRUE(apply(base, *delta).ok());
    // After applying, the re-diff must be empty (configs converged).
    const auto check = diff(base, target);
    ASSERT_TRUE(check.ok());
    EXPECT_TRUE(check->empty()) << "trial " << trial;
  }
}

TEST_P(NffgProperty, EmptyDeltaIsFixpoint) {
  Rng rng(GetParam() ^ 0xF00);
  const Nffg config = random_config(rng);
  const auto delta = diff(config, config);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST_P(NffgProperty, JsonRoundTripExact) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    const Nffg original = random_config(rng);
    const auto decoded = nffg_from_json_string(to_json_string(original));
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(*decoded, original);
    EXPECT_EQ(to_json_string(*decoded), to_json_string(original));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NffgProperty,
                         ::testing::Values(101u, 202u, 303u, 404u));

TEST(NffgHints, JsonRoundTripsAndValidates) {
  Nffg g{"h"};
  ASSERT_TRUE(g.add_bisbis(make_bisbis("bb", {1, 1, 1}, 2)).ok());
  attach_sap(g, "a", "bb", 0);
  attach_sap(g, "b", "bb", 1);
  ASSERT_TRUE(g.add_hint(ServiceHint{"h1", "a", "b", 25, 100}).ok());
  ASSERT_TRUE(g.add_hint(ServiceHint{
                   "h2", "b", "a",
                   std::numeric_limits<double>::infinity(), 0})
                  .ok());
  EXPECT_EQ(g.add_hint(ServiceHint{"h1", "a", "b", 1, 1}).error().code,
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(g.add_hint(ServiceHint{"h3", "zz", "b", 1, 1}).error().code,
            ErrorCode::kNotFound);

  const auto decoded = nffg_from_json_string(to_json_string(g));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, g);
  ASSERT_EQ(decoded->hints().size(), 2u);
  EXPECT_EQ(decoded->hints()[0].max_delay, 25);
  EXPECT_EQ(decoded->hints()[1].max_delay,
            std::numeric_limits<double>::infinity());

  Nffg g2 = g;
  ASSERT_TRUE(g2.remove_hint("h1").ok());
  EXPECT_EQ(g2.hints().size(), 1u);
  EXPECT_EQ(g2.remove_hint("h1").error().code, ErrorCode::kNotFound);
  EXPECT_FALSE(g == g2);
}

}  // namespace
}  // namespace unify::model
