// Coverage for the Context path cache: hits, route/unroute invalidation,
// and a property sweep asserting cached distances always equal a fresh
// Dijkstra over the live residuals.
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "infra/topologies.h"
#include "mapping/context.h"
#include "model/nffg_builder.h"
#include "model/topology_index.h"

namespace unify::mapping {
namespace {

using model::Nffg;
using sg::ServiceGraph;

/// sap1 - bb1 - bb2 - bb3 - sap2 with tight (low-bandwidth) middle links so
/// reservations visibly change shortest paths.
Nffg line_substrate(double link_bw) {
  Nffg g{"line"};
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(g.add_bisbis(model::make_bisbis("bb" + std::to_string(i),
                                                {8, 8192, 100}, 4, 0.1))
                    .ok());
  }
  model::connect(g, "bb1", 1, "bb2", 1, {link_bw, 1.0});
  model::connect(g, "bb2", 2, "bb3", 1, {link_bw, 1.0});
  model::attach_sap(g, "sap1", "bb1", 0, {link_bw, 0.1});
  model::attach_sap(g, "sap2", "bb3", 0, {link_bw, 0.1});
  return g;
}

ServiceGraph chain(double bw, double delay = 1000) {
  return sg::make_chain("svc", "sap1", {"firewall"}, "sap2", bw, delay);
}

/// Reference distance computed from scratch over the context's live
/// residuals (base minus overlay reservations): same masking and weights
/// the Context's own scan uses, but through the type-erased engine with no
/// cache in the loop.
double fresh_distance(const Context& ctx, const std::string& from,
                      const std::string& to, double min_bw) {
  if (from == to) return 0;
  const model::TopologyIndex& index = ctx.index();
  const auto from_id = index.node_of(from);
  const auto to_id = index.node_of(to);
  if (from_id == graph::kInvalidId || to_id == graph::kInvalidId) {
    return graph::kInf;
  }
  const graph::EdgeScanFn scan = [&](graph::NodeId node,
                                     const graph::EdgeVisitFn& visit) {
    for (const graph::EdgeId e : index.graph().out_edges(node)) {
      if (ctx.residual_bandwidth(e) < min_bw) continue;
      const auto& edge = index.graph().edge(e);
      visit(e, edge.to, model::TopologyIndex::edge_weight(edge.data));
    }
  };
  const auto path = graph::shortest_path(index.graph().node_capacity(),
                                         from_id, to_id, scan);
  return path.has_value() ? path->cost : graph::kInf;
}

TEST(PathCache, RepeatedDistanceHitsCache) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg = chain(100);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);

  const double first = ctx.distance("sap1", "sap2", 100);
  EXPECT_EQ(ctx.path_cache_stats().misses, 1u);
  EXPECT_EQ(ctx.path_cache_stats().hits, 0u);
  const double second = ctx.distance("sap1", "sap2", 100);
  EXPECT_EQ(ctx.path_cache_stats().hits, 1u);
  EXPECT_EQ(first, second);
  // A different bandwidth class is a distinct entry.
  (void)ctx.distance("sap1", "sap2", 200);
  EXPECT_EQ(ctx.path_cache_stats().misses, 2u);
}

TEST(PathCache, RouteConsumesEntryCachedByDistance) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg = chain(100);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);
  ASSERT_TRUE(ctx.place("firewall0", "bb2").ok());

  // Mapper-style probing warms the cache with exactly the (src, dst, bw)
  // keys route() asks for.
  (void)ctx.distance("sap1", "bb2", 100);
  (void)ctx.distance("bb2", "sap2", 100);
  const auto misses = ctx.path_cache_stats().misses;
  ASSERT_TRUE(ctx.route_all().ok());
  EXPECT_EQ(ctx.path_cache_stats().misses, misses);  // all from cache
  EXPECT_GE(ctx.path_cache_stats().hits, 2u);
}

TEST(PathCache, RouteInvalidatesEntriesCrossingReservedLinks) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  // Chain bandwidth 600 on 1000 Mbit/s links: one routed chain leaves 400,
  // so a 600 Mbit/s probe flips from reachable to unreachable.
  const ServiceGraph sg = chain(600);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);
  ASSERT_TRUE(ctx.place("firewall0", "bb2").ok());

  EXPECT_LT(ctx.distance("sap1", "sap2", 600), graph::kInf);
  ASSERT_TRUE(ctx.route_all().ok());
  EXPECT_GT(ctx.path_cache_stats().invalidations, 0u);

  const double after = ctx.distance("sap1", "sap2", 600);
  EXPECT_EQ(after, graph::kInf);
  EXPECT_EQ(after, fresh_distance(ctx, "sap1", "sap2", 600));
}

TEST(PathCache, UnrouteInvalidatesEntriesAboveReleasedResidual) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg = chain(600);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);
  ASSERT_TRUE(ctx.place("firewall0", "bb2").ok());
  ASSERT_TRUE(ctx.route_all().ok());

  EXPECT_EQ(ctx.distance("sap1", "sap2", 600), graph::kInf);
  // This entry's floor (100) is below the routed links' residual (400):
  // the release cannot change its masked graph, so it must survive.
  (void)ctx.distance("sap1", "sap2", 100);
  const auto before = ctx.path_cache_stats().invalidations;
  const auto hits = ctx.path_cache_stats().hits;

  // Releasing unmasks the links only for floors above the pre-release
  // residual: the 600 entry goes stale and is evicted, the 100 entry
  // stays and keeps serving hits.
  for (const sg::SgLink& link : sg.links()) ctx.unroute(link.id);
  EXPECT_GT(ctx.path_cache_stats().invalidations, before);
  EXPECT_LT(ctx.distance("sap1", "sap2", 600), graph::kInf);
  EXPECT_EQ(ctx.distance("sap1", "sap2", 600),
            fresh_distance(ctx, "sap1", "sap2", 600));
  EXPECT_EQ(ctx.distance("sap1", "sap2", 100),
            fresh_distance(ctx, "sap1", "sap2", 100));
  EXPECT_GT(ctx.path_cache_stats().hits, hits);
}

TEST(PathCache, UnrouteSurvivesUnknownSgLink) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg = chain(100);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);
  // Unrouting something never routed (or not an SG link at all) is a no-op.
  ctx.unroute("no-such-link");
  SUCCEED();
}

TEST(PathCache, PublishesCounters) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg = chain(100);
  const Nffg substrate = line_substrate(1000);
  Context ctx(sg, substrate, cat);
  (void)ctx.distance("sap1", "sap2", 100);
  (void)ctx.distance("sap1", "sap2", 100);
  EXPECT_EQ(ctx.path_cache_stats().misses, 1u);
  EXPECT_EQ(ctx.path_cache_stats().hits, 1u);
}

/// Property: across random topologies and interleaved route/unroute churn,
/// a cached distance() always equals a from-scratch Dijkstra on the live
/// residual state.
TEST(PathCacheProperty, CachedDistanceEqualsFreshDijkstra) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int n = static_cast<int>(rng.next_int(5, 16));
    const model::Nffg substrate =
        infra::topo::random_connected(n, 3.0, 2, rng);
    const double bw = rng.next_double(100, 2000);
    const ServiceGraph sg =
        sg::make_chain("svc", "sap1", {"fw-lite", "monitor"}, "sap2", bw,
                       10000);
    Context ctx(sg, substrate, cat);

    // Collect the substrate node ids once.
    std::vector<std::string> nodes;
    for (const auto& [id, bb] : ctx.base().bisbis()) nodes.push_back(id);
    for (const auto& [id, sap] : ctx.base().saps()) nodes.push_back(id);

    const auto probe_all = [&] {
      for (const std::string& from : nodes) {
        for (const std::string& to : nodes) {
          const double floor = rng.next_double(0, 3000);
          ASSERT_EQ(ctx.distance(from, to, floor),
                    fresh_distance(ctx, from, to, floor))
              << "seed " << seed << " " << from << "->" << to << " bw "
              << floor;
          // Ask again (likely a hit) and cross-check once more.
          ASSERT_EQ(ctx.distance(from, to, floor),
                    fresh_distance(ctx, from, to, floor));
        }
      }
    };

    probe_all();
    // Place and route the chain (reserves bandwidth), probe, tear it down
    // (releases bandwidth), probe again.
    const auto hosts = ctx.candidates(*sg.find_nf("fw-lite0"));
    if (hosts.empty()) continue;
    ASSERT_TRUE(ctx.place("fw-lite0", hosts.front()).ok());
    const auto hosts2 = ctx.candidates(*sg.find_nf("monitor1"));
    if (hosts2.empty()) continue;
    ASSERT_TRUE(ctx.place("monitor1", hosts2.back()).ok());
    if (ctx.route_all().ok()) {
      probe_all();
      for (const sg::SgLink& link : sg.links()) ctx.unroute(link.id);
    }
    probe_all();
    EXPECT_GT(ctx.path_cache_stats().hits, 0u);
  }
}

}  // namespace
}  // namespace unify::mapping
