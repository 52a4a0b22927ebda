// Coverage for the Context path cache: hits, route/unroute invalidation,
// and property sweeps asserting that every cached answer — distance, delay
// and the routed edge sequence — equals a fresh Dijkstra over the live
// residuals, across route/unroute churn and branch-and-bound-style leaf
// cycles.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "graph/path_kernel.h"
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

/// Reference path computed from scratch over the context's live residuals
/// (base minus overlay reservations): same masking and weights the
/// Context's own scan uses, but through a type-erased scan with no cache
/// in the loop. nullopt when disconnected or either node is unknown.
std::optional<graph::Path> fresh_path(const Context& ctx,
                                      const std::string& from,
                                      const std::string& to, double min_bw) {
  const model::TopologyIndex& index = ctx.index();
  const auto from_id = index.node_of(from);
  const auto to_id = index.node_of(to);
  if (from_id == graph::kInvalidId || to_id == graph::kInvalidId) {
    return std::nullopt;
  }
  const graph::EdgeScanFn scan = [&](graph::NodeId node,
                                     const graph::EdgeVisitFn& visit) {
    for (const graph::EdgeId e : index.graph().out_edges(node)) {
      if (ctx.residual_bandwidth(e) < min_bw) continue;
      const auto& edge = index.graph().edge(e);
      visit(e, edge.to, model::TopologyIndex::edge_weight(edge.data));
    }
  };
  graph::PathWorkspace workspace;
  return graph::shortest_path(workspace, index.graph().node_capacity(),
                              from_id, to_id, scan);
}

double fresh_distance(const Context& ctx, const std::string& from,
                      const std::string& to, double min_bw) {
  if (from == to) return 0;
  const auto path = fresh_path(ctx, from, to, min_bw);
  return path.has_value() ? path->cost : graph::kInf;
}

/// distance() and delay_between() (both served from the cache) against a
/// fresh search.
void expect_fresh_probe(const Context& ctx, const std::string& from,
                        const std::string& to, double min_bw) {
  const auto path = from == to ? std::nullopt
                               : fresh_path(ctx, from, to, min_bw);
  const double want_delay =
      from == to ? 0
                 : (path.has_value() ? model::path_delay(ctx.index(), *path)
                                     : graph::kInf);
  ASSERT_EQ(ctx.distance(from, to, min_bw),
            fresh_distance(ctx, from, to, min_bw))
      << from << "->" << to << " bw " << min_bw;
  ASSERT_EQ(ctx.delay_between(from, to, min_bw), want_delay)
      << from << "->" << to << " bw " << min_bw;
}

/// Routes `link` and checks what route() returned — served from the cache
/// whenever the key is warm — against a fresh search made just before:
/// same reachability, same link sequence, same delay. Returns whether the
/// link was routed.
bool route_fresh(Context& ctx, const sg::SgLink& link) {
  const auto from = ctx.node_of(link.from.node);
  const auto to = ctx.node_of(link.to.node);
  EXPECT_TRUE(from.ok() && to.ok()) << link.id;
  if (!from.ok() || !to.ok()) return false;
  std::optional<graph::Path> want;
  if (*from != *to) want = fresh_path(ctx, *from, *to, link.bandwidth);
  const auto routed = ctx.route(link);
  if (*from == *to) {
    EXPECT_TRUE(routed.ok() && routed->links.empty()) << link.id;
    return routed.ok();
  }
  EXPECT_EQ(routed.ok(), want.has_value()) << link.id;
  if (!routed.ok() || !want.has_value()) return false;
  std::vector<std::string> want_links;
  for (const graph::EdgeId e : want->edges) {
    want_links.push_back(ctx.index().graph().edge(e).data.link_id);
  }
  EXPECT_EQ(routed->links, want_links) << link.id;
  EXPECT_EQ(routed->delay, model::path_delay(ctx.index(), *want)) << link.id;
  return true;
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
    // Links as wide as the probes' top floor, so the chain's reservations
    // mask links for some floors and the release unmasks them again.
    infra::topo::TopoParams params;
    params.link_bandwidth = 3000;
    const model::Nffg substrate =
        infra::topo::random_connected(n, 3.0, 2, rng, params);
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
          // A few discrete floors, so keys recur across the phases and
          // entries cached before a route or unroute are asked again.
          const double floor = 500.0 * static_cast<double>(rng.next_below(7));
          SCOPED_TRACE("seed " + std::to_string(seed));
          expect_fresh_probe(ctx, from, to, floor);
          // Ask again (likely a hit) and cross-check once more.
          expect_fresh_probe(ctx, from, to, floor);
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
    bool routed = true;
    for (const sg::SgLink& link : sg.links()) {
      if (!(routed = route_fresh(ctx, link))) break;
    }
    if (routed) probe_all();
    for (const sg::SgLink& link : sg.links()) ctx.unroute(link.id);
    probe_all();
    EXPECT_GT(ctx.path_cache_stats().hits, 0u);
  }
}

/// Property: branch-and-bound's leaf cycle — re-place every NF, route_all
/// in SG-link order, unroute every link — repeated on one Context, so its
/// cache carries entries across many reserve/release rounds. Links are
/// tight (random residuals, bandwidth floors of the same order) and the
/// delays tie often, so masking and tie-breaking both matter. Every leaf's
/// route_all must produce exactly the mapping a twin Context with no cache
/// history routes, link by link, against fresh searches; distance and
/// delay probes between the phases must match fresh searches too.
TEST(PathCacheProperty, LeafCyclesRouteTheFreshPaths) {
  const catalog::NfCatalog cat = catalog::default_catalog();
  PathCacheStats total;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    infra::topo::TopoParams params;
    params.link_bandwidth = rng.next_double(1000, 3000);
    model::Nffg substrate = infra::topo::random_connected(
        static_cast<int>(rng.next_int(5, 14)), 3.0, 2, rng, params);
    for (auto& [id, link] : substrate.links()) {
      link.reserved = rng.next_double(0, 0.6) * link.attrs.bandwidth;
      if (rng.next_bool(0.5)) link.attrs.delay *= 2;
    }
    const ServiceGraph sg = sg::make_chain(
        "svc", "sap1", {"fw-lite", "monitor", "nat"}, "sap2",
        rng.next_double(200, 900), 10000);
    Context ctx(sg, substrate, cat);

    std::vector<std::string> nodes;
    for (const auto& [id, bb] : ctx.base().bisbis()) nodes.push_back(id);
    for (const auto& [id, sap] : ctx.base().saps()) nodes.push_back(id);
    const auto probe_some = [&] {
      for (int i = 0; i < 8; ++i) {
        expect_fresh_probe(ctx, nodes[rng.next_below(nodes.size())],
                           nodes[rng.next_below(nodes.size())],
                           rng.next_double(0, params.link_bandwidth));
      }
    };

    for (int leaf = 0; leaf < 25; ++leaf) {
      SCOPED_TRACE("leaf " + std::to_string(leaf));
      for (const auto& [id, nf] : sg.nfs()) ctx.unplace(id);
      bool placed = true;
      for (const auto& [id, nf] : sg.nfs()) {
        const auto hosts = ctx.candidates(nf);
        if (hosts.empty()) {
          placed = false;
          break;
        }
        ASSERT_TRUE(
            ctx.place(id, hosts[rng.next_below(hosts.size())]).ok());
      }
      if (!placed) continue;
      // Chain-DP-style probing warms the keys route() is about to ask for.
      for (const sg::SgLink& link : sg.links()) {
        if (rng.next_bool(0.5)) {
          expect_fresh_probe(ctx, *ctx.node_of(link.from.node),
                             *ctx.node_of(link.to.node), link.bandwidth);
        }
      }
      probe_some();

      const bool routed = ctx.route_all().ok();
      Context twin(sg, substrate, cat);
      for (const auto& [nf, host] : ctx.placements()) {
        ASSERT_TRUE(twin.place(nf, host).ok());
      }
      bool twin_routed = true;
      for (const sg::SgLink& link : sg.links()) {
        if (!(twin_routed = route_fresh(twin, link))) break;
      }
      ASSERT_EQ(routed, twin_routed);
      ASSERT_EQ(ctx.finish("leaf"), twin.finish("leaf"));
      probe_some();

      for (const sg::SgLink& link : sg.links()) ctx.unroute(link.id);
      probe_some();
    }
    total.hits += ctx.path_cache_stats().hits;
    total.invalidations += ctx.path_cache_stats().invalidations;
  }
  // The sweep must actually exercise the cache: warm hits and evictions.
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.invalidations, 0u);
}

}  // namespace
}  // namespace unify::mapping
