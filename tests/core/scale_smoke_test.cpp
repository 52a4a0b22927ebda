// Tier-1 scale smoke: a 10^4-node multi-domain substrate through the
// sharded-state machinery — snapshot acquisition, one embedding against
// the shared index, a full orchestrator deploy and a clean resync. The
// last 10^5/10^6 timings are recorded in DESIGN.md §11 (scale
// validation); this test pins that the machinery *functions* at four
// orders of magnitude without slowing the regular test run down.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/resource_orchestrator.h"
#include "core/sharded_state.h"
#include "infra/topologies.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_merge.h"
#include "service/service_layer.h"

namespace unify::core {
namespace {

constexpr int kDomains = 8;
constexpr int kNodesPerDomain = 1250;  // 10^4 total

/// 10^4-node substrate with placement restricted to one node per domain
/// ("d<k>-bb1"), so candidate scans stay O(domains) while routing still
/// crosses the full node count.
model::Nffg substrate() {
  Rng rng(7);
  model::Nffg g = infra::topo::multi_domain(kDomains, kNodesPerDomain, 3.0,
                                            2 * kDomains, rng);
  for (auto& [id, bb] : g.bisbis()) {
    if (id.substr(id.rfind("-bb") + 3) != "1") bb.nf_types = {"switch-only"};
  }
  return g;
}

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

TEST(ScaleSmoke, SnapshotAndEmbeddingAtTenThousandNodes) {
  ShardedViewState view;
  view.reset(substrate());
  ASSERT_EQ(view.read().bisbis().size(),
            static_cast<std::size_t>(kDomains * kNodesPerDomain));

  // First snapshot builds the shared index; the second is two pointer
  // copies of the same frozen objects.
  const model::ViewSnapshot snap = view.snapshot();
  const model::ViewSnapshot again = view.snapshot();
  EXPECT_EQ(view.telemetry().index_builds, 1u);
  EXPECT_EQ(snap.view.get(), again.view.get());
  EXPECT_EQ(snap.index.get(), again.index.get());

  // One embedding against the snapshot: sap1 and sap9 both live in d0
  // (SAPs land round-robin across domains).
  const sg::ServiceGraph request =
      sg::make_chain("svc", "sap1", {"fw-lite"}, "sap9", 5, 1e9);
  const auto mapping = mapping::GreedyMapper().map(
      request, snap, catalog::default_catalog());
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_EQ(mapping->nf_host.at("fw-lite0"), "d0-bb1");
}

TEST(ScaleSmoke, OrchestratorDeployAndCleanResync) {
  const model::Nffg full = substrate();
  auto ro = std::make_unique<ResourceOrchestrator>(
      "scale-ro", std::make_shared<mapping::GreedyMapper>(),
      catalog::default_catalog());
  for (int d = 0; d < kDomains; ++d) {
    const std::string domain = "d" + std::to_string(d);
    ASSERT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                   domain,
                                   model::slice_for_domain(full, domain)))
                    .ok());
  }
  ASSERT_TRUE(ro->initialize().ok());

  const auto deployed = ro->deploy(service::prefix_elements(
      sg::make_chain("svc", "sap1", {"fw-lite"}, "sap9", 5, 1e9), "svc"));
  ASSERT_TRUE(deployed.ok()) << deployed.error().to_string();

  // Steady state: every domain rides the stamp fast path — no domain is
  // re-sliced, let alone re-serialized or re-pushed.
  ASSERT_TRUE(ro->resync_domains().ok());
  const std::uint64_t skipped_before =
      ro->metrics().counter("ro.push.skipped_clean");
  ASSERT_TRUE(ro->resync_domains().ok());
  EXPECT_EQ(ro->metrics().counter("ro.push.skipped_clean"),
            skipped_before + kDomains);
}

}  // namespace
}  // namespace unify::core
