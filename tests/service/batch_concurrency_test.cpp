// submit_batch under load: wave churn on the full Fig. 1 stack, poisoned
// batch-mates, and concurrent batch clients hammering the one shared
// process pool. Lives in the concurrency_tests binary so it runs under
// `ctest -L concurrency` and a -DENABLE_TSAN=ON build.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/resource_orchestrator.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "service/fig1.h"
#include "service/service_layer.h"
#include "util/orchestration_pool.h"
#include "util/rng.h"

namespace unify::service {
namespace {

const std::vector<std::string> kNfPool{"nat", "monitor", "fw-lite",
                                       "firewall", "compressor"};
const std::vector<std::pair<std::string, std::string>> kRoutes{
    {"sap1", "sap2"}, {"sap2", "sap3"}, {"sap3", "sap1"}};

sg::ServiceGraph random_service(Rng& rng, const std::string& id,
                                std::size_t route, double bandwidth) {
  const int len = static_cast<int>(rng.next_int(1, 2));
  std::vector<std::string> types;
  for (int i = 0; i < len; ++i) {
    types.push_back(kNfPool[rng.next_below(kNfPool.size())]);
  }
  return sg::make_chain(id, kRoutes[route].first, types,
                        kRoutes[route].second, bandwidth, 60);
}

class BatchChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchChurnTest, WavesOfBatchesKeepInvariantsAndShareOnePool) {
  // Force the shared pool into existence before measuring: the assertion
  // is that batches never construct ANOTHER pool, however many run.
  (void)util::OrchestrationPool::process_pool();
  const std::uint64_t pools_before = util::OrchestrationPool::constructed();

  auto stack = make_fig1_stack();
  ASSERT_TRUE(stack.ok());
  Fig1Stack& s = **stack;
  Rng rng(GetParam());

  std::size_t total_requests = 0;
  std::size_t total_committed = 0;
  std::size_t total_rolled_back = 0;
  std::size_t poisoned_rounds = 0;

  for (int round = 0; round < 8; ++round) {
    // One wave per round: a service on every route; every third round the
    // last route instead carries a poisonous request whose bandwidth no
    // substrate link can satisfy. It must fail alone — its batch-mates
    // deploy exactly as if it had never been submitted.
    const bool poison = (round % 3) == 2;
    std::vector<sg::ServiceGraph> wave;
    std::vector<std::size_t> good_routes;
    for (std::size_t route = 0; route < kRoutes.size(); ++route) {
      const std::string id =
          "w" + std::to_string(round) + "r" + std::to_string(route);
      const bool last = route + 1 == kRoutes.size();
      if (poison && last) {
        wave.push_back(random_service(rng, id, route, 1e9));
      } else {
        wave.push_back(random_service(
            rng, id, route, static_cast<double>(rng.next_int(5, 40))));
        good_routes.push_back(route);
      }
    }
    total_requests += wave.size();
    if (poison) ++poisoned_rounds;

    const std::uint64_t edits_before = s.virtualizer->edits();
    const auto results = s.service_layer->submit_batch(wave);
    s.clock.run_until_idle();
    // Poisoned or not, the wave costs one edit-config.
    EXPECT_EQ(s.virtualizer->edits() - edits_before, 1u) << "round " << round;
    ASSERT_EQ(results.size(), wave.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool expect_ok = !(poison && i + 1 == wave.size());
      ASSERT_EQ(results[i].ok(), expect_ok)
          << "round " << round << " request " << wave[i].id() << ": "
          << (results[i].ok() ? "ok" : results[i].error().to_string());
      if (results[i].ok()) {
        EXPECT_EQ(*results[i], wave[i].id());
        ++total_committed;
      } else {
        ++total_rolled_back;
      }
    }

    // ---- invariants after every wave ----
    const auto problems = s.ro->global_view().validate();
    ASSERT_TRUE(problems.empty())
        << "round " << round << ": " << problems.front();
    for (const std::size_t route : good_routes) {
      const auto trace =
          end_to_end_trace(s, kRoutes[route].first, kRoutes[route].second);
      ASSERT_TRUE(trace.ok()) << "round " << round << " route " << route
                              << ": " << trace.error().to_string();
    }
    if (poison) {
      const std::size_t dead = kRoutes.size() - 1;
      EXPECT_FALSE(
          end_to_end_trace(s, kRoutes[dead].first, kRoutes[dead].second).ok())
          << "round " << round << " poisoned route carries traffic";
    }

    // Tear the wave down so the next round starts from a clean substrate.
    for (const std::size_t route : good_routes) {
      const std::string id =
          "w" + std::to_string(round) + "r" + std::to_string(route);
      ASSERT_TRUE(s.service_layer->remove(id).ok()) << id;
    }
    s.clock.run_until_idle();
    EXPECT_EQ(s.ro->deployments().size(), 0u) << "round " << round;
  }

  // Pristine data plane after the churn.
  EXPECT_EQ(s.ro->global_view().stats().nf_count, 0u);
  EXPECT_EQ(s.ro->global_view().stats().flowrule_count, 0u);
  for (const auto& [id, link] : s.ro->global_view().links()) {
    EXPECT_EQ(link.reserved, 0.0) << link.id;
  }

  // ---- telemetry: the batch counters add up... ----
  telemetry::Registry& m = s.service_layer->metrics();
  EXPECT_EQ(m.counter("service.batch.requests"), total_requests);
  EXPECT_EQ(m.counter("service.batch.admitted"), total_requests);
  EXPECT_EQ(m.counter("service.batch.committed"), total_committed);
  EXPECT_EQ(m.counter("service.batch.rolled_back"), total_rolled_back);
  EXPECT_EQ(total_rolled_back, poisoned_rounds);

  // ...and however many waves ran, nobody constructed a second pool.
  EXPECT_EQ(util::OrchestrationPool::constructed(), pools_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchChurnTest, ::testing::Values(3u, 77u));

// ---------------------------------------------------------------------------
// Concurrent clients: several threads run RO map_batch waves on private
// orchestrators while the main thread drives service-layer batches — all
// of them multiplexed onto the single shared process pool.

class FakeAdapter final : public adapters::DomainAdapter {
 public:
  FakeAdapter(std::string name, model::Nffg view)
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

model::Nffg domain_view(const std::string& bb, const std::string& sap,
                        const std::string& stitch) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 8)).ok());
  model::attach_sap(g, sap, bb, 0, {10000, 0.1});
  model::attach_sap(g, stitch, bb, 1, {10000, 0.5});
  return g;
}

std::unique_ptr<core::ResourceOrchestrator> two_domain_ro() {
  auto ro = std::make_unique<core::ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  EXPECT_TRUE(ro->add_domain(std::make_unique<FakeAdapter>(
                                 "d1", domain_view("bb1", "sap1", "xp")))
                  .ok());
  EXPECT_TRUE(ro->add_domain(std::make_unique<FakeAdapter>(
                                 "d2", domain_view("bb2", "sap2", "xp")))
                  .ok());
  EXPECT_TRUE(ro->initialize().ok());
  return ro;
}

std::vector<sg::ServiceGraph> independent_requests(int n, double bw) {
  std::vector<sg::ServiceGraph> requests;
  for (int i = 0; i < n; ++i) {
    const std::string id = "svc" + std::to_string(i);
    const std::vector<std::string> types =
        (i % 2 == 0) ? std::vector<std::string>{"nat"}
                     : std::vector<std::string>{"fw-lite", "monitor"};
    requests.push_back(service::prefix_elements(
        sg::make_chain(id, "sap1", types, "sap2", bw, 500), id));
  }
  return requests;
}

TEST(BatchConcurrency, ManyClientsOneProcessPool) {
  (void)util::OrchestrationPool::process_pool();
  const std::uint64_t pools_before = util::OrchestrationPool::constructed();

  constexpr int kClients = 3;
  constexpr int kRoundsPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&failures] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        auto ro = two_domain_ro();
        const auto requests = independent_requests(8, 5);
        const auto results = ro->map_batch(requests);
        for (const auto& result : results) {
          if (!result.ok()) failures.fetch_add(1);
        }
        if (ro->deployments().size() != requests.size()) failures.fetch_add(1);
      }
    });
  }

  // Meanwhile: service-layer waves on the same shared pool.
  auto stack = make_fig1_stack();
  ASSERT_TRUE(stack.ok());
  Fig1Stack& s = **stack;
  Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    std::vector<sg::ServiceGraph> wave;
    for (std::size_t route = 0; route < kRoutes.size(); ++route) {
      wave.push_back(random_service(
          rng, "c" + std::to_string(round) + "r" + std::to_string(route),
          route, 10));
    }
    const auto results = s.service_layer->submit_batch(wave);
    s.clock.run_until_idle();
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << i << ": " << results[i].error().to_string();
      ASSERT_TRUE(s.service_layer->remove(*results[i]).ok());
    }
    s.clock.run_until_idle();
  }

  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(util::OrchestrationPool::constructed(), pools_before);
}

}  // namespace
}  // namespace unify::service
