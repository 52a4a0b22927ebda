// Batch deployment front-end: parallel speculative mapping + sequential
// commits must behave exactly like a sequential deploy() loop, stay
// deterministic under contention, and be data-race free (this whole binary
// runs under ThreadSanitizer when ENABLE_TSAN is on).
#include <gtest/gtest.h>

#include <tuple>

#include "core/resource_orchestrator.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "service/service_layer.h"
#include "util/orchestration_pool.h"

namespace unify::core {
namespace {

/// Records every apply; rejects them (and records nothing) while
/// set_reject(true). native_operations() counts apply calls.
class FakeAdapter final : public adapters::DomainAdapter {
 public:
  FakeAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}

  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg& desired) override {
    ++applies_;
    if (reject_) return Error{ErrorCode::kRejected, name_ + " says no"};
    applied_.push_back(desired);
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applies_;
  }
  /// Called between RO calls only; the pool join orders it with apply().
  void set_reject(bool reject) { reject_ = reject; }

 private:
  std::string name_;
  model::Nffg view_;
  std::vector<model::Nffg> applied_;
  std::uint64_t applies_ = 0;
  bool reject_ = false;
};

model::Nffg domain_view(const std::string& bb, const std::string& sap,
                        const std::string& stitch) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 8)).ok());
  model::attach_sap(g, sap, bb, 0, {10000, 0.1});
  model::attach_sap(g, stitch, bb, 1, {10000, 0.5});
  return g;
}

/// Two stitched domains d1/d2; `adapters`, when given, receives borrowed
/// pointers to their adapters (owned by the returned RO). `pool` (which
/// must outlive the RO) replaces the process pool.
std::unique_ptr<ResourceOrchestrator> two_domain_ro(
    std::vector<FakeAdapter*>* adapters = nullptr,
    util::OrchestrationPool* pool = nullptr) {
  RoOptions options;
  options.pool = pool;
  auto ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), options);
  for (const auto& [domain, bb, sap] :
       {std::tuple{"d1", "bb1", "sap1"}, std::tuple{"d2", "bb2", "sap2"}}) {
    auto adapter =
        std::make_unique<FakeAdapter>(domain, domain_view(bb, sap, "xp"));
    if (adapters != nullptr) adapters->push_back(adapter.get());
    EXPECT_TRUE(ro->add_domain(std::move(adapter)).ok());
  }
  EXPECT_TRUE(ro->initialize().ok());
  return ro;
}

/// `n` independent chain requests with namespaced NF/link ids (SAPs are
/// shared infrastructure, so only element ids need prefixing).
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

TEST(MapBatch, MatchesSequentialDeployOnIndependentRequests) {
  const auto requests = independent_requests(8, 10);

  auto sequential = two_domain_ro();
  for (const sg::ServiceGraph& request : requests) {
    const auto result = sequential->deploy(request);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }

  util::OrchestrationPool pool(4);
  auto batched = two_domain_ro(nullptr, &pool);
  const auto results = batched->map_batch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error().to_string();
    EXPECT_EQ(*results[i], requests[i].id());
  }

  // Same deployments, byte-identical mappings, same resulting view.
  ASSERT_EQ(batched->deployments().size(), sequential->deployments().size());
  for (const auto& [id, deployment] : sequential->deployments()) {
    const auto it = batched->deployments().find(id);
    ASSERT_NE(it, batched->deployments().end()) << id;
    EXPECT_EQ(it->second.mapping, deployment.mapping) << id;
  }
  EXPECT_EQ(batched->global_view(), sequential->global_view());
  EXPECT_EQ(batched->metrics().counter("ro.batch_requests"), 8u);
  EXPECT_EQ(batched->metrics().counter("ro.batch_conflicts"), 0u);
}

TEST(MapBatch, ResolvesResourceConflictsDeterministically) {
  // Every chain demands 6 Gbit/s; the SAP attachment links carry 10, so
  // only one request fits: speculative mappings all pass against the
  // snapshot, commits 2..4 hit the verifier and fail their re-map.
  const auto requests = independent_requests(4, 6000);

  util::OrchestrationPool pool(4);
  const auto run = [&requests, &pool] {
    auto ro = two_domain_ro(nullptr, &pool);
    auto results = ro->map_batch(requests);
    return std::make_pair(std::move(results),
                          ro->metrics().counter("ro.batch_conflicts"));
  };

  const auto [first, conflicts] = run();
  ASSERT_EQ(first.size(), 4u);
  EXPECT_TRUE(first[0].ok()) << first[0].error().to_string();
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_FALSE(first[i].ok()) << i;
  }
  EXPECT_GE(conflicts, 3u);

  // Deterministic: a second run ends with exactly the same outcomes,
  // independent of thread scheduling.
  const auto [second, conflicts2] = run();
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ok(), second[i].ok()) << i;
  }
  EXPECT_EQ(conflicts, conflicts2);
}

TEST(MapBatch, ReportsPerRequestErrorsWithoutPoisoningTheBatch) {
  auto ro = two_domain_ro();
  auto requests = independent_requests(3, 10);
  requests[1] = sg::ServiceGraph{""};  // inadmissible: empty id

  const auto results = ro->map_batch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(ro->deployments().size(), 2u);
}

TEST(MapBatch, EmptyBatchAndSingleWorkerDegenerateCases) {
  util::OrchestrationPool sequential(1);
  auto ro = two_domain_ro(nullptr, &sequential);
  EXPECT_TRUE(ro->map_batch({}).empty());

  const auto requests = independent_requests(3, 10);
  const auto results = ro->map_batch(requests);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok());
  }
}

/// TSan target: a large batch on many workers. Correctness assertions are
/// minimal on purpose — the point is exercising the concurrent speculative
/// phase (shared const view, per-slot writes) under the race detector.
TEST(MapBatch, ConcurrentSpeculationIsRaceFree) {
  util::OrchestrationPool pool(8);
  auto ro = two_domain_ro(nullptr, &pool);
  const auto requests = independent_requests(16, 5);
  const auto results = ro->map_batch(requests);
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << i << ": "
                                 << results[i].error().to_string();
  }
  EXPECT_EQ(ro->deployments().size(), 16u);
}

TEST(MapBatch, OneFanOutPerBatch) {
  std::vector<FakeAdapter*> adapters;
  auto ro = two_domain_ro(&adapters);
  const auto fanout = ro->metrics().counter("ro.push.fanout");

  const auto results = ro->map_batch(independent_requests(8, 10));
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": "
                                 << results[i].error().to_string();
  }
  // One group commit: each domain receives exactly one slice carrying all
  // eight services.
  EXPECT_LE(ro->metrics().counter("ro.push.fanout") - fanout, 2u);
  for (const FakeAdapter* adapter : adapters) {
    EXPECT_EQ(adapter->native_operations(), 1u) << adapter->domain();
  }
  EXPECT_EQ(ro->deployments().size(), 8u);
}

TEST(MapBatch, FailedGroupPushRollsBackTheWholeBatch) {
  std::vector<FakeAdapter*> adapters;
  auto ro = two_domain_ro(&adapters);
  const model::Nffg before = ro->global_view();
  adapters[1]->set_reject(true);

  auto requests = independent_requests(6, 10);
  requests[2] = sg::ServiceGraph{""};  // inadmissible: never installed
  const auto results = ro->map_batch(requests);
  ASSERT_EQ(results.size(), requests.size());
  EXPECT_EQ(results[2].error().code, ErrorCode::kInvalidArgument);
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    ASSERT_FALSE(results[i].ok()) << i;
    EXPECT_EQ(results[i].error().code, ErrorCode::kRejected) << i;
    EXPECT_NE(results[i].error().message.find("deployment " + requests[i].id() +
                                              " rolled back: "),
              std::string::npos)
        << results[i].error().message;
  }
  EXPECT_TRUE(ro->deployments().empty());
  EXPECT_EQ(ro->global_view(), before);
  // d1 accepted the batch slice, then the rollback re-push emptied it.
  EXPECT_EQ(adapters[0]->native_operations(), 2u);

  // The books are clean: the same batch commits once d2 accepts again.
  adapters[1]->set_reject(false);
  requests[2] = independent_requests(3, 10)[2];
  for (const auto& result : ro->map_batch(requests)) {
    EXPECT_TRUE(result.ok()) << result.error().to_string();
  }
  EXPECT_EQ(ro->deployments().size(), 6u);
}

TEST(RemoveBatch, OnePushForManyAndNotFoundIsPerId) {
  std::vector<FakeAdapter*> adapters;
  auto ro = two_domain_ro(&adapters);
  const auto requests = independent_requests(6, 10);
  for (const auto& result : ro->map_batch(requests)) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  const auto fanout = ro->metrics().counter("ro.push.fanout");
  const auto removals = ro->metrics().counter("ro.removals");

  const auto removed =
      ro->remove_batch({"svc0", "nope", "svc2", "svc3", "svc0"});
  ASSERT_EQ(removed.size(), 5u);
  EXPECT_TRUE(removed[0].ok());
  EXPECT_EQ(removed[1].error().code, ErrorCode::kNotFound);
  EXPECT_TRUE(removed[2].ok());
  EXPECT_TRUE(removed[3].ok());
  EXPECT_EQ(removed[4].error().code, ErrorCode::kNotFound);  // already gone

  EXPECT_LE(ro->metrics().counter("ro.push.fanout") - fanout, 2u);
  for (const FakeAdapter* adapter : adapters) {
    EXPECT_EQ(adapter->native_operations(), 2u) << adapter->domain();
  }
  EXPECT_EQ(ro->metrics().counter("ro.removals") - removals, 3u);
  EXPECT_EQ(ro->deployments().size(), 3u);
  for (const char* id : {"svc0", "svc2", "svc3"}) {
    EXPECT_EQ(ro->deployments().count(id), 0u) << id;
  }
  EXPECT_EQ(ro->remove("nope").error().code, ErrorCode::kNotFound);
  EXPECT_TRUE(ro->remove_batch({}).empty());
}

TEST(RemoveBatch, FailedPushIsReportedPerIdAndRemovalStaysCommitted) {
  std::vector<FakeAdapter*> adapters;
  auto ro = two_domain_ro(&adapters);
  for (const auto& result : ro->map_batch(independent_requests(4, 10))) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  std::vector<std::string> released_nfs;
  for (const char* id : {"svc1", "svc2"}) {
    for (const auto& [nf, host] : ro->deployments().at(id).mapping.nf_host) {
      released_nfs.push_back(nf);
    }
  }
  ASSERT_FALSE(released_nfs.empty());

  adapters[1]->set_reject(true);
  const auto removed = ro->remove_batch({"svc1", "gone", "svc2"});
  EXPECT_EQ(removed[0].error().code, ErrorCode::kRejected);
  EXPECT_EQ(removed[1].error().code, ErrorCode::kNotFound);
  EXPECT_EQ(removed[2].error().code, ErrorCode::kRejected);
  // Committed in the books and the view despite the failed push.
  EXPECT_EQ(ro->deployments().size(), 2u);
  for (const std::string& nf : released_nfs) {
    EXPECT_FALSE(ro->global_view().find_nf(nf).has_value()) << nf;
  }
}

}  // namespace
}  // namespace unify::core
