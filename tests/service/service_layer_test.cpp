#include "service/service_layer.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "adapters/faulty_adapter.h"
#include "core/config_translate.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"

namespace unify::service {
namespace {

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

model::Nffg one_node_view() {
  model::Nffg view{"infra-view"};
  EXPECT_TRUE(
      view.add_bisbis(model::make_bisbis("bb", {16, 16384, 200}, 4)).ok());
  model::attach_sap(view, "sap1", "bb", 0, {1000, 0.1});
  model::attach_sap(view, "sap2", "bb", 1, {1000, 0.1});
  return view;
}

/// Minimal one-RO stack: service layer -> unify -> virtualizer -> RO ->
/// fake infra domain (one BiS-BiS unless `view` says otherwise).
struct Stack {
  explicit Stack(model::Nffg view = one_node_view()) {
    ro = std::make_unique<core::ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    EXPECT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                   "infra", std::move(view)))
                    .ok());
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<core::Virtualizer>(
        *ro, core::ViewPolicy::kSingleBisBis);
    layer = std::make_unique<ServiceLayer>(
        core::make_unify_link(*virtualizer, clock, "north"));
  }
  SimClock clock;
  std::unique_ptr<core::ResourceOrchestrator> ro;
  std::unique_ptr<core::Virtualizer> virtualizer;
  std::unique_ptr<ServiceLayer> layer;
};

/// Same stack, but with a FaultyAdapter between the service layer and the
/// unify link so push/fetch failures can be injected at the exact seam a
/// lossy control channel would occupy.
struct FaultyStack {
  FaultyStack() {
    model::Nffg view{"infra-view"};
    EXPECT_TRUE(
        view.add_bisbis(model::make_bisbis("bb", {16, 16384, 200}, 4)).ok());
    model::attach_sap(view, "sap1", "bb", 0, {1000, 0.1});
    model::attach_sap(view, "sap2", "bb", 1, {1000, 0.1});
    ro = std::make_unique<core::ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    EXPECT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                   "infra", std::move(view)))
                    .ok());
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<core::Virtualizer>(
        *ro, core::ViewPolicy::kSingleBisBis);
    auto faulty = std::make_unique<adapters::FaultyAdapter>(
        core::make_unify_link(*virtualizer, clock, "north"));
    fault = faulty.get();
    layer = std::make_unique<ServiceLayer>(std::move(faulty));
  }
  SimClock clock;
  std::unique_ptr<core::ResourceOrchestrator> ro;
  std::unique_ptr<core::Virtualizer> virtualizer;
  adapters::FaultyAdapter* fault = nullptr;
  std::unique_ptr<ServiceLayer> layer;
};

TEST(PrefixElements, PrefixesEverythingButSaps) {
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "a", {"nat"}, "b", 10, 50);
  const sg::ServiceGraph prefixed = prefix_elements(sg, "r1");
  EXPECT_TRUE(prefixed.has_sap("a"));
  EXPECT_NE(prefixed.find_nf("r1.nat0"), nullptr);
  EXPECT_EQ(prefixed.find_nf("nat0"), nullptr);
  EXPECT_NE(prefixed.find_link("r1.cl0"), nullptr);
  ASSERT_EQ(prefixed.requirements().size(), 1u);
  EXPECT_EQ(prefixed.requirements()[0].id, "r1.e2e");
  EXPECT_TRUE(prefixed.requirements()[0].via.empty());
  EXPECT_TRUE(prefixed.validate().empty());

  sg::ServiceGraph anchored = sg;
  anchored.anchor_requirements();
  EXPECT_EQ(prefix_elements(anchored, "r1").requirements()[0].via, "r1.cl0");
}

TEST(ServiceLayer, SubmitDeploysAndTracks) {
  Stack stack;
  const auto id = stack.layer->submit(
      sg::make_chain("svc", "sap1", {"nat", "dpi"}, "sap2", 10, 100));
  ASSERT_TRUE(id.ok()) << id.error().to_string();
  EXPECT_EQ(*id, "svc");
  EXPECT_EQ(stack.layer->requests().at("svc").state,
            RequestState::kDeployed);
  // NFs deployed below under the prefixed ids.
  EXPECT_TRUE(stack.ro->global_view().find_nf("svc.nat0").has_value());
  EXPECT_TRUE(stack.ro->global_view().find_nf("svc.dpi1").has_value());
}

TEST(ServiceLayer, StatusesRollUp) {
  Stack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  auto statuses = stack.layer->nf_statuses("svc");
  ASSERT_TRUE(statuses.ok()) << statuses.error().to_string();
  ASSERT_EQ(statuses->size(), 1u);
  EXPECT_EQ(statuses->count("nat0"), 1u);  // unprefixed for the user
  auto ready = stack.layer->is_ready("svc");
  ASSERT_TRUE(ready.ok());
  EXPECT_FALSE(*ready);  // fake infra never reports running
}

TEST(ServiceLayer, MultipleIndependentServices) {
  Stack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("a", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("b", "sap1", {"dpi"}, "sap2", 10,
                                          100))
                  .ok());
  EXPECT_EQ(stack.ro->deployments().size(), 2u);
  EXPECT_TRUE(stack.ro->global_view().find_nf("a.nat0").has_value());
  EXPECT_TRUE(stack.ro->global_view().find_nf("b.dpi0").has_value());

  ASSERT_TRUE(stack.layer->remove("a").ok());
  EXPECT_FALSE(stack.ro->global_view().find_nf("a.nat0").has_value());
  EXPECT_TRUE(stack.ro->global_view().find_nf("b.dpi0").has_value());
  EXPECT_EQ(stack.layer->requests().count("a"), 0u);
}

TEST(ServiceLayer, RejectsBadRequests) {
  Stack stack;
  // Unknown SAP.
  auto bad_sap = stack.layer->submit(
      sg::make_chain("x", "ghost", {"nat"}, "sap2", 10, 100));
  ASSERT_FALSE(bad_sap.ok());
  EXPECT_EQ(bad_sap.error().code, ErrorCode::kNotFound);
  // Empty id.
  EXPECT_FALSE(
      stack.layer->submit(sg::make_chain("", "sap1", {}, "sap2", 1, 9)).ok());
  // Duplicate id.
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("dup", "sap1", {}, "sap2", 1, 100))
                  .ok());
  EXPECT_EQ(stack.layer
                ->submit(sg::make_chain("dup", "sap1", {}, "sap2", 1, 100))
                .error()
                .code,
            ErrorCode::kAlreadyExists);
}

TEST(ServiceLayer, FailedDeploymentRollsBack) {
  Stack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("ok", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  // Infeasible: resource demand beyond the substrate.
  sg::ServiceGraph greedy{"greedy"};
  ASSERT_TRUE(greedy.add_sap("sap1").ok());
  ASSERT_TRUE(greedy.add_sap("sap2").ok());
  ASSERT_TRUE(greedy
                  .add_nf(sg::SgNf{"x", "nat", 2,
                                   model::Resources{9999, 1, 1}})
                  .ok());
  ASSERT_TRUE(
      greedy.add_link(sg::SgLink{"l1", {"sap1", 0}, {"x", 0}, 1}).ok());
  ASSERT_TRUE(
      greedy.add_link(sg::SgLink{"l2", {"x", 1}, {"sap2", 0}, 1}).ok());
  auto failed = stack.layer->submit(greedy);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(stack.layer->requests().at("greedy").state,
            RequestState::kFailed);
  EXPECT_FALSE(stack.layer->requests().at("greedy").error.empty());
  // The earlier service is untouched.
  EXPECT_EQ(stack.ro->deployments().size(), 1u);
  EXPECT_TRUE(stack.ro->global_view().find_nf("ok.nat0").has_value());
  // And the layer still works.
  EXPECT_TRUE(stack.layer
                  ->submit(sg::make_chain("after", "sap1", {"dpi"}, "sap2",
                                          10, 100))
                  .ok());
}

TEST(ServiceLayer, SubmitRejectsIdWaitingInAdmissionQueue) {
  Stack stack;
  const sg::ServiceGraph graph =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  ASSERT_TRUE(stack.layer->enqueue(graph, 0).ok());

  // The queued request owns its id: neither inline path may replace it.
  const auto submitted = stack.layer->submit(graph);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.error().code, ErrorCode::kAlreadyExists);
  const auto batched = stack.layer->submit_batch({graph});
  ASSERT_FALSE(batched[0].ok());
  EXPECT_EQ(batched[0].error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(stack.layer->requests().at("svc").state, RequestState::kQueued);
  EXPECT_FALSE(stack.ro->global_view().find_nf("svc.nat0").has_value());

  // The next pump deploys the queued copy exactly once.
  const PumpReport report = stack.layer->pump(1000);
  EXPECT_EQ(report.deployed, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(stack.layer->requests().at("svc").state,
            RequestState::kDeployed);
  EXPECT_EQ(stack.ro->deployments().size(), 1u);
}

TEST(ServiceLayer, RemoveUnknownFails) {
  Stack stack;
  EXPECT_EQ(stack.layer->remove("nope").error().code, ErrorCode::kNotFound);
  EXPECT_EQ(stack.layer->nf_statuses("nope").error().code,
            ErrorCode::kNotFound);
}

TEST(ServiceLayer, ViewIsSingleBisBis) {
  Stack stack;
  auto view = stack.layer->view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->bisbis().size(), 1u);
  EXPECT_EQ(view->saps().size(), 2u);
}

// ------------------------------------------------- rollback-failure paths

TEST(ServiceLayer, FailedRestoreSurfacesRollbackFailure) {
  FaultyStack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("ok", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  // The deployment push AND the rollback push both fail: the layer must
  // say so instead of silently reporting the original error only.
  stack.fault->fail_next(2, ErrorCode::kUnavailable);
  const auto failed = stack.layer->submit(
      sg::make_chain("bad", "sap1", {"dpi"}, "sap2", 10, 100));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kRollbackFailed);
  EXPECT_NE(failed.error().message.find("restore push failed"),
            std::string::npos);
  EXPECT_EQ(stack.layer->requests().at("bad").state, RequestState::kFailed);
  EXPECT_EQ(stack.layer->metrics().counter("service.rollback_failures"), 1u);

  // The cached view was dropped as suspect: the next operation re-fetches
  // ground truth and the layer keeps working.
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("after", "sap1", {"nat"}, "sap2",
                                          10, 100))
                  .ok());
  EXPECT_TRUE(stack.ro->global_view().find_nf("ok.nat0").has_value());
  EXPECT_TRUE(stack.ro->global_view().find_nf("after.nat0").has_value());
}

TEST(ServiceLayer, UpdateRestoreFailureSurfacesRollbackFailure) {
  FaultyStack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  stack.fault->fail_next(2, ErrorCode::kTimeout);
  const auto updated = stack.layer->update(
      sg::make_chain("svc", "sap1", {"nat", "dpi"}, "sap2", 10, 100));
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.error().code, ErrorCode::kRollbackFailed);
  // The books keep the previous version running.
  EXPECT_EQ(stack.layer->requests().at("svc").state, RequestState::kDeployed);
  EXPECT_EQ(stack.layer->requests().at("svc").graph.nfs().size(), 1u);
  // With the channel healthy again the same update goes through.
  ASSERT_TRUE(stack.layer
                  ->update(sg::make_chain("svc", "sap1", {"nat", "dpi"},
                                          "sap2", 10, 100))
                  .ok());
  EXPECT_TRUE(stack.ro->global_view().find_nf("svc.dpi1").has_value());
}

TEST(ServiceLayer, BatchWaveRollbackFailureFailsTheWave) {
  FaultyStack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("ok", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  stack.fault->fail_next(2, ErrorCode::kUnavailable);
  const auto results = stack.layer->submit_batch(
      {sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 100),
       sg::make_chain("b", "sap1", {"dpi"}, "sap2", 10, 100)});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::kRollbackFailed);
  }
  // The wave never entered the books and the pre-batch service survives.
  EXPECT_EQ(stack.layer->requests().count("a"), 0u);
  EXPECT_EQ(stack.layer->requests().count("b"), 0u);
  EXPECT_EQ(stack.layer->metrics().counter("service.batch.rolled_back"), 2u);
  EXPECT_TRUE(stack.ro->global_view().find_nf("ok.nat0").has_value());
}

TEST(ServiceLayer, SuspectClientProbeRejectsBatchUpFront) {
  FaultyStack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("ok", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  stack.fault->fail_next(2, ErrorCode::kUnavailable);
  ASSERT_FALSE(stack.layer
                   ->submit(sg::make_chain("bad", "sap1", {"nat"}, "sap2",
                                           10, 100))
                   .ok());
  ASSERT_TRUE(stack.layer->view().ok());  // re-fetch before the batch

  // The client is suspect (two consecutive transient failures) and the
  // probe fails too: the wave is rejected before any push is attempted.
  stack.fault->fail_next(1, ErrorCode::kUnavailable);
  const auto rejected = stack.layer->submit_batch(
      {sg::make_chain("c", "sap1", {"nat"}, "sap2", 10, 100)});
  ASSERT_EQ(rejected.size(), 1u);
  ASSERT_FALSE(rejected[0].ok());
  EXPECT_EQ(rejected[0].error().code, ErrorCode::kUnavailable);
  EXPECT_NE(rejected[0].error().message.find("probe"), std::string::npos);
  EXPECT_EQ(stack.layer->metrics().counter("service.health.batches_rejected"),
            1u);
  EXPECT_EQ(stack.layer->requests().count("c"), 0u);

  // Channel recovered: the probe passes and the same wave commits.
  const auto retried = stack.layer->submit_batch(
      {sg::make_chain("c", "sap1", {"nat"}, "sap2", 10, 100)});
  ASSERT_EQ(retried.size(), 1u);
  ASSERT_TRUE(retried[0].ok()) << retried[0].error().to_string();
}

TEST(ServiceLayer, FailedSingletonWaveCostsOnePush) {
  FaultyStack stack;
  ASSERT_TRUE(stack.layer
                  ->submit(sg::make_chain("ok", "sap1", {"nat"}, "sap2", 10,
                                          100))
                  .ok());
  // Infeasible below (CPU far beyond the substrate): the push fails and
  // its causes name every element of the request, so the layer below
  // already runs the books without it — nothing is pushed again.
  sg::ServiceGraph greedy{"greedy"};
  ASSERT_TRUE(greedy.add_sap("sap1").ok());
  ASSERT_TRUE(greedy.add_sap("sap2").ok());
  ASSERT_TRUE(greedy
                  .add_nf(sg::SgNf{"x", "nat", 2,
                                   model::Resources{9999, 1, 1}})
                  .ok());
  ASSERT_TRUE(
      greedy.add_link(sg::SgLink{"l1", {"sap1", 0}, {"x", 0}, 1}).ok());
  ASSERT_TRUE(
      greedy.add_link(sg::SgLink{"l2", {"x", 1}, {"sap2", 0}, 1}).ok());
  const std::uint64_t before = stack.fault->operations_seen();
  const auto results = stack.layer->submit_batch({greedy});
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(stack.fault->operations_seen() - before, 1u);
  EXPECT_EQ(results[0].error().message.rfind("deployment of greedy failed: ",
                                             0),
            0u)
      << results[0].error().message;
  EXPECT_EQ(stack.layer->requests().at("greedy").state,
            RequestState::kFailed);
  EXPECT_TRUE(stack.ro->global_view().find_nf("ok.nat0").has_value());
}

// ---------------------------------------------------- requirement owners

/// sap1 - bb1 ==5 ms== bb2 - sap2, where only bb1 hosts nat and only bb2
/// hosts monitor: sap1 -> nat -> sap2 takes 7 ms, while
/// sap1 -> monitor -> nat -> sap2 crosses the 5 ms link three times (17 ms).
model::Nffg two_node_line() {
  model::Nffg view{"line"};
  model::BisBis bb1 = model::make_bisbis("bb1", {16, 16384, 200}, 4);
  bb1.nf_types = {"nat"};
  model::BisBis bb2 = model::make_bisbis("bb2", {16, 16384, 200}, 4);
  bb2.nf_types = {"monitor"};
  EXPECT_TRUE(view.add_bisbis(std::move(bb1)).ok());
  EXPECT_TRUE(view.add_bisbis(std::move(bb2)).ok());
  EXPECT_TRUE(view.add_bidirectional_link("l12", {"bb1", 2}, {"bb2", 2},
                                          model::LinkAttrs{1000, 5})
                  .ok());
  model::attach_sap(view, "sap1", "bb1", 0, {1000, 1});
  model::attach_sap(view, "sap2", "bb2", 1, {1000, 1});
  return view;
}

TEST(RequirementOwnership, RemovingASapPairNeighbourLeavesTheOtherAlone) {
  Stack stack(two_node_line());
  const auto results = stack.layer->submit_batch(
      {sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 100),
       sg::make_chain("b", "sap1", {"nat"}, "sap2", 10, 100)});
  ASSERT_TRUE(results[0].ok()) << results[0].error().to_string();
  ASSERT_TRUE(results[1].ok()) << results[1].error().to_string();
  const std::vector<std::string> before = stack.virtualizer->active_requests();
  ASSERT_EQ(before.size(), 2u);
  std::map<std::string, mapping::Mapping> mappings;
  for (const std::string& id : before) {
    mappings.emplace(id, stack.ro->deployments().at(id).mapping);
  }

  // b's requirement belongs to b's chain only: removing b must neither
  // tear down nor re-map a.
  ASSERT_TRUE(stack.layer->remove("b").ok());
  const std::vector<std::string> after = stack.virtualizer->active_requests();
  ASSERT_EQ(after.size(), 1u);
  ASSERT_EQ(mappings.count(after.front()), 1u)
      << after.front() << " is a re-mapped copy of a";
  EXPECT_EQ(stack.ro->deployments().at(after.front()).mapping,
            mappings.at(after.front()));
  EXPECT_TRUE(stack.ro->global_view().find_nf("a.nat0").has_value());
}

TEST(RequirementOwnership, TightNeighbourRequirementDoesNotBindTheOther) {
  Stack stack(two_node_line());
  // a's 10 ms bound is met by a's own chain (7 ms) but not by b's (17 ms);
  // b's 30 ms bound is loose. Each requirement binds its own chain only,
  // so both deploy from the one edit-config.
  const std::uint64_t edits_before = stack.virtualizer->edits();
  const auto results = stack.layer->submit_batch(
      {sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 10),
       sg::make_chain("b", "sap1", {"monitor", "nat"}, "sap2", 10, 30)});
  ASSERT_TRUE(results[0].ok()) << results[0].error().to_string();
  ASSERT_TRUE(results[1].ok()) << results[1].error().to_string();
  EXPECT_EQ(stack.virtualizer->edits() - edits_before, 1u);
  std::set<std::string> requirements;
  for (const auto& [id, deployment] : stack.ro->deployments()) {
    ASSERT_EQ(deployment.mapping.requirement_delay.size(), 1u) << id;
    requirements.insert(deployment.mapping.requirement_delay.begin()->first);
  }
  EXPECT_EQ(requirements, (std::set<std::string>{"a.e2e", "b.e2e"}));
}

// ------------------------------------------------------------ sync_health

/// Client fake that replays the last pushed configuration and can report
/// chosen NFs as failed — the signal sync_health() consumes.
class StatusClient final : public adapters::DomainAdapter {
 public:
  explicit StatusClient(model::Nffg view) : view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    model::Nffg current = config_.has_value() ? *config_ : view_;
    for (auto& [bb_id, bb] : current.bisbis()) {
      for (auto& [nf_id, nf] : bb.nfs) {
        if (failed_.count(nf_id) != 0) nf.status = model::NfStatus::kFailed;
      }
    }
    return current;
  }
  Result<void> apply(const model::Nffg& desired) override {
    config_ = desired;
    if (lose_next_ack_) {
      lose_next_ack_ = false;
      return Error{ErrorCode::kTimeout, "ack lost after apply"};
    }
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }
  void fail_nf(const std::string& nf_id) { failed_.insert(nf_id); }
  /// The next push is applied, but its ack never arrives (kTimeout).
  void lose_next_ack() { lose_next_ack_ = true; }
  void clear_failures() { failed_.clear(); }
  [[nodiscard]] const model::Nffg& last_config() const { return *config_; }

 private:
  std::string name_ = "status-client";
  model::Nffg view_;
  std::optional<model::Nffg> config_;
  std::set<std::string> failed_;
  bool lose_next_ack_ = false;
};

/// A StatusClient-backed layer over a one-BiS-BiS view with two SAPs.
std::unique_ptr<ServiceLayer> status_layer(StatusClient** handle) {
  model::Nffg view{"client-view"};
  EXPECT_TRUE(
      view.add_bisbis(model::make_bisbis("big", {64, 65536, 500}, 4)).ok());
  model::attach_sap(view, "sap1", "big", 0, {1000, 0.1});
  model::attach_sap(view, "sap2", "big", 1, {1000, 0.1});
  auto client = std::make_unique<StatusClient>(std::move(view));
  *handle = client.get();
  return std::make_unique<ServiceLayer>(std::move(client));
}

TEST(ServiceLayer, LostRemovalAckPushesTheRestoredBooks) {
  StatusClient* handle = nullptr;
  const auto layer = status_layer(&handle);
  ASSERT_TRUE(
      layer->submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100))
          .ok());
  // The removal config lands below but its ack is lost: the layer keeps
  // the service on its books, so the layer below must run it again too.
  handle->lose_next_ack();
  const auto removed = layer->remove("svc");
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(layer->requests().at("svc").state, RequestState::kDeployed);
  EXPECT_TRUE(handle->last_config().find_nf("svc.nat0").has_value());
}

TEST(ServiceLayer, RemovedRequestsLeaveTheBooks) {
  StatusClient* handle = nullptr;
  const auto layer = status_layer(&handle);
  constexpr int kLive = 3;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = "s" + std::to_string(i);
    ASSERT_TRUE(
        layer->submit(sg::make_chain(id, "sap1", {"nat"}, "sap2", 1, 100))
            .ok())
        << id;
    if (i >= kLive) {
      ASSERT_TRUE(layer->remove("s" + std::to_string(i - kLive)).ok());
    }
  }
  EXPECT_EQ(layer->requests().size(), static_cast<std::size_t>(kLive));
  EXPECT_EQ(layer->metrics().counter("service.batch.removed"), 997u);
}

TEST(ServiceLayer, SyncHealthDegradesAndRestoresWithoutTeardown) {
  model::Nffg view{"client-view"};
  ASSERT_TRUE(
      view.add_bisbis(model::make_bisbis("big", {64, 65536, 500}, 4)).ok());
  model::attach_sap(view, "sap1", "big", 0, {1000, 0.1});
  model::attach_sap(view, "sap2", "big", 1, {1000, 0.1});
  auto client = std::make_unique<StatusClient>(std::move(view));
  StatusClient* handle = client.get();
  ServiceLayer layer(std::move(client));

  ASSERT_TRUE(
      layer.submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100))
          .ok());
  auto healthy = layer.sync_health();
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->empty());

  // The layer below reports the NF failed: the request degrades but its
  // configuration is NOT withdrawn — it must survive in every later push
  // so healing below can still find (and fix) it.
  handle->fail_nf("svc.nat0");
  auto degraded = layer.sync_health();
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(*degraded, std::vector<std::string>{"svc"});
  EXPECT_EQ(layer.requests().at("svc").state, RequestState::kDegraded);
  ASSERT_TRUE(
      layer.submit(sg::make_chain("b", "sap1", {"dpi"}, "sap2", 10, 100))
          .ok());
  EXPECT_TRUE(handle->last_config().find_nf("svc.nat0").has_value());

  // The NF recovered: the request flips back to deployed.
  handle->clear_failures();
  auto restored = layer.sync_health();
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
  EXPECT_EQ(layer.requests().at("svc").state, RequestState::kDeployed);
  EXPECT_EQ(layer.metrics().counter("service.health.degraded"), 1u);
  EXPECT_EQ(layer.metrics().counter("service.health.restored"), 1u);
}

TEST(ServiceLayer, SubmitRejectsIdOfDegradedService) {
  model::Nffg view{"client-view"};
  ASSERT_TRUE(
      view.add_bisbis(model::make_bisbis("big", {64, 65536, 500}, 4)).ok());
  model::attach_sap(view, "sap1", "big", 0, {1000, 0.1});
  model::attach_sap(view, "sap2", "big", 1, {1000, 0.1});
  auto client = std::make_unique<StatusClient>(std::move(view));
  StatusClient* handle = client.get();
  ServiceLayer layer(std::move(client));

  ASSERT_TRUE(
      layer.submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100))
          .ok());
  handle->fail_nf("svc.nat0");
  ASSERT_TRUE(layer.sync_health().ok());
  ASSERT_EQ(layer.requests().at("svc").state, RequestState::kDegraded);

  // A degraded service still runs below: a resubmit of its id must not
  // replace its books, on either inline path.
  const sg::ServiceGraph replacement =
      sg::make_chain("svc", "sap1", {"dpi"}, "sap2", 10, 100);
  const auto submitted = layer.submit(replacement);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.error().code, ErrorCode::kAlreadyExists);
  const auto batched = layer.submit_batch({replacement});
  ASSERT_FALSE(batched[0].ok());
  EXPECT_EQ(batched[0].error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(layer.requests().at("svc").state, RequestState::kDegraded);
  EXPECT_NE(layer.requests().at("svc").graph.find_nf("nat0"), nullptr);

  // The next push still carries the original service.
  ASSERT_TRUE(
      layer.submit(sg::make_chain("b", "sap1", {"fw-lite"}, "sap2", 10, 100))
          .ok());
  EXPECT_TRUE(handle->last_config().find_nf("svc.nat0").has_value());
  EXPECT_FALSE(handle->last_config().find_nf("svc.dpi0").has_value());
}

/// The config a push of `layer`'s books must equal, built from scratch: a
/// fresh prefix_elements of every active record, merged in id order.
model::Nffg fresh_config(ServiceLayer& layer) {
  sg::ServiceGraph merged{"active-services"};
  for (const auto& [id, request] : layer.requests()) {
    if (request.state != RequestState::kDeployed &&
        request.state != RequestState::kDegraded) {
      continue;
    }
    const sg::ServiceGraph prefixed = prefix_elements(request.graph, id);
    for (const auto& [sap_id, name] : prefixed.saps()) {
      if (!merged.has_sap(sap_id)) (void)merged.add_sap(sap_id, name);
    }
    for (const auto& [nf_id, nf] : prefixed.nfs()) {
      EXPECT_TRUE(merged.add_nf(nf).ok());
    }
    for (const sg::SgLink& link : prefixed.links()) {
      EXPECT_TRUE(merged.add_link(link).ok());
    }
    for (const sg::E2eRequirement& req : prefixed.requirements()) {
      EXPECT_TRUE(merged.add_requirement(req).ok());
    }
    for (const sg::PlacementConstraint& c : prefixed.constraints()) {
      EXPECT_TRUE(merged.add_constraint(c).ok());
    }
  }
  const auto view = layer.view();
  EXPECT_TRUE(view.ok());
  auto config = core::service_graph_to_config(merged, *view, "big");
  EXPECT_TRUE(config.ok()) << config.error().to_string();
  return config.ok() ? *std::move(config) : model::Nffg{};
}

TEST(ServiceLayer, PrefixedGraphsFollowEveryGraphChange) {
  StatusClient* handle = nullptr;
  const auto layer = status_layer(&handle);
  // An active record holds its prefixed graph; every other record holds
  // an empty one, since no push reads it.
  const auto expect_fresh = [&](const char* step) {
    for (const auto& [id, request] : layer->requests()) {
      const bool active = request.state == RequestState::kDeployed ||
                          request.state == RequestState::kDegraded;
      EXPECT_EQ(request.prefixed, active ? prefix_elements(request.graph, id)
                                         : sg::ServiceGraph{})
          << step << ": " << id;
    }
    EXPECT_TRUE(handle->last_config() == fresh_config(*layer)) << step;
  };
  ASSERT_TRUE(layer
                  ->submit_batch({sg::make_chain("a", "sap1", {"nat"}, "sap2",
                                                 10, 100),
                                  sg::make_chain("b", "sap1",
                                                 {"monitor", "nat"}, "sap2",
                                                 20, 100)})[1]
                  .ok());
  expect_fresh("wave");

  // An update whose push fails is restored: the restore push and every
  // later one carry the previous version of "a".
  const sg::ServiceGraph original = layer->requests().at("a").graph;
  handle->lose_next_ack();
  ASSERT_FALSE(
      layer->update(sg::make_chain("a", "sap1", {"dpi"}, "sap2", 30, 100))
          .ok());
  EXPECT_EQ(layer->requests().at("a").graph, original);
  expect_fresh("restored update");
  ASSERT_TRUE(
      layer->update(sg::make_chain("a", "sap1", {"fw-lite"}, "sap2", 40, 100))
          .ok());
  EXPECT_TRUE(handle->last_config().find_nf("a.fw-lite0").has_value());
  expect_fresh("landed update");

  // A failed id is reusable: the new graph replaces the old record's.
  handle->lose_next_ack();
  ASSERT_FALSE(
      layer->submit(sg::make_chain("f", "sap1", {"nat"}, "sap2", 10, 100))
          .ok());
  ASSERT_EQ(layer->requests().at("f").state, RequestState::kFailed);
  expect_fresh("failed submit");
  ASSERT_TRUE(layer
                  ->submit(sg::make_chain("f", "sap1", {"monitor", "dpi"},
                                          "sap2", 15, 100))
                  .ok());
  EXPECT_TRUE(handle->last_config().find_nf("f.dpi1").has_value());
  EXPECT_FALSE(handle->last_config().find_nf("f.nat0").has_value());
  expect_fresh("resubmitted id");

  ASSERT_TRUE(layer->remove("b").ok());
  expect_fresh("removal");

  // The admission lifecycle: queued, then parked on a lost ack, then
  // readmitted by the retry backstop and deployed.
  ASSERT_TRUE(
      layer->enqueue(sg::make_chain("q", "sap1", {"nat"}, "sap2", 10, 100), 0)
          .ok());
  ASSERT_EQ(layer->requests().at("q").state, RequestState::kQueued);
  expect_fresh("queued");
  handle->lose_next_ack();
  ASSERT_EQ(layer->pump(0).postponed, 1u);
  ASSERT_EQ(layer->requests().at("q").state, RequestState::kPostponed);
  expect_fresh("postponed");
  for (int i = 0; i < 8 && layer->requests().at("q").state !=
                               RequestState::kDeployed;
       ++i) {
    (void)layer->pump(0);
  }
  ASSERT_EQ(layer->requests().at("q").state, RequestState::kDeployed);
  EXPECT_TRUE(handle->last_config().find_nf("q.nat0").has_value());
  expect_fresh("readmitted");
}

}  // namespace
}  // namespace unify::service
