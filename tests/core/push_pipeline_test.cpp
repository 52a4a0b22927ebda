// Southbound push pipeline: parallel fan-out determinism, clean-domain
// skipping, retry/backoff, partial-failure convergence and nested
// recursion on the shared pool. Lives in the concurrency_tests binary so
// it runs under `ctest -L concurrency` and a -DENABLE_TSAN=ON build.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "util/orchestration_pool.h"

namespace unify::core {
namespace {

/// Fake domain that counts applies and keeps the last accepted slice.
/// fetch_view() reports every NF of that slice as kRunning, so
/// sync_statuses() has real statuses to pull north.
class CountingAdapter final : public adapters::DomainAdapter {
 public:
  CountingAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}

  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    if (applies_ == 0) return view_;
    model::Nffg live = last_applied_;
    for (const auto& [bb_id, bb] : live.bisbis()) {
      for (const auto& [nf_id, nf] : bb.nfs) {
        model::BisBis* mine = live.find_bisbis(bb_id);
        mine->nfs.at(nf_id).status = model::NfStatus::kRunning;
      }
    }
    return live;
  }
  Result<void> apply(const model::Nffg& desired) override {
    ++applies_;
    last_applied_ = desired;
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applies_;
  }

  [[nodiscard]] std::uint64_t applies() const noexcept { return applies_; }
  [[nodiscard]] const model::Nffg& last_applied() const noexcept {
    return last_applied_;
  }

 private:
  std::string name_;
  model::Nffg view_;
  model::Nffg last_applied_;
  std::uint64_t applies_ = 0;
};

/// Domain i of an n-domain line: customer SAP sap<i>, stitching SAPs
/// x<i-1> (towards the previous domain) and x<i> (towards the next).
model::Nffg line_domain_view(std::size_t i, std::size_t n) {
  const std::string bb = "bb" + std::to_string(i);
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(g.add_bisbis(model::make_bisbis(bb, {32, 32768, 400}, 6)).ok());
  model::attach_sap(g, "sap" + std::to_string(i), bb, 0, {1000, 0.1});
  if (i > 0) {
    model::attach_sap(g, "x" + std::to_string(i - 1), bb, 1, {1000, 0.5});
  }
  if (i + 1 < n) {
    model::attach_sap(g, "x" + std::to_string(i), bb, 2, {1000, 0.5});
  }
  return g;
}

struct LineStack {
  std::unique_ptr<ResourceOrchestrator> ro;
  std::vector<CountingAdapter*> domains;
  std::vector<adapters::FaultyAdapter*> faults;  // empty unless wrapped
};

LineStack make_line_ro(std::size_t n, RoOptions options,
                       bool wrap_faulty = false) {
  LineStack stack;
  stack.ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), options);
  for (std::size_t i = 0; i < n; ++i) {
    auto counting = std::make_unique<CountingAdapter>(
        "d" + std::to_string(i), line_domain_view(i, n));
    stack.domains.push_back(counting.get());
    if (wrap_faulty) {
      auto faulty =
          std::make_unique<adapters::FaultyAdapter>(std::move(counting));
      stack.faults.push_back(faulty.get());
      EXPECT_TRUE(stack.ro->add_domain(std::move(faulty)).ok());
    } else {
      EXPECT_TRUE(stack.ro->add_domain(std::move(counting)).ok());
    }
  }
  EXPECT_TRUE(stack.ro->initialize().ok());
  return stack;
}

/// NF instance ids live in a flat substrate namespace (type + index), so
/// concurrent services must use distinct NF types.
sg::ServiceGraph span_chain(const std::string& id, std::size_t from,
                            std::size_t to, const std::string& nf = "nat") {
  return sg::make_chain(id, "sap" + std::to_string(from), {nf},
                        "sap" + std::to_string(to), 10, 500);
}

// ------------------------------------------------------------ determinism

TEST(PushPipeline, ParallelPushMatchesSequential) {
  util::OrchestrationPool pool(4);
  RoOptions parallel;
  parallel.pool = &pool;
  util::OrchestrationPool inline_pool(1);  // runs every fan-out inline
  RoOptions sequential;
  sequential.pool = &inline_pool;

  LineStack par = make_line_ro(4, parallel);
  LineStack seq = make_line_ro(4, sequential);
  for (auto* stack : {&par, &seq}) {
    ASSERT_TRUE(stack->ro->deploy(span_chain("a", 0, 3)).ok());
    ASSERT_TRUE(stack->ro->deploy(span_chain("b", 1, 2, "dpi")).ok());
    ASSERT_TRUE(stack->ro->remove("b").ok());
  }

  // Same global view, and every domain acknowledged byte-identical slices.
  EXPECT_EQ(model::to_json(par.ro->global_view()).dump(),
            model::to_json(seq.ro->global_view()).dump());
  for (std::size_t i = 0; i < par.domains.size(); ++i) {
    EXPECT_EQ(model::to_json(par.domains[i]->last_applied()).dump(),
              model::to_json(seq.domains[i]->last_applied()).dump())
        << "domain " << i;
    EXPECT_EQ(par.domains[i]->applies(), seq.domains[i]->applies())
        << "domain " << i;
  }
}

// ------------------------------------------------------- clean-domain skip

TEST(PushPipeline, CleanDomainsAreSkipped) {
  LineStack stack = make_line_ro(3, RoOptions{});
  // First deploy dirties every domain (nothing has been acked yet).
  ASSERT_TRUE(stack.ro->deploy(span_chain("a", 0, 1)).ok());
  EXPECT_EQ(stack.domains[2]->applies(), 1u);

  // The second deploy also only touches d0/d1: d2's slice is unchanged
  // and its epoch stable, so it must not be pushed again.
  ASSERT_TRUE(stack.ro->deploy(span_chain("b", 0, 1, "dpi")).ok());
  EXPECT_EQ(stack.domains[0]->applies(), 2u);
  EXPECT_EQ(stack.domains[1]->applies(), 2u);
  EXPECT_EQ(stack.domains[2]->applies(), 1u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.push.skipped_clean"), 1u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.push.fanout"), 5u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.slice_pushes"), 5u);

  // A no-op resync touches nothing at all.
  ASSERT_TRUE(stack.ro->resync_domains().ok());
  EXPECT_EQ(stack.domains[0]->applies(), 2u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.push.skipped_clean"), 4u);
}

// --------------------------------------- partial failure / fail-fast fix

TEST(PushPipeline, HealthyDomainsConvergeWhenFirstFails) {
  LineStack stack = make_line_ro(2, RoOptions{}, /*wrap_faulty=*/true);
  ASSERT_TRUE(stack.ro->deploy(span_chain("svc", 0, 1)).ok());
  ASSERT_GT(stack.domains[1]->last_applied().stats().flowrule_count, 0u);

  // d0 (pushed first) fails the teardown push. Before the fan-out
  // redesign the push loop bailed on the first error and d1 was never
  // told — it kept forwarding a torn-down service.
  stack.faults[0]->fail_next(1, ErrorCode::kUnavailable);
  const auto r = stack.ro->remove("svc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(stack.domains[1]->last_applied().stats().nf_count, 0u);
  EXPECT_EQ(stack.domains[1]->last_applied().stats().flowrule_count, 0u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.push.partial_failures"), 1u);

  // The failed domain is dirty (unknown state) and converges on the next
  // resync; the healthy one is clean and untouched.
  const std::uint64_t healthy_applies = stack.domains[1]->applies();
  ASSERT_TRUE(stack.ro->resync_domains().ok());
  EXPECT_EQ(stack.domains[0]->last_applied().stats().nf_count, 0u);
  EXPECT_EQ(stack.domains[1]->applies(), healthy_applies);
}

TEST(PushPipeline, AllFailuresAreAggregated) {
  LineStack stack = make_line_ro(3, RoOptions{}, /*wrap_faulty=*/true);
  ASSERT_TRUE(stack.ro->deploy(span_chain("svc", 0, 2)).ok());
  stack.faults[0]->fail_next(1, ErrorCode::kUnavailable);
  stack.faults[2]->fail_next(1, ErrorCode::kTimeout);
  const auto r = stack.ro->remove("svc");
  ASSERT_FALSE(r.ok());
  // Both failing domains appear in the aggregated message; the healthy
  // middle domain converged regardless.
  EXPECT_NE(r.error().message.find("d0"), std::string::npos);
  EXPECT_NE(r.error().message.find("d2"), std::string::npos);
  EXPECT_EQ(stack.domains[1]->last_applied().stats().nf_count, 0u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.push.partial_failures"), 2u);
}

// --------------------------------------- fetch fan-out (init/status sync)

TEST(PushPipeline, InitializeAndSyncStatusesMatchSequential) {
  util::OrchestrationPool pool(4);
  RoOptions parallel;
  parallel.pool = &pool;
  util::OrchestrationPool inline_pool(1);  // runs every fan-out inline
  RoOptions sequential;
  sequential.pool = &inline_pool;

  LineStack par = make_line_ro(4, parallel);
  LineStack seq = make_line_ro(4, sequential);
  EXPECT_EQ(model::to_json(par.ro->global_view()).dump(),
            model::to_json(seq.ro->global_view()).dump());

  for (auto* stack : {&par, &seq}) {
    ASSERT_TRUE(stack->ro->deploy(span_chain("svc", 0, 3)).ok());
    ASSERT_TRUE(stack->ro->sync_statuses().ok());
  }
  EXPECT_EQ(model::to_json(par.ro->global_view()).dump(),
            model::to_json(seq.ro->global_view()).dump());
  ASSERT_TRUE(par.ro->nf_status("nat0").has_value());
  EXPECT_EQ(*par.ro->nf_status("nat0"), model::NfStatus::kRunning);
  EXPECT_EQ(*par.ro->nf_status("nat0"), *seq.ro->nf_status("nat0"));
}

// --------------------------------------------------- nested recursion

TEST(PushPipeline, NestedRecursionSharesOnePoolWithoutDeadlock) {
  // Parent RO -> UnifyClientAdapter -> child RO, both fanning out on the
  // SAME injected pool: the child's run_all() happens inside a parent
  // pool task (the caller participates as a runner, so the nesting cannot
  // deadlock even with a single worker).
  util::OrchestrationPool pool(2);
  SimClock clock;

  auto child = std::make_unique<ResourceOrchestrator>(
      "child", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), [&] {
        RoOptions o;
        o.pool = &pool;
        return o;
      }());
  std::vector<CountingAdapter*> leaves;
  for (std::size_t i = 0; i < 2; ++i) {
    auto leaf = std::make_unique<CountingAdapter>("leaf" + std::to_string(i),
                                                  line_domain_view(i, 2));
    leaves.push_back(leaf.get());
    ASSERT_TRUE(child->add_domain(std::move(leaf)).ok());
  }
  ASSERT_TRUE(child->initialize().ok());
  Virtualizer virt(*child, ViewPolicy::kSingleBisBis, "child.big");

  auto parent = std::make_unique<ResourceOrchestrator>(
      "parent", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), [&] {
        RoOptions o;
        o.pool = &pool;
        return o;
      }());
  ASSERT_TRUE(
      parent->add_domain(make_unify_link(virt, clock, "south")).ok());
  ASSERT_TRUE(parent->initialize().ok());

  const auto r = parent->deploy(
      sg::make_chain("svc", "sap0", {"nat"}, "sap1", 10, 500));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // The push really recursed: the child deployed and fanned out to its
  // own leaves through the same pool.
  EXPECT_EQ(child->deployments().size(), 1u);
  EXPECT_EQ(leaves[0]->last_applied().stats().nf_count +
                leaves[1]->last_applied().stats().nf_count,
            1u);

  ASSERT_TRUE(parent->remove("svc").ok());
  EXPECT_EQ(child->global_view().stats().nf_count, 0u);
}

// ------------------------------------------------------------ ticket shim

TEST(PushPipeline, TicketShimRejectsOverlappingAndStaleTransactions) {
  CountingAdapter adapter("d0", line_domain_view(0, 1));
  const model::Nffg desired = line_domain_view(0, 1);

  const auto first = adapter.begin_apply(desired);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(adapter.push_in_flight());
  // Second transaction while one is open: refused.
  EXPECT_EQ(adapter.begin_apply(desired).error().code,
            ErrorCode::kUnavailable);
  // Stale ticket: refused, transaction stays open.
  EXPECT_EQ(adapter.await(adapters::PushTicket{9999}).error().code,
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(adapter.push_in_flight());

  const std::uint64_t epoch_before = adapter.view_epoch();
  ASSERT_TRUE(adapter.await(*first).ok());
  EXPECT_FALSE(adapter.push_in_flight());
  EXPECT_EQ(adapter.applies(), 1u);
  // The awaited apply bumped the epoch (domain state may have changed).
  EXPECT_GT(adapter.view_epoch(), epoch_before);
  // The ticket is single-use.
  EXPECT_EQ(adapter.await(*first).error().code, ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace unify::core
