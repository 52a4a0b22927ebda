// Unit coverage of the overload-safe admission lifecycle (DESIGN.md §12):
// the bounded AdmissionQueue's dispatch order and displacement rules, and
// the service layer's enqueue()/pump()/remove_batch() state machine —
// shedding, postpone/park on a degraded substrate, readmission on health
// transitions — driven against a fake adapter whose failures are exact.
#include "service/admission.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "model/nffg_builder.h"
#include "service/service_layer.h"
#include "sg/service_graph.h"

namespace unify::service {
namespace {

AdmissionEntry entry(const std::string& id, AdmissionClass klass,
                     SimTime deadline, std::uint64_t seq) {
  AdmissionEntry e;
  e.graph = sg::ServiceGraph{id};
  e.klass = klass;
  e.deadline = deadline;
  e.seq = seq;
  return e;
}

TEST(AdmissionQueue, DispatchOrderClassDeadlineSeq) {
  AdmissionQueue queue(8);
  (void)queue.push(entry("new-late", AdmissionClass::kNew, 9000, 0));
  (void)queue.push(entry("heal", AdmissionClass::kHeal, 0, 1));
  (void)queue.push(entry("new-soon", AdmissionClass::kNew, 2000, 2));
  (void)queue.push(entry("reembed", AdmissionClass::kReembed, 5000, 3));
  (void)queue.push(entry("new-nodeadline", AdmissionClass::kNew, 0, 4));

  const auto wave = queue.pop_wave(8);
  ASSERT_EQ(wave.size(), 5u);
  // Class first (heal > reembed > new); within a class earlier deadline
  // first, no deadline last; seq breaks ties.
  EXPECT_EQ(wave[0].graph.id(), "heal");
  EXPECT_EQ(wave[1].graph.id(), "reembed");
  EXPECT_EQ(wave[2].graph.id(), "new-soon");
  EXPECT_EQ(wave[3].graph.id(), "new-late");
  EXPECT_EQ(wave[4].graph.id(), "new-nodeadline");
}

TEST(AdmissionQueue, FifoWithinEqualKeys) {
  AdmissionQueue queue(4);
  (void)queue.push(entry("a", AdmissionClass::kNew, 0, 0));
  (void)queue.push(entry("b", AdmissionClass::kNew, 0, 1));
  (void)queue.push(entry("c", AdmissionClass::kNew, 0, 2));
  const auto wave = queue.pop_wave(4);
  ASSERT_EQ(wave.size(), 3u);
  EXPECT_EQ(wave[0].graph.id(), "a");
  EXPECT_EQ(wave[1].graph.id(), "b");
  EXPECT_EQ(wave[2].graph.id(), "c");
}

TEST(AdmissionQueue, FullQueueRejectsEqualClassNewcomer) {
  AdmissionQueue queue(2);
  (void)queue.push(entry("a", AdmissionClass::kNew, 0, 0));
  (void)queue.push(entry("b", AdmissionClass::kNew, 0, 1));
  const auto pushed = queue.push(entry("c", AdmissionClass::kNew, 0, 2));
  EXPECT_EQ(pushed.outcome, AdmissionQueue::PushOutcome::kRejected);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.contains("a"));
  EXPECT_TRUE(queue.contains("b"));
}

TEST(AdmissionQueue, HigherClassDisplacesLowestTail) {
  AdmissionQueue queue(2);
  (void)queue.push(entry("new1", AdmissionClass::kNew, 1000, 0));
  (void)queue.push(entry("new2", AdmissionClass::kNew, 2000, 1));
  const auto pushed = queue.push(entry("heal", AdmissionClass::kHeal, 0, 2));
  EXPECT_EQ(pushed.outcome, AdmissionQueue::PushOutcome::kDisplaced);
  ASSERT_TRUE(pushed.displaced.has_value());
  // The lowest-urgency tail goes: the later-deadline kNew entry.
  EXPECT_EQ(pushed.displaced->graph.id(), "new2");
  EXPECT_TRUE(queue.contains("heal"));
  EXPECT_TRUE(queue.contains("new1"));
}

TEST(AdmissionQueue, ShedExpiredHonoursMargin) {
  AdmissionQueue queue(8);
  (void)queue.push(entry("expired", AdmissionClass::kNew, 1500, 0));
  (void)queue.push(entry("alive", AdmissionClass::kNew, 5000, 1));
  (void)queue.push(entry("forever", AdmissionClass::kNew, 0, 2));
  std::vector<AdmissionEntry> shed;
  EXPECT_EQ(queue.shed_expired(1000, 1000, shed), 1u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].graph.id(), "expired");
  EXPECT_EQ(queue.size(), 2u);
}

// -- lifecycle against a fake substrate ------------------------------------

/// Fake substrate with a scriptable per-push outcome sequence: each apply()
/// pops the next scripted result (success once the script is drained), so
/// a test can fail exactly the pushes it means to — e.g. the merged wave
/// but not the restore after it.
class ScriptedAdapter final : public adapters::DomainAdapter {
 public:
  ScriptedAdapter() {
    view_ = model::Nffg{"infra-view"};
    EXPECT_TRUE(
        view_.add_bisbis(model::make_bisbis("bb", {16, 16384, 200}, 4)).ok());
    model::attach_sap(view_, "sap1", "bb", 0, {1000, 0.1});
    model::attach_sap(view_, "sap2", "bb", 1, {1000, 0.1});
  }
  void script(std::vector<Result<void>> outcomes) {
    for (auto& outcome : outcomes) script_.push_back(std::move(outcome));
  }
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg&) override {
    if (script_.empty()) return Result<void>::success();
    Result<void> next = std::move(script_.front());
    script_.pop_front();
    return next;
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }

 private:
  std::string name_ = "infra";
  model::Nffg view_;
  std::deque<Result<void>> script_;
};

constexpr auto kOk = [] { return Result<void>::success(); };
Result<void> fail(ErrorCode code) { return Error{code, "scripted failure"}; }

/// The push sequence of one failed singleton wave: the push fails, the
/// restore lands — the request's result carries `code`.
std::vector<Result<void>> singleton_wave_failure(ErrorCode code) {
  return {fail(code), kOk()};
}

/// Service layer directly over the scripted fake: failure codes injected
/// below are exactly what the lifecycle sees.
struct LifecycleStack {
  explicit LifecycleStack(const AdmissionPolicy& policy = {}) {
    auto scripted = std::make_unique<ScriptedAdapter>();
    fake = scripted.get();
    layer = std::make_unique<ServiceLayer>(std::move(scripted));
    layer->set_admission_policy(policy);
    layer->set_health_source([this] { return below; });
  }
  ScriptedAdapter* fake = nullptr;
  std::unique_ptr<ServiceLayer> layer;
  BelowHealth below;
};

sg::ServiceGraph chain(const std::string& id) {
  return sg::make_chain(id, "sap1", {"nat"}, "sap2", 5, 500);
}

TEST(AdmissionLifecycle, EnqueuePumpDeploys) {
  LifecycleStack stack;
  ASSERT_TRUE(stack.layer->enqueue(chain("a"), 1000).ok());
  ASSERT_TRUE(stack.layer->enqueue(chain("b"), 1200).ok());
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kQueued);
  EXPECT_EQ(stack.layer->queue_depth(), 2u);

  const PumpReport report = stack.layer->pump(5000);
  EXPECT_EQ(report.dispatched, 2u);
  EXPECT_EQ(report.deployed, 2u);
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kDeployed);
  EXPECT_EQ(stack.layer->requests().at("b").state, RequestState::kDeployed);
  EXPECT_EQ(stack.layer->queue_depth(), 0u);
  // Sim-time queue wait is recorded: 4ms and 3.8ms.
  const auto* latency =
      stack.layer->metrics().find_summary("service.admission.latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_DOUBLE_EQ(latency->percentile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(latency->percentile(0.0), 3.8);
}

TEST(AdmissionLifecycle, DuplicateActiveIdRejectedTerminalReusable) {
  LifecycleStack stack;
  ASSERT_TRUE(stack.layer->enqueue(chain("a"), 0).ok());
  const auto dup = stack.layer->enqueue(chain("a"), 0);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::kAlreadyExists);
  (void)stack.layer->pump(100);
  ASSERT_TRUE(stack.layer->remove("a").ok());
  // A removed request leaves the books: the id is reusable.
  EXPECT_TRUE(stack.layer->enqueue(chain("a"), 200).ok());
}

TEST(AdmissionLifecycle, ShedsBeforeDeadlineViolation) {
  AdmissionPolicy policy;
  policy.dispatch_margin_us = 1000;
  LifecycleStack stack(policy);
  AdmissionOptions tight;
  tight.deadline = 1500;
  ASSERT_TRUE(stack.layer->enqueue(chain("tight"), 0, tight).ok());
  AdmissionOptions loose;
  loose.deadline = 50'000;
  ASSERT_TRUE(stack.layer->enqueue(chain("loose"), 0, loose).ok());

  // At t=1000 the tight deadline (1500) is inside the dispatch margin: it
  // can no longer land in time, so it is shed, never deployed late.
  const PumpReport report = stack.layer->pump(1000);
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(report.deployed, 1u);
  EXPECT_EQ(stack.layer->requests().at("tight").state, RequestState::kShed);
  EXPECT_EQ(stack.layer->requests().at("loose").state,
            RequestState::kDeployed);
  EXPECT_EQ(stack.layer->metrics().counter("service.admission.shed_deadline"),
            1u);
}

TEST(AdmissionLifecycle, QueueBoundShedsLowestClassFirst) {
  AdmissionPolicy policy;
  policy.queue_capacity = 2;
  LifecycleStack stack(policy);
  ASSERT_TRUE(stack.layer->enqueue(chain("n1"), 0).ok());
  ASSERT_TRUE(stack.layer->enqueue(chain("n2"), 0).ok());
  // Same class into a full queue: the newcomer itself is shed.
  const auto rejected = stack.layer->enqueue(chain("n3"), 0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(stack.layer->requests().at("n3").state, RequestState::kShed);
  // A heal-class arrival displaces queued kNew work instead.
  AdmissionOptions heal;
  heal.klass = AdmissionClass::kHeal;
  ASSERT_TRUE(stack.layer->enqueue(chain("h1"), 0, heal).ok());
  EXPECT_EQ(stack.layer->queue_depth(), 2u);
  EXPECT_EQ(stack.layer->requests().at("n2").state, RequestState::kShed);
  EXPECT_EQ(stack.layer->requests().at("h1").state, RequestState::kQueued);
  EXPECT_EQ(
      stack.layer->metrics().counter("service.admission.shed_displaced"), 1u);
}

TEST(AdmissionLifecycle, TransientFailureParksThenHealthTransitionRetries) {
  LifecycleStack stack;
  ASSERT_TRUE(stack.layer->enqueue(chain("a"), 0).ok());
  stack.fake->script(singleton_wave_failure(ErrorCode::kUnavailable));
  PumpReport report = stack.layer->pump(1000);
  EXPECT_EQ(report.postponed, 1u);
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kPostponed);
  EXPECT_EQ(stack.layer->parked_count(), 1u);

  // Same fingerprint, backstop not reached: stays parked.
  report = stack.layer->pump(2000);
  EXPECT_EQ(report.requeued, 0u);
  EXPECT_EQ(stack.layer->parked_count(), 1u);

  // Health transition below: re-queued and deployed the same pump.
  stack.below.fingerprint = 99;
  report = stack.layer->pump(3000);
  EXPECT_EQ(report.requeued, 1u);
  EXPECT_EQ(report.deployed, 1u);
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kDeployed);
  EXPECT_EQ(stack.layer->parked_count(), 0u);
}

TEST(AdmissionLifecycle, CapacityFailureParksOnlyWhileImpaired) {
  LifecycleStack healthy;
  ASSERT_TRUE(healthy.layer->enqueue(chain("a"), 0).ok());
  healthy.fake->script(singleton_wave_failure(ErrorCode::kInfeasible));
  PumpReport report = healthy.layer->pump(1000);
  // Healthy substrate: an infeasible answer is final.
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(healthy.layer->requests().at("a").state, RequestState::kFailed);

  LifecycleStack impaired;
  impaired.below.impaired = true;
  ASSERT_TRUE(impaired.layer->enqueue(chain("a"), 0).ok());
  impaired.fake->script(singleton_wave_failure(ErrorCode::kInfeasible));
  report = impaired.layer->pump(1000);
  // Impaired substrate: the masked capacity may come back — park.
  EXPECT_EQ(report.postponed, 1u);
  EXPECT_EQ(impaired.layer->requests().at("a").state,
            RequestState::kPostponed);
}

TEST(AdmissionLifecycle, PostponeBackstopRetriesWithoutHealthSource) {
  AdmissionPolicy policy;
  policy.postpone_retry_pumps = 2;
  LifecycleStack stack(policy);
  ASSERT_TRUE(stack.layer->enqueue(chain("a"), 0).ok());
  stack.fake->script(singleton_wave_failure(ErrorCode::kUnavailable));
  (void)stack.layer->pump(1000);
  ASSERT_EQ(stack.layer->parked_count(), 1u);
  (void)stack.layer->pump(2000);  // 1 pump parked: below the backstop
  EXPECT_EQ(stack.layer->parked_count(), 1u);
  const PumpReport report = stack.layer->pump(3000);  // backstop reached
  EXPECT_EQ(report.requeued, 1u);
  EXPECT_EQ(report.deployed, 1u);
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kDeployed);
}

TEST(AdmissionLifecycle, DeadlineTicksWhileParked) {
  AdmissionPolicy policy;
  policy.postpone_retry_pumps = 0;  // no backstop: health transitions only
  LifecycleStack stack(policy);
  AdmissionOptions options;
  options.deadline = 10'000;
  ASSERT_TRUE(stack.layer->enqueue(chain("a"), 0, options).ok());
  stack.fake->script(singleton_wave_failure(ErrorCode::kUnavailable));
  (void)stack.layer->pump(1000);
  ASSERT_EQ(stack.layer->requests().at("a").state, RequestState::kPostponed);
  // Parked past its deadline: shed, not retried.
  const PumpReport report = stack.layer->pump(20'000);
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(stack.layer->requests().at("a").state, RequestState::kShed);
  EXPECT_EQ(stack.layer->parked_count(), 0u);
}

TEST(AdmissionLifecycle, RemoveBatchCancelsQueuedAndTearsDownDeployed) {
  LifecycleStack stack;
  ASSERT_TRUE(stack.layer->enqueue(chain("deployed"), 0).ok());
  (void)stack.layer->pump(1000);
  ASSERT_EQ(stack.layer->requests().at("deployed").state,
            RequestState::kDeployed);
  ASSERT_TRUE(stack.layer->enqueue(chain("queued"), 2000).ok());

  const auto results =
      stack.layer->remove_batch({"deployed", "queued", "ghost"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].error().code, ErrorCode::kNotFound);
  EXPECT_EQ(stack.layer->requests().count("deployed"), 0u);
  EXPECT_EQ(stack.layer->requests().count("queued"), 0u);
  EXPECT_EQ(stack.layer->queue_depth(), 0u);
  EXPECT_EQ(stack.layer->metrics().counter("service.admission.cancelled"),
            1u);
  EXPECT_EQ(stack.layer->metrics().counter("service.batch.removed"), 1u);
}

TEST(AdmissionLifecycle, PumpDispatchesHealClassFirst) {
  AdmissionPolicy policy;
  policy.max_wave = 1;  // one dispatch per pump: order becomes observable
  LifecycleStack stack(policy);
  ASSERT_TRUE(stack.layer->enqueue(chain("new"), 0).ok());
  AdmissionOptions heal;
  heal.klass = AdmissionClass::kHeal;
  ASSERT_TRUE(stack.layer->enqueue(chain("heal"), 100, heal).ok());

  (void)stack.layer->pump(1000);
  EXPECT_EQ(stack.layer->requests().at("heal").state, RequestState::kDeployed);
  EXPECT_EQ(stack.layer->requests().at("new").state, RequestState::kQueued);
  (void)stack.layer->pump(2000);
  EXPECT_EQ(stack.layer->requests().at("new").state, RequestState::kDeployed);
}

}  // namespace
}  // namespace unify::service
