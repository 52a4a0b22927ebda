// Domain health subsystem: circuit-breaker state machine, push/fetch
// gating, view capacity masking, the healing pass (re-embedding stranded
// services onto survivors) and readmission resync (DESIGN.md §10).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/health_manager.h"
#include "core/resource_orchestrator.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "model/nffg_merge.h"

namespace unify::core {
namespace {

constexpr auto kUnavailable = ErrorCode::kUnavailable;

// --------------------------------------------------- HealthManager (unit)

HealthManager make_manager(HealthPolicy policy = {}) {
  HealthManager manager;
  manager.reset(policy, {"d0", "d1"});
  return manager;
}

TEST(HealthManager, TransientFailuresOpenCircuitAtThreshold) {
  HealthManager m = make_manager();
  const Error err{kUnavailable, "boom"};
  EXPECT_FALSE(m.record_failure(0, err));
  EXPECT_EQ(m.health(0), DomainHealth::kDegraded);
  EXPECT_TRUE(m.admits(0));
  EXPECT_FALSE(m.record_failure(0, err));
  // The third consecutive transient failure trips the breaker.
  EXPECT_TRUE(m.record_failure(0, err));
  EXPECT_EQ(m.health(0), DomainHealth::kDown);
  EXPECT_FALSE(m.admits(0));
  EXPECT_EQ(m.record(0).circuit_opens, 1u);
  // The other domain is untouched.
  EXPECT_EQ(m.health(1), DomainHealth::kHealthy);
  EXPECT_EQ(m.open_circuits(), std::vector<std::size_t>{0});
}

TEST(HealthManager, NonTransientErrorsProveLivenessAndResetStreak) {
  HealthManager m = make_manager();
  const Error transient{kUnavailable, "down?"};
  EXPECT_FALSE(m.record_failure(0, transient));
  EXPECT_FALSE(m.record_failure(0, transient));
  // A rejection means the domain answered: streak resets, no circuit.
  EXPECT_FALSE(m.record_failure(0, Error{ErrorCode::kRejected, "no"}));
  EXPECT_FALSE(m.record_failure(0, transient));
  EXPECT_FALSE(m.record_failure(0, transient));
  EXPECT_TRUE(m.admits(0));
  m.record_success(0);
  EXPECT_EQ(m.health(0), DomainHealth::kHealthy);
  EXPECT_EQ(m.record(0).consecutive_failures, 0);
}

TEST(HealthManager, ProbeCycleHalfOpensAndCloses) {
  HealthManager m = make_manager();
  EXPECT_TRUE(m.open_circuit(0, "operator drain"));
  EXPECT_FALSE(m.open_circuit(0, "again"));  // already open
  m.begin_probe(0);
  EXPECT_EQ(m.health(0), DomainHealth::kProbing);
  EXPECT_FALSE(m.admits(0));  // half-open still excluded from fan-outs
  m.probe_failed(0, Error{kUnavailable, "still dead"});
  EXPECT_EQ(m.health(0), DomainHealth::kDown);
  EXPECT_EQ(m.record(0).probe_failures, 1u);
  m.begin_probe(0);
  m.close_circuit(0);
  EXPECT_EQ(m.health(0), DomainHealth::kHealthy);
  EXPECT_TRUE(m.admits(0));
  EXPECT_FALSE(m.any_open());
}

TEST(HealthManager, ObservationsAgainstOpenCircuitDoNotDoubleCount) {
  HealthManager m = make_manager();
  EXPECT_TRUE(m.open_circuit(0, "dead"));
  EXPECT_FALSE(m.record_failure(0, Error{kUnavailable, "late echo"}));
  m.record_success(0);  // a stray success cannot short the probe protocol
  EXPECT_EQ(m.health(0), DomainHealth::kDown);
  EXPECT_EQ(m.record(0).circuit_opens, 1u);
}

TEST(HealthManager, ProbeBackoffEscalatesCapsAndResets) {
  HealthPolicy policy;
  policy.probe_backoff_initial = 1;
  policy.probe_backoff_multiplier = 2.0;
  policy.probe_backoff_cap = 4;
  HealthManager m = make_manager(policy);
  const Error err{kUnavailable, "flap"};

  // First transient failure arms a 1-pass cooldown: skip one heal pass,
  // then due again.
  EXPECT_FALSE(m.record_failure(0, err));
  EXPECT_EQ(m.health(0), DomainHealth::kDegraded);
  EXPECT_FALSE(m.should_probe(0));
  EXPECT_TRUE(m.should_probe(0));

  // A success while degraded resets the ladder entirely.
  m.record_success(0);
  EXPECT_EQ(m.record(0).probe_backoff, 0);
  EXPECT_TRUE(m.should_probe(0));

  // Trip the breaker, then fail probes: each failure doubles the window
  // up to the cap.
  ASSERT_TRUE(m.open_circuit(0, "dead"));
  m.begin_probe(0);
  m.probe_failed(0, err);  // backoff 1
  EXPECT_FALSE(m.should_probe(0));
  EXPECT_TRUE(m.should_probe(0));
  m.begin_probe(0);
  m.probe_failed(0, err);  // backoff 2
  EXPECT_FALSE(m.should_probe(0));
  EXPECT_FALSE(m.should_probe(0));
  EXPECT_TRUE(m.should_probe(0));
  m.begin_probe(0);
  m.probe_failed(0, err);  // backoff 4
  m.begin_probe(0);
  m.probe_failed(0, err);  // capped: stays 4
  EXPECT_EQ(m.record(0).probe_backoff, 4);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(m.should_probe(0));
  EXPECT_TRUE(m.should_probe(0));

  // Readmission (close_circuit) wipes the history.
  m.begin_probe(0);
  m.close_circuit(0);
  EXPECT_EQ(m.record(0).probe_backoff, 0);
  EXPECT_TRUE(m.should_probe(0));

  // The untouched domain never defers.
  EXPECT_TRUE(m.should_probe(1));
}

TEST(HealthManager, ProbeBackoffDisabledByDefault) {
  HealthManager m = make_manager();  // probe_backoff_initial == 0
  const Error err{kUnavailable, "flap"};
  (void)m.record_failure(0, err);
  m.probe_failed(0, err);
  // Historical behaviour: a probe on every heal pass.
  EXPECT_TRUE(m.should_probe(0));
  EXPECT_TRUE(m.should_probe(0));
  EXPECT_EQ(m.record(0).probe_backoff, 0);
}

TEST(HealthManager, DisabledPolicyNeverOpensPassively) {
  HealthPolicy policy;
  policy.enabled = false;
  HealthManager m = make_manager(policy);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(m.record_failure(0, Error{kUnavailable, "x"}));
  }
  EXPECT_TRUE(m.admits(0));
  // Forced opens still work with passive breaking disabled.
  EXPECT_TRUE(m.open_circuit(0, "drain"));
  EXPECT_FALSE(m.admits(0));
}

// ----------------------------------------------------- RO fixture helpers

/// Fake domain that counts applies and keeps the last accepted slice.
class CountingAdapter final : public adapters::DomainAdapter {
 public:
  CountingAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}

  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    if (applies_ == 0) return view_;
    return last_applied_;
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
/// x<i-1> / x<i> towards the neighbours.
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
  std::vector<adapters::FaultyAdapter*> faults;
};

LineStack make_line_ro(std::size_t n, RoOptions options = {}) {
  LineStack stack;
  stack.ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog(), options);
  for (std::size_t i = 0; i < n; ++i) {
    auto counting = std::make_unique<CountingAdapter>(
        "d" + std::to_string(i), line_domain_view(i, n));
    stack.domains.push_back(counting.get());
    auto faulty = std::make_unique<adapters::FaultyAdapter>(std::move(counting));
    stack.faults.push_back(faulty.get());
    EXPECT_TRUE(stack.ro->add_domain(std::move(faulty)).ok());
  }
  EXPECT_TRUE(stack.ro->initialize().ok());
  return stack;
}

sg::ServiceGraph span_chain(const std::string& id, std::size_t from,
                            std::size_t to, const std::string& nf = "nat") {
  return sg::make_chain(id, "sap" + std::to_string(from), {nf},
                        "sap" + std::to_string(to), 10, 500);
}

// --------------------------------------------------- passive circuit open

TEST(DomainHealth, RepeatedTransientPushFailuresOpenTheCircuit) {
  LineStack stack = make_line_ro(2);
  ASSERT_TRUE(stack.ro->deploy(span_chain("svc", 0, 1)).ok());

  stack.faults[0]->fail_next(100, kUnavailable);
  // Each failed deploy counts two observations against d0 (the commit
  // push and the rollback push); the default threshold (3) trips during
  // the second deploy's commit push.
  EXPECT_FALSE(stack.ro->deploy(span_chain("b", 0, 1, "dpi")).ok());
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kDegraded);
  EXPECT_FALSE(stack.ro->deploy(span_chain("b", 0, 1, "dpi")).ok());
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kDown);
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.circuit_opens"), 1u);

  // Masked: bb0 advertises zero capacity, links touching it carry zero
  // bandwidth, so new embeddings route around the dead domain.
  const model::BisBis* bb0 = stack.ro->global_view().find_bisbis("bb0");
  EXPECT_EQ(bb0->capacity.cpu, 0);
  for (const model::Link* link : stack.ro->global_view().links_of("bb0")) {
    EXPECT_EQ(link->attrs.bandwidth, 0.0);
  }

  // Down domains leave the fan-out: pushes succeed again (gated, no
  // retry storm), and d0 sees no further operations.
  const std::uint64_t ops_before = stack.faults[0]->operations_seen();
  ASSERT_TRUE(stack.ro->resync_domains().ok());
  EXPECT_EQ(stack.faults[0]->operations_seen(), ops_before);
  EXPECT_GE(stack.ro->metrics().counter("ro.health.pushes_gated"), 1u);
}

TEST(DomainHealth, ForcedOpenGatesFetchesAndRefresh) {
  LineStack stack = make_line_ro(2);
  ASSERT_TRUE(stack.ro->open_circuit("d0", "operator drain").ok());
  EXPECT_EQ(stack.ro->open_circuit("d0", "again").error().code,
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(stack.ro->open_circuit("nope", "x").error().code,
            ErrorCode::kNotFound);

  // sync_statuses succeeds for the survivors and never touches d0.
  const std::uint64_t ops_before = stack.faults[0]->operations_seen();
  EXPECT_TRUE(stack.ro->sync_statuses().ok());
  EXPECT_EQ(stack.faults[0]->operations_seen(), ops_before);
  // refresh_domain refuses a domain behind an open circuit.
  EXPECT_EQ(stack.ro->refresh_domain("d0").error().code, kUnavailable);
}

// ------------------------------------------------------ kill-a-domain e2e

TEST(DomainHealth, KillADomainHealsRecoverableAndDegradesStranded) {
  LineStack stack = make_line_ro(3);
  // "rec": SAPs on the survivors, NF pinned onto bb0 — recoverable once
  // bb0 dies because only its NF (not an endpoint) lives there.
  ASSERT_TRUE(stack.ro
                  ->deploy_pinned(span_chain("rec", 1, 2, "nat"),
                                  {{"nat0", "bb0"}})
                  .ok());
  // "unrec": endpoint SAP sap0 is wired to bb0 — unrecoverable while d0
  // is down, whatever host its NF got.
  ASSERT_TRUE(stack.ro->deploy(span_chain("unrec", 0, 1, "dpi")).ok());
  // "ok": lives entirely on the survivors.
  ASSERT_TRUE(stack.ro->deploy(span_chain("ok", 1, 2, "fw-lite")).ok());
  ASSERT_EQ(stack.ro->deployments().at("rec").mapping.nf_host.at("nat0"),
            "bb0");

  ASSERT_TRUE(stack.ro->open_circuit("d0", "killed by test").ok());
  stack.faults[0]->set_failure_rate(1.0);  // probes fail: domain stays dead

  const auto healed = stack.ro->heal();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->still_down, std::vector<std::string>{"d0"});
  EXPECT_TRUE(healed->readmitted.empty());
  EXPECT_EQ(healed->healed, std::vector<std::string>{"rec"});
  EXPECT_EQ(healed->degraded, std::vector<std::string>{"unrec"});

  // "rec" was re-embedded onto a survivor.
  const auto& rec = stack.ro->deployments().at("rec");
  EXPECT_NE(rec.mapping.nf_host.at("nat0"), "bb0");
  EXPECT_FALSE(rec.degraded);
  // "unrec" is kept — degraded, not torn down — and marked failed.
  const auto& unrec = stack.ro->deployments().at("unrec");
  EXPECT_TRUE(unrec.degraded);
  ASSERT_TRUE(stack.ro->nf_status("dpi0").has_value());
  EXPECT_EQ(*stack.ro->nf_status("dpi0"), model::NfStatus::kFailed);
  // "ok" never moved.
  EXPECT_FALSE(stack.ro->deployments().at("ok").degraded);
  EXPECT_EQ(stack.ro->deployments().size(), 3u);

  // The healing pass is idempotent while the domain stays dead: "rec" is
  // already safe, "unrec" is retried and stays degraded.
  const auto again = stack.ro->heal();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->healed.empty());
  EXPECT_EQ(again->degraded, std::vector<std::string>{"unrec"});
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.probe_failures"), 2u);
}

TEST(DomainHealth, ReadmissionUnmasksRecoversAndResyncsByteConsistently) {
  LineStack stack = make_line_ro(3);
  ASSERT_TRUE(stack.ro->deploy(span_chain("unrec", 0, 1, "dpi")).ok());
  ASSERT_TRUE(stack.ro->open_circuit("d0", "killed").ok());
  stack.faults[0]->set_failure_rate(1.0);
  ASSERT_TRUE(stack.ro->heal().ok());  // degrades "unrec", probe fails
  ASSERT_TRUE(stack.ro->deployments().at("unrec").degraded);

  // The domain comes back: probe succeeds, capacity is unmasked, the
  // degraded service recovers (its placement was intact all along) and the
  // returned domain is resynced to a byte-consistent slice.
  stack.faults[0]->set_failure_rate(0.0);
  const auto healed = stack.ro->heal();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->readmitted, std::vector<std::string>{"d0"});
  EXPECT_EQ(healed->recovered, std::vector<std::string>{"unrec"});
  EXPECT_FALSE(healed->resync_error.has_value());

  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kHealthy);
  EXPECT_FALSE(stack.ro->deployments().at("unrec").degraded);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->capacity.cpu, 32);
  for (const model::Link* link : stack.ro->global_view().links_of("bb0")) {
    EXPECT_GT(link->attrs.bandwidth, 0.0);
  }
  // Byte-consistent readmission: what d0 acknowledged IS its slice of the
  // current global view.
  EXPECT_EQ(model::to_json(stack.domains[0]->last_applied()).dump(),
            model::to_json(
                model::slice_for_domain(stack.ro->global_view(), "d0"))
                .dump());
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.circuit_closes"), 1u);
}

TEST(DomainHealth, HealWithAdjacentDomainsDownRestoresBothOnReadmission) {
  LineStack stack = make_line_ro(3);
  // Adjacent domains down: the shared inter-domain link is masked by both.
  ASSERT_TRUE(stack.ro->open_circuit("d0", "x").ok());
  ASSERT_TRUE(stack.ro->open_circuit("d1", "x").ok());
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->capacity.cpu, 0);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb1")->capacity.cpu, 0);

  // Readmit in the opposite order; wholesale remasking must restore the
  // original capacities and bandwidths exactly (no mask-order corruption).
  const auto healed = stack.ro->heal();
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->readmitted.size(), 2u);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->capacity.cpu, 32);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb1")->capacity.cpu, 32);
  const model::Link* xd = stack.ro->global_view().find_link("xd-x0");
  ASSERT_NE(xd, nullptr);
  EXPECT_EQ(xd->attrs.bandwidth, 1000.0);
}

TEST(DomainHealth, EmbeddingRoutesAroundDownDomain) {
  LineStack stack = make_line_ro(3);
  ASSERT_TRUE(stack.ro->open_circuit("d2", "dead edge").ok());
  // sap2 hangs off the dead bb2: no path, mapping must refuse instead of
  // landing work on a domain that cannot be programmed.
  EXPECT_FALSE(stack.ro->deploy(span_chain("far", 0, 2)).ok());
  // A chain over the survivors still deploys, and never onto bb2.
  ASSERT_TRUE(stack.ro->deploy(span_chain("near", 0, 1)).ok());
  EXPECT_NE(stack.ro->deployments().at("near").mapping.nf_host.at("nat0"),
            "bb2");
}

// ------------------------------------------------- health-aware embedding

TEST(DomainHealth, FlakyDomainDrainsAndRebalancesOnRecovery) {
  LineStack stack = make_line_ro(2);
  // One transient fetch failure against d0: degraded (streak 1), circuit
  // still closed, capacity NOT masked — only the embedding cost is biased.
  stack.faults[0]->fail_next(1, kUnavailable);
  EXPECT_FALSE(stack.ro->sync_statuses().ok());
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kDegraded);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->health_penalty, 4.0);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->capacity.cpu, 32);

  // A sap0->sap1 chain traverses the same links whether its NF lands on
  // bb0 or bb1 (equal true cost); the health bias drains the flaky domain.
  ASSERT_TRUE(stack.ro->deploy(span_chain("a", 0, 1, "nat")).ok());
  EXPECT_EQ(stack.ro->deployments().at("a").mapping.nf_host.at("nat0"),
            "bb1");

  // The successful push just proved d0 alive again: penalty cleared, and
  // the next equal-cost chain re-balances back onto bb0 (id tie-break).
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kHealthy);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->health_penalty, 0.0);
  ASSERT_TRUE(stack.ro->deploy(span_chain("b", 0, 1, "dpi")).ok());
  EXPECT_EQ(stack.ro->deployments().at("b").mapping.nf_host.at("dpi0"),
            "bb0");
  // The circuit never opened: draining happened strictly below the breaker.
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.circuit_opens"), 0u);
}

TEST(DomainHealth, HealProbesDegradedDomainsAndClearsPenalty) {
  LineStack stack = make_line_ro(2);
  stack.faults[0]->fail_next(1, kUnavailable);
  EXPECT_FALSE(stack.ro->sync_statuses().ok());
  ASSERT_EQ(stack.ro->health().health(0), DomainHealth::kDegraded);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->health_penalty, 4.0);

  // heal() liveness-probes degraded (not just down) domains: the passing
  // probe resets the streak, so the cost bias clears without waiting for
  // the next real push to d0.
  const auto healed = stack.ro->heal();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kHealthy);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->health_penalty, 0.0);
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.probes"), 1u);
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.probe_failures"), 0u);

  // A probe that fails transiently feeds the same streak instead.
  stack.faults[0]->fail_next(2, kUnavailable);
  EXPECT_FALSE(stack.ro->sync_statuses().ok());  // degraded again (streak 1)
  const auto again = stack.ro->heal();           // probe fails: streak 2
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(stack.ro->health().health(0), DomainHealth::kDegraded);
  EXPECT_EQ(stack.ro->global_view().find_bisbis("bb0")->health_penalty, 8.0);
  EXPECT_EQ(stack.ro->metrics().counter("ro.health.probe_failures"), 1u);
}

}  // namespace
}  // namespace unify::core
