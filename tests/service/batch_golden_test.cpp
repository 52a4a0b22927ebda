// Golden equivalence: submitting the Fig. 1 demo services as ONE batch
// must leave the orchestration stack in a byte-identical state to
// submitting them one by one — same deployed NFFG (serialized JSON), same
// per-request mappings, same data-plane behaviour — and cost one
// edit-config, failed members included. This pins the whole batch
// pipeline (service layer wave -> merged edit-config -> virtualizer
// component wave -> RO map_batch -> per-element causes) to the sequential
// semantics.
#include <gtest/gtest.h>

#include "model/nffg_json.h"
#include "service/fig1.h"

namespace unify::service {
namespace {

/// The demo waves: three modest chains on distinct routes (no resource
/// contention), ids chosen so the virtualizer's deterministic component
/// order matches the submission order.
std::vector<sg::ServiceGraph> demo_services() {
  return {
      sg::make_chain("a", "sap1", {"firewall", "nat"}, "sap2", 50, 40),
      sg::make_chain("b", "sap2", {"nat"}, "sap3", 20, 60),
      sg::make_chain("c", "sap3", {"monitor"}, "sap1", 10, 60),
  };
}

void settle(Fig1Stack& s) {
  s.clock.run_until_idle();
  ASSERT_TRUE(s.ro->sync_statuses().ok());
  s.clock.run_until_idle();
}

TEST(BatchGolden, BatchEqualsSequentialByteForByte) {
  const auto services = demo_services();

  // Reference: one submit() per service, in order.
  auto sequential = make_fig1_stack();
  ASSERT_TRUE(sequential.ok());
  Fig1Stack& seq = **sequential;
  for (const sg::ServiceGraph& service : services) {
    const auto result = seq.service_layer->submit(service);
    ASSERT_TRUE(result.ok())
        << service.id() << ": " << result.error().to_string();
  }
  settle(seq);

  // Candidate: the same services as one wave.
  auto batched = make_fig1_stack();
  ASSERT_TRUE(batched.ok());
  Fig1Stack& bat = **batched;
  const std::uint64_t edits_before = bat.virtualizer->edits();
  const auto results = bat.service_layer->submit_batch(services);
  ASSERT_EQ(results.size(), services.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << services[i].id() << ": " << results[i].error().to_string();
    EXPECT_EQ(*results[i], services[i].id());
  }
  settle(bat);

  // The deployed global NFFG serializes byte-identically.
  EXPECT_EQ(model::to_json_string(bat.ro->global_view()),
            model::to_json_string(seq.ro->global_view()));

  // Same deployments with byte-identical mappings.
  ASSERT_EQ(bat.ro->deployments().size(), seq.ro->deployments().size());
  for (const auto& [id, deployment] : seq.ro->deployments()) {
    const auto it = bat.ro->deployments().find(id);
    ASSERT_NE(it, bat.ro->deployments().end()) << id;
    EXPECT_EQ(it->second.mapping, deployment.mapping) << id;
  }

  // Both stacks carry traffic end to end on every route, and every
  // request reports the SAME readiness (status semantics are per-domain;
  // equivalence, not absolute readiness, is what batch must preserve).
  for (Fig1Stack* s : {&seq, &bat}) {
    for (const auto& [from, to] : std::vector<std::pair<std::string,
                                                        std::string>>{
             {"sap1", "sap2"}, {"sap2", "sap3"}, {"sap3", "sap1"}}) {
      ASSERT_TRUE(end_to_end_trace(*s, from, to).ok()) << from << "->" << to;
    }
  }
  for (const sg::ServiceGraph& service : services) {
    const auto seq_ready = seq.service_layer->is_ready(service.id());
    const auto bat_ready = bat.service_layer->is_ready(service.id());
    ASSERT_TRUE(seq_ready.ok() && bat_ready.ok()) << service.id();
    EXPECT_EQ(*bat_ready, *seq_ready) << service.id();
  }

  // The wave committed in one push, with no rollbacks.
  EXPECT_EQ(bat.virtualizer->edits() - edits_before, 1u);
  telemetry::Registry& m = bat.service_layer->metrics();
  EXPECT_EQ(m.counter("service.batch.requests"), services.size());
  EXPECT_EQ(m.counter("service.batch.admitted"), services.size());
  EXPECT_EQ(m.counter("service.batch.committed"), services.size());
  EXPECT_EQ(m.counter("service.batch.rolled_back"), 0u);
  ASSERT_NE(m.find_summary("service.batch.wall_ms"), nullptr);

  // Removing the batch-deployed services restores a pristine plane, just
  // like sequential removal does.
  for (Fig1Stack* s : {&seq, &bat}) {
    for (const sg::ServiceGraph& service : services) {
      ASSERT_TRUE(s->service_layer->remove(service.id()).ok()) << service.id();
    }
    s->clock.run_until_idle();
    EXPECT_EQ(s->ro->global_view().stats().nf_count, 0u);
    EXPECT_EQ(s->ro->global_view().stats().flowrule_count, 0u);
  }
  EXPECT_EQ(model::to_json_string(bat.ro->global_view()),
            model::to_json_string(seq.ro->global_view()));
}

TEST(BatchGolden, MixedOutcomeBatchMatchesSequentialSubmits) {
  // A wave with an invalid member (unknown SAP) and an infeasible member
  // (absurd bandwidth): per-request outcomes and the final deployed state
  // must match what a sequential submit() loop produces.
  std::vector<sg::ServiceGraph> services = demo_services();
  services.push_back(
      sg::make_chain("d", "sap1", {"nat"}, "no-such-sap", 10, 60));
  services.push_back(sg::make_chain("e", "sap2", {"nat"}, "sap1", 1e9, 60));

  auto sequential = make_fig1_stack();
  ASSERT_TRUE(sequential.ok());
  Fig1Stack& seq = **sequential;
  std::vector<bool> seq_ok;
  for (const sg::ServiceGraph& service : services) {
    seq_ok.push_back(seq.service_layer->submit(service).ok());
  }
  seq.clock.run_until_idle();

  auto batched = make_fig1_stack();
  ASSERT_TRUE(batched.ok());
  Fig1Stack& bat = **batched;
  const std::uint64_t edits_before = bat.virtualizer->edits();
  const auto results = bat.service_layer->submit_batch(services);
  bat.clock.run_until_idle();

  ASSERT_EQ(results.size(), seq_ok.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ok(), seq_ok[i]) << services[i].id();
  }
  EXPECT_EQ(model::to_json_string(bat.ro->global_view()),
            model::to_json_string(seq.ro->global_view()));

  // Same bookkeeping as sequential: the validation reject ("d") is never
  // recorded, the commit-time failure ("e") is recorded as failed.
  EXPECT_EQ(bat.service_layer->requests().count("d"), 0u);
  const auto it = bat.service_layer->requests().find("e");
  ASSERT_NE(it, bat.service_layer->requests().end());
  EXPECT_EQ(it->second.state, RequestState::kFailed);
  EXPECT_FALSE(it->second.error.empty());
  telemetry::Registry& m = bat.service_layer->metrics();
  EXPECT_EQ(m.counter("service.batch.requests"), services.size());
  EXPECT_EQ(m.counter("service.batch.admitted"), services.size() - 1);
  EXPECT_EQ(m.counter("service.batch.committed"), 3u);
  EXPECT_EQ(m.counter("service.batch.rolled_back"), 1u);
  // The infeasible member was named by the one edit-config's causes.
  EXPECT_EQ(bat.virtualizer->edits() - edits_before, 1u);
}

TEST(BatchGolden, PoisonedWaveCostsOneEditConfigAndMatchesSequential) {
  // A larger wave with poison scattered through it: two infeasible members
  // (absurd bandwidth) at non-adjacent positions. The one edit-config
  // commits the seven that map and names the two that do not; outcomes
  // and final state must be byte-identical to a sequential submit() loop.
  const std::vector<std::pair<std::string, std::string>> routes{
      {"sap1", "sap2"}, {"sap2", "sap3"}, {"sap3", "sap1"}};
  std::vector<sg::ServiceGraph> services;
  for (int i = 0; i < 9; ++i) {
    const auto& [from, to] = routes[static_cast<std::size_t>(i) % 3];
    const double bandwidth = (i == 2 || i == 6) ? 1e9 : 5;
    services.push_back(sg::make_chain("w" + std::to_string(i), from,
                                      {i % 2 == 0 ? "nat" : "monitor"}, to,
                                      bandwidth, 60));
  }

  auto sequential = make_fig1_stack();
  ASSERT_TRUE(sequential.ok());
  Fig1Stack& seq = **sequential;
  std::vector<bool> seq_ok;
  for (const sg::ServiceGraph& service : services) {
    seq_ok.push_back(seq.service_layer->submit(service).ok());
  }
  seq.clock.run_until_idle();

  auto batched = make_fig1_stack();
  ASSERT_TRUE(batched.ok());
  Fig1Stack& bat = **batched;
  const std::uint64_t edits_before = bat.virtualizer->edits();
  const auto results = bat.service_layer->submit_batch(services);
  bat.clock.run_until_idle();

  // Per-request outcome parity with the sequential loop: exactly the two
  // poisonous members fail.
  ASSERT_EQ(results.size(), seq_ok.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ok(), seq_ok[i]) << services[i].id();
    if (!results[i].ok()) ++failed;
  }
  EXPECT_EQ(failed, 2u);

  // Byte-identical deployed state, byte-identical mappings.
  EXPECT_EQ(model::to_json_string(bat.ro->global_view()),
            model::to_json_string(seq.ro->global_view()));
  ASSERT_EQ(bat.ro->deployments().size(), seq.ro->deployments().size());
  for (const auto& [id, deployment] : seq.ro->deployments()) {
    const auto it = bat.ro->deployments().find(id);
    ASSERT_NE(it, bat.ro->deployments().end()) << id;
    EXPECT_EQ(it->second.mapping, deployment.mapping) << id;
  }

  // One edit-config for the whole wave, no retries, and the bookkeeping
  // adds up (7 committed, 2 rolled back).
  EXPECT_EQ(bat.virtualizer->edits() - edits_before, 1u);
  telemetry::Registry& m = bat.service_layer->metrics();
  EXPECT_EQ(m.counter("service.batch.committed"), 7u);
  EXPECT_EQ(m.counter("service.batch.rolled_back"), 2u);

  // The failed members are recorded exactly like sequential failures.
  for (const std::string id : {"w2", "w6"}) {
    const auto it = bat.service_layer->requests().find(id);
    ASSERT_NE(it, bat.service_layer->requests().end());
    EXPECT_EQ(it->second.state, RequestState::kFailed);
    EXPECT_EQ(it->second.error,
              seq.service_layer->requests().at(id).error);
  }
}

}  // namespace
}  // namespace unify::service
