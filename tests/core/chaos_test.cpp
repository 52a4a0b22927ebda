// Chaos soak for the domain health subsystem: a seeded schedule of
// service waves, removals, transient fault bursts, domain kills,
// recoveries and healing passes runs against the full stack (service
// layer -> unify link -> virtualizer -> RO -> faulty domains), with
// structural invariants checked after every step. The schedule is
// deterministic per seed — each adapter sees a serial operation stream,
// so fault injection points are reproducible — and the whole soak is
// asserted to reach the same final state when replayed.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "service/service_layer.h"
#include "support/seed_env.h"
#include "util/rng.h"

namespace unify::core {
namespace {

/// Accept-all domain that replays the last accepted slice.
class RecordingAdapter final : public adapters::DomainAdapter {
 public:
  RecordingAdapter(std::string name, model::Nffg view)
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
    // Make-before-break: no slice this domain is ever asked to accept may
    // overcommit its capacity — the RO installs replacements before it
    // releases old placements, never the other way round.
    for (const auto& [bb_id, bb] : desired.bisbis()) {
      const model::Resources res = bb.residual();
      EXPECT_GE(res.cpu, -1e-9) << name_ << ": " << bb_id << " overcommitted";
      EXPECT_GE(res.mem, -1e-9) << name_ << ": " << bb_id << " overcommitted";
      EXPECT_GE(res.storage, -1e-9)
          << name_ << ": " << bb_id << " overcommitted";
    }
    last_applied_ = desired;
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applies_;
  }

 private:
  std::string name_;
  model::Nffg view_;
  model::Nffg last_applied_;
  std::uint64_t applies_ = 0;
};

/// Domain i of an n-domain line: customer SAP sap<i>, stitch SAPs
/// x<i-1>/x<i> towards the neighbours.
model::Nffg chaos_domain_view(std::size_t i, std::size_t n) {
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

struct ChaosStack {
  SimClock clock;
  std::unique_ptr<ResourceOrchestrator> ro;
  std::unique_ptr<Virtualizer> virtualizer;
  std::unique_ptr<service::ServiceLayer> layer;
  std::vector<adapters::FaultyAdapter*> faults;
  std::size_t domains = 0;
};

ChaosStack make_chaos_stack(std::size_t n) {
  ChaosStack stack;
  stack.domains = n;
  stack.ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  for (std::size_t i = 0; i < n; ++i) {
    auto faulty = std::make_unique<adapters::FaultyAdapter>(
        std::make_unique<RecordingAdapter>("d" + std::to_string(i),
                                           chaos_domain_view(i, n)));
    stack.faults.push_back(faulty.get());
    EXPECT_TRUE(stack.ro->add_domain(std::move(faulty)).ok());
  }
  EXPECT_TRUE(stack.ro->initialize().ok());
  stack.virtualizer =
      std::make_unique<Virtualizer>(*stack.ro, ViewPolicy::kSingleBisBis);
  stack.layer = std::make_unique<service::ServiceLayer>(
      make_unify_link(*stack.virtualizer, stack.clock, "north"));
  return stack;
}

/// Structural invariants that must hold after EVERY chaos step, whatever
/// mix of faults, kills and heals preceded it. `books_clean` says whether
/// the service layer's last configuration push landed: after a failed
/// rollback the layer itself reports (via kRollbackFailed) that its books
/// may diverge from the layers below until the next successful push, so
/// the cross-layer invariant is only enforced outside that window.
void check_invariants(ChaosStack& stack, bool books_clean) {
  const model::Nffg& view = stack.ro->global_view();
  // 1. Deployment books match the view: every mapped NF (degraded
  //    deployments included — they are kept, not torn down) is installed
  //    at its recorded host.
  for (const auto& [id, dep] : stack.ro->deployments()) {
    for (const auto& [nf_id, host] : dep.mapping.nf_host) {
      const model::BisBis* bb = view.find_bisbis(host);
      ASSERT_NE(bb, nullptr) << "deployment " << id << " host " << host;
      EXPECT_EQ(bb->nfs.count(nf_id), 1u)
          << "deployment " << id << ": NF " << nf_id << " missing on "
          << host;
    }
  }
  // 2. Mask consistency: a domain behind an open circuit advertises zero
  //    capacity, a healthy one its full capacity — independent of the
  //    order kills and recoveries interleaved.
  for (std::size_t i = 0; i < stack.domains; ++i) {
    const model::BisBis* bb =
        view.find_bisbis("bb" + std::to_string(i));
    ASSERT_NE(bb, nullptr);
    EXPECT_EQ(bb->capacity.cpu, stack.ro->health().admits(i) ? 32 : 0)
        << "domain " << i << " capacity vs circuit state";
  }
  // 3. Link reservations never go negative (double release / lost
  //    rollback would show up here first).
  for (const auto& [id, link] : view.links()) {
    EXPECT_GE(link.reserved, -1e-9) << "link " << id;
  }
  // 4. Make-before-break: surviving (admitted) domains are never
  //    overcommitted — heal installs a replacement before releasing the
  //    old placement, so residual capacity stays non-negative even with a
  //    heal pass in the step just executed.
  for (std::size_t i = 0; i < stack.domains; ++i) {
    if (!stack.ro->health().admits(i)) continue;
    const model::BisBis* bb = view.find_bisbis("bb" + std::to_string(i));
    ASSERT_NE(bb, nullptr);
    const model::Resources res = bb->residual();
    EXPECT_GE(res.cpu, -1e-9) << "domain " << i << " cpu overcommitted";
    EXPECT_GE(res.mem, -1e-9) << "domain " << i << " mem overcommitted";
    EXPECT_GE(res.storage, -1e-9)
        << "domain " << i << " storage overcommitted";
  }
  // 5. Service books point at real state: an active (deployed or
  //    degraded) request keeps all its NFs installed below.
  if (!books_clean) return;
  for (const auto& [id, request] : stack.layer->requests()) {
    if (request.state != service::RequestState::kDeployed &&
        request.state != service::RequestState::kDegraded) {
      continue;
    }
    for (const auto& [nf_id, nf] : request.graph.nfs()) {
      EXPECT_TRUE(view.find_nf(id + "." + nf_id).has_value())
          << "request " << id << ": NF " << nf_id << " lost below";
    }
  }
}

/// Fingerprint of the externally observable end state, used to assert the
/// soak is deterministic per seed.
std::string state_signature(ChaosStack& stack) {
  std::ostringstream out;
  for (const auto& [id, request] : stack.layer->requests()) {
    out << id << '=' << service::to_string(request.state) << ';';
  }
  for (std::size_t i = 0; i < stack.domains; ++i) {
    out << 'd' << i << '=' << to_string(stack.ro->health().health(i)) << ';';
  }
  out << "deployments=" << stack.ro->deployments().size();
  return out.str();
}

std::string run_soak(std::uint64_t seed, int steps) {
  ChaosStack stack = make_chaos_stack(3);
  Rng rng(seed);
  int next_id = 0;
  bool books_clean = true;
  const std::vector<std::string> nf_types{"nat", "fw-lite", "dpi"};

  for (int step = 0; step < steps; ++step) {
    switch (rng.next_below(8)) {
      case 0:
      case 1: {  // a wave of 1..3 new services
        std::vector<sg::ServiceGraph> wave;
        const std::size_t count = 1 + rng.next_below(3);
        for (std::size_t i = 0; i < count; ++i) {
          const std::string from =
              "sap" + std::to_string(rng.next_below(stack.domains));
          std::string to =
              "sap" + std::to_string(rng.next_below(stack.domains));
          if (to == from) to = "sap" + std::to_string((rng.next_below(2) + 1));
          wave.push_back(sg::make_chain(
              "svc" + std::to_string(next_id++), from,
              {nf_types[next_id % nf_types.size()]}, to, 5, 500));
        }
        const auto results = stack.layer->submit_batch(wave);
        bool any_rollback_failed = false;
        bool any_pushed = false;
        for (const auto& result : results) {
          if (result.ok()) any_pushed = true;
          if (!result.ok() &&
              result.error().code == ErrorCode::kRollbackFailed) {
            any_rollback_failed = true;
          }
        }
        // A kRollbackFailed anywhere means the layer knows its books may
        // diverge; a successful commit means the full merged config landed.
        if (any_rollback_failed) {
          books_clean = false;
        } else if (any_pushed) {
          books_clean = true;
        }
        break;
      }
      case 2: {  // remove a random active service
        std::vector<std::string> active;
        for (const auto& [id, request] : stack.layer->requests()) {
          if (request.state == service::RequestState::kDeployed ||
              request.state == service::RequestState::kDegraded) {
            active.push_back(id);
          }
        }
        if (!active.empty()) {
          const auto removed =
              stack.layer->remove(active[rng.next_below(active.size())]);
          if (removed.ok()) {
            books_clean = true;
          } else if (removed.error().code != ErrorCode::kNotFound) {
            books_clean = false;  // push failed mid-removal
          }
        }
        break;
      }
      case 3: {  // transient fault burst on one domain
        stack.faults[rng.next_below(stack.domains)]->fail_next(
            1 + static_cast<int>(rng.next_below(2)));
        break;
      }
      case 4: {  // hard-kill a domain: circuit open, probes keep failing
        const std::size_t victim = rng.next_below(stack.domains);
        stack.faults[victim]->set_failure_rate(1.0);
        (void)stack.ro->open_circuit("d" + std::to_string(victim), "chaos");
        break;
      }
      case 5: {  // a dead domain comes back to life
        stack.faults[rng.next_below(stack.domains)]->set_failure_rate(0.0);
        break;
      }
      case 6: {  // healing pass: probe, re-embed, readmit
        const std::size_t placed_before = stack.ro->deployments().size();
        const auto healed = stack.ro->heal();
        if (!healed.ok()) {
          ADD_FAILURE() << "heal: " << healed.error().to_string();
          return "aborted";
        }
        // Make-before-break: a heal pass never reduces the placed-service
        // count.
        EXPECT_GE(stack.ro->deployments().size(), placed_before);
        break;
      }
      case 7: {  // status reconciliation up the stack
        (void)stack.ro->sync_statuses();  // survivors only; may still fail
        const auto degraded = stack.layer->sync_health();
        if (!degraded.ok()) {
          ADD_FAILURE() << "sync_health: " << degraded.error().to_string();
          return "aborted";
        }
        break;
      }
    }
    check_invariants(stack, books_clean);
    if (::testing::Test::HasFatalFailure()) return "aborted";
  }

  // Quiesce: clear every fault and heal until all circuits close — the
  // system must always recover once the world stops burning.
  for (adapters::FaultyAdapter* fault : stack.faults) {
    fault->fail_next(0);
    fault->set_failure_rate(0.0);
  }
  for (int round = 0; round < 4 && stack.ro->health().any_open(); ++round) {
    const std::size_t placed_before = stack.ro->deployments().size();
    const auto healed = stack.ro->heal();
    if (!healed.ok()) {
      ADD_FAILURE() << "final heal: " << healed.error().to_string();
      return "aborted";
    }
    EXPECT_GE(stack.ro->deployments().size(), placed_before);
  }
  EXPECT_FALSE(stack.ro->health().any_open());
  EXPECT_TRUE(stack.layer->sync_health().ok());
  // Reconcile: one successful push (a removal re-pushes the full merged
  // config) re-deploys anything lost in an acknowledged divergence window,
  // after which the strict cross-layer invariant must hold again.
  std::vector<std::string> active;
  for (const auto& [id, request] : stack.layer->requests()) {
    if (request.state == service::RequestState::kDeployed ||
        request.state == service::RequestState::kDegraded) {
      active.push_back(id);
    }
  }
  if (!active.empty()) {
    const auto removed = stack.layer->remove(active.front());
    EXPECT_TRUE(removed.ok()) << removed.error().to_string();
    books_clean = removed.ok();
  }
  check_invariants(stack, books_clean);
  if (::testing::Test::HasFatalFailure()) return "aborted";
  return state_signature(stack);
}

TEST(Chaos, SeededSoakHoldsInvariants) {
  for (const std::uint64_t seed :
       unify::test::soak_seeds("CHAOS_SEED", {11, 23, 47})) {
    UNIFY_SEED_TRACE("CHAOS_SEED", seed);
    const std::string signature = run_soak(seed, 80);
    ASSERT_NE(signature, "aborted") << "seed " << seed;
  }
}

TEST(Chaos, SoakIsDeterministicPerSeed) {
  const std::uint64_t seed =
      unify::test::soak_seeds("CHAOS_SEED", {7}).front();
  UNIFY_SEED_TRACE("CHAOS_SEED", seed);
  const std::string first = run_soak(seed, 60);
  ASSERT_NE(first, "aborted");
  EXPECT_EQ(first, run_soak(seed, 60));
}

}  // namespace
}  // namespace unify::core
