// Wire-chaos soak (DESIGN.md §14): 100 concurrent Unify manager sessions
// against one child virtualizer, every client transport wrapped in a
// FaultTransport drawing resets, send-side blackholes, mid-frame
// truncations and latency jitter from a per-session seeded schedule.
// Invariants:
//   - every session converges: each operation either matches the fault-free
//     golden bytes or fails cleanly (kUnavailable / kTimeout) and succeeds
//     on a later attempt — zero wedged sessions, also after ~10 s of
//     simulated idle time in which the heartbeats run;
//   - no leaked pending calls on any surviving peer;
//   - the child's final state is byte-identical to a fault-free run;
//   - a rerun under the same seed replays bit-identically (schedules,
//     failure and heartbeat counts, final bytes).
// Everything runs over SimClock channels, so the whole soak — timeouts,
// backoff, jitter, heartbeats — is deterministic. WIRE_SEED overrides the
// seeds:
//
//   WIRE_SEED=1234 ctest -L wire_chaos --output-on-failure
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/config_translate.h"
#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "proto/fault_transport.h"
#include "support/seed_env.h"

namespace unify::core {
namespace {

constexpr int kSessions = 100;
constexpr std::uint64_t kDefaultSeed = 20260809;

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

model::Nffg leaf_view(const std::string& bb, const std::string& sap1,
                      const std::string& sap2) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 4, 0.05)).ok());
  model::attach_sap(g, sap1, bb, 0, {1000, 0.1});
  model::attach_sap(g, sap2, bb, 1, {1000, 0.1});
  return g;
}

struct LeafDomain {
  explicit LeafDomain(const std::string& name) {
    ro = std::make_unique<ResourceOrchestrator>(
        name, std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    EXPECT_TRUE(
        ro->add_domain(std::make_unique<AcceptAllAdapter>(
                           name + "-infra",
                           leaf_view(name + "-bb", name + "-sap", "xp")))
            .ok());
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<Virtualizer>(
        *ro, ViewPolicy::kSingleBisBis, name + ".big");
  }
  std::unique_ptr<ResourceOrchestrator> ro;
  std::unique_ptr<Virtualizer> virtualizer;
};

/// The hostile profile of the soak. No byte corruption here: over a real
/// wire the TCP checksum absorbs it, and a corrupted-but-valid config
/// would legitimately diverge the child — the corruption path is covered
/// by the proto unit/property tests instead.
proto::FaultProfile soak_profile() {
  proto::FaultProfile profile;
  profile.reset_rate = 0.02;
  profile.blackhole_rate = 0.01;
  profile.truncate_rate = 0.01;
  profile.latency_us = 50;
  profile.jitter_us = 200;
  return profile;
}

/// Everything one chaos run produces, for golden + replay comparison.
struct RunOutcome {
  std::string child_final;  ///< the child RO's global view, serialized
  std::vector<std::vector<proto::FaultKind>> schedules;  ///< per session
  std::uint64_t faults = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t clean_failures = 0;
  bool converged = false;
};

RunOutcome run_chaos(std::uint64_t seed, const proto::FaultProfile& profile,
                     const std::string& golden_initial,
                     const std::string& golden_after,
                     const model::Nffg& desired) {
  RunOutcome outcome;
  SimClock clock;
  proto::SimDriver driver(clock);
  LeafDomain leaf("leaf");

  // Per-session seeded injectors: schedules are session-local, so the
  // interleaving of other sessions cannot shift a session's fault pattern.
  std::vector<std::shared_ptr<proto::FaultInjector>> injectors;
  std::vector<std::unique_ptr<UnifyServer>> servers;
  std::vector<std::shared_ptr<proto::Endpoint>> server_ends;
  std::vector<std::unique_ptr<UnifyClientAdapter>> managers;
  for (int i = 0; i < kSessions; ++i) {
    injectors.push_back(std::make_shared<proto::FaultInjector>(
        profile,
        seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i + 1))));
    auto factory =
        [&, i]() -> Result<std::shared_ptr<proto::Transport>> {
      auto [north, south] = proto::make_channel_pair(clock, 100);
      server_ends.push_back(south);
      servers.push_back(std::make_unique<UnifyServer>(
          *leaf.virtualizer, south, "s" + std::to_string(i)));
      return std::static_pointer_cast<proto::Transport>(
          proto::FaultTransport::wrap(
              north, injectors[static_cast<std::size_t>(i)]));
    };
    managers.push_back(std::make_unique<UnifyClientAdapter>(
        "leaf", driver, std::move(factory), /*rpc_timeout_us=*/200'000));
  }

  // Drives one operation across all sessions in retry rounds: a failed
  // attempt must be a clean transient, and every session must eventually
  // succeed — anything else is a wedge.
  bool all_converged = true;
  auto drive = [&](const char* what,
                   const std::function<Result<void>(int)>& op) {
    std::vector<bool> done(kSessions, false);
    int remaining = kSessions;
    for (int round = 0; round < 400 && remaining > 0; ++round) {
      for (int i = 0; i < kSessions; ++i) {
        if (done[static_cast<std::size_t>(i)]) continue;
        const auto attempt = op(i);
        if (attempt.ok()) {
          done[static_cast<std::size_t>(i)] = true;
          --remaining;
          continue;
        }
        ++outcome.clean_failures;
        EXPECT_TRUE(attempt.error().code == ErrorCode::kUnavailable ||
                    attempt.error().code == ErrorCode::kTimeout)
            << what << " session " << i
            << " failed uncleanly: " << attempt.error().to_string();
      }
      clock.advance(100'000);  // reconnect backoffs run out here
    }
    EXPECT_EQ(remaining, 0) << what << ": wedged sessions";
    all_converged = all_converged && remaining == 0;
  };

  drive("fetch-initial", [&](int i) -> Result<void> {
    auto view = managers[static_cast<std::size_t>(i)]->fetch_view();
    if (!view.ok()) return view.error();
    EXPECT_EQ(model::to_json(*view).dump(), golden_initial)
        << "session " << i << " read diverged bytes";
    return Result<void>::success();
  });
  drive("edit-config", [&](int i) -> Result<void> {
    return managers[static_cast<std::size_t>(i)]->apply(desired);
  });
  const auto fetch_after = [&](int i) -> Result<void> {
    auto view = managers[static_cast<std::size_t>(i)]->fetch_view();
    if (!view.ok()) return view.error();
    EXPECT_EQ(model::to_json(*view).dump(), golden_after)
        << "session " << i << " post-edit bytes diverged";
    return Result<void>::success();
  };
  drive("fetch-final", fetch_after);
  // Idle: only the heartbeats talk, and over a faulty wire some of them
  // miss and force reconnects. The sessions must still converge after.
  for (int step = 0; step < 100; ++step) clock.advance(100'000);
  drive("fetch-after-idle", fetch_after);

  for (int i = 0; i < kSessions; ++i) {
    const auto& session = managers[static_cast<std::size_t>(i)]->session();
    if (const auto* peer = session.peer()) {
      // A heartbeat ping may be waiting out its deadline; nothing else.
      EXPECT_EQ(peer->pending_calls(), session.ping_in_flight() ? 1u : 0u)
          << "session " << i << " leaked pending calls";
    }
    outcome.reconnects += session.reconnects();
    outcome.heartbeats_sent += session.heartbeats_sent();
    outcome.heartbeat_misses += session.heartbeat_misses();
    outcome.schedules.push_back(
        injectors[static_cast<std::size_t>(i)]->schedule());
    outcome.faults +=
        injectors[static_cast<std::size_t>(i)]->faults_injected();
  }
  outcome.child_final = model::to_json(leaf.ro->global_view()).dump();
  outcome.converged = all_converged;
  return outcome;
}

TEST(WireChaos, HundredFaultySessionsConvergeAndReplayBitIdentically) {
  // Golden bytes from the plain in-memory channel path (no faults).
  std::string golden_initial, golden_after;
  model::Nffg desired{"desired"};
  {
    SimClock clock;
    LeafDomain leaf("leaf");
    auto adapter = make_unify_link(*leaf.virtualizer, clock, "leaf");
    auto view = adapter->fetch_view();
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    golden_initial = model::to_json(*view).dump();
    const sg::ServiceGraph sg =
        sg::make_chain("svc", "leaf-sap", {"nat"}, "xp", 10, 100);
    auto translated = service_graph_to_config(sg, *view, "leaf.big");
    ASSERT_TRUE(translated.ok()) << translated.error().to_string();
    desired = *translated;
    ASSERT_TRUE(adapter->apply(desired).ok());
    auto after = adapter->fetch_view();
    ASSERT_TRUE(after.ok());
    golden_after = model::to_json(*after).dump();
  }
  ASSERT_NE(golden_initial, golden_after);

  // Fault-free reference for the child's final state under 100 sessions.
  const RunOutcome clean = run_chaos(0, proto::FaultProfile{},
                                     golden_initial, golden_after, desired);
  ASSERT_TRUE(clean.converged);
  ASSERT_EQ(clean.faults, 0u);
  EXPECT_GT(clean.heartbeats_sent, 0u);
  EXPECT_EQ(clean.heartbeat_misses, 0u);

  for (const std::uint64_t seed :
       test::soak_seeds("WIRE_SEED", {kDefaultSeed})) {
    UNIFY_SEED_TRACE("WIRE_SEED", seed);
    const RunOutcome first =
        run_chaos(seed, soak_profile(), golden_initial, golden_after,
                  desired);
    ASSERT_TRUE(first.converged);
    // The profile actually bit: faults fired and sessions reconnected,
    // yet the child ended byte-identical to the fault-free run.
    EXPECT_GT(first.faults, 0u);
    EXPECT_GT(first.reconnects, 0u);
    EXPECT_GT(first.heartbeats_sent, 0u);
    if (seed == kDefaultSeed) {
      // The faults reached the heartbeat too (other seeds may be kinder).
      EXPECT_GT(first.heartbeat_misses, 0u);
    }
    EXPECT_EQ(first.child_final, clean.child_final);

    // Bit-identical replay under the fixed seed: same fault schedules,
    // same failure and heartbeat counts, same final bytes.
    const RunOutcome second =
        run_chaos(seed, soak_profile(), golden_initial, golden_after,
                  desired);
    EXPECT_EQ(first.schedules, second.schedules);
    EXPECT_EQ(first.clean_failures, second.clean_failures);
    EXPECT_EQ(first.heartbeats_sent, second.heartbeats_sent);
    EXPECT_EQ(first.heartbeat_misses, second.heartbeat_misses);
    EXPECT_EQ(first.child_final, second.child_final);
  }
}

}  // namespace
}  // namespace unify::core
