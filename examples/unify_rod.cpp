// unify_rod: the resource-orchestration daemon — a real RO process on a
// real wire. The paper's recursive Unify interface (get-config /
// edit-config) served over TCP by the epoll reactor, plus the matching
// load generator.
//
//   ./unify_rod serve [port]
//       Assembles the Fig. 1 multi-domain stack and serves its virtualizer
//       northbound. Every TCP connection is an independent manager session
//       over the shared orchestrator (port defaults to 47000; 0 picks an
//       ephemeral port, printed on stdout). Runs until killed.
//
//   ./unify_rod load <host> <port> [sessions] [rpcs_per_session]
//                    [--faults[=seed]]
//       Opens N concurrent manager sessions and drives M RPCs through each
//       (alternating get-config and converged edit-config), closed-loop
//       per session. Reports throughput, p50/p99 round-trip latency and a
//       per-session failure table; exits non-zero unless every session
//       completed its full RPC budget. --faults wraps every client
//       transport in a seeded FaultTransport (resets, blackholes, jitter)
//       to demo the failure accounting against a healthy server.
//
// Smoke test on one machine:  ./unify_rod serve 47000 &
//                             ./unify_rod load 127.0.0.1 47000 100 20
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/unify_api.h"
#include "proto/fault_transport.h"
#include "proto/net/reactor.h"
#include "proto/net/tcp.h"
#include "proto/resilient_session.h"
#include "proto/rpc.h"
#include "service/fig1.h"

using namespace unify;

namespace {

int serve(std::uint16_t port) {
  auto stack = service::make_fig1_stack();
  if (!stack.ok()) {
    std::fprintf(stderr, "stack assembly failed: %s\n",
                 stack.error().to_string().c_str());
    return 1;
  }
  core::Virtualizer& virtualizer = *(*stack)->virtualizer;

  proto::net::Reactor reactor;
  std::map<std::uint64_t, std::unique_ptr<core::UnifyServer>> sessions;
  std::uint64_t next_session = 0;

  auto listener = proto::net::TcpListener::listen(
      reactor, "0.0.0.0", port,
      [&](std::shared_ptr<proto::net::TcpTransport> conn) {
        const std::uint64_t id = next_session++;
        std::printf("session %llu: %s connected (%zu live)\n",
                    static_cast<unsigned long long>(id),
                    conn->peer_name().c_str(), sessions.size() + 1);
        auto server = std::make_unique<core::UnifyServer>(
            virtualizer, std::move(conn), "session-" + std::to_string(id));
        server->on_disconnect([&reactor, &sessions, id] {
          // Deferred one tick: the hook runs inside the transport's close
          // callback; the session object dies outside it.
          reactor.schedule(0, [&sessions, id] {
            sessions.erase(id);
            std::printf("session %llu: hangup (%zu live)\n",
                        static_cast<unsigned long long>(id), sessions.size());
          });
        });
        sessions.emplace(id, std::move(server));
      });
  if (!listener.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 listener.error().to_string().c_str());
    return 1;
  }
  std::printf("unify_rod serving the Fig.1 orchestrator on port %u\n",
              (*listener)->port());
  std::fflush(stdout);
  for (;;) reactor.poll(-1);
}

/// The --faults demo profile: enough resets and blackholes that a 100x20
/// run visibly loses sessions, plus jitter to spread the RTT tail.
proto::FaultProfile demo_fault_profile() {
  proto::FaultProfile profile;
  profile.reset_rate = 0.01;
  profile.blackhole_rate = 0.005;
  profile.latency_us = 100;
  profile.jitter_us = 1'000;
  return profile;
}

int load(const std::string& host, std::uint16_t port, int session_count,
         int rpcs_per_session, bool inject_faults,
         std::uint64_t fault_seed) {
  using WallClock = std::chrono::steady_clock;

  proto::net::Reactor reactor;
  struct Session {
    std::unique_ptr<proto::ResilientSession> wire;
    json::Value config;  // fetched once, re-pushed by edit-config calls
    int done = 0;
    int failures = 0;
    int retries_left = 0;  ///< shared budget across seeding and firing
    bool active = false;   ///< still owes RPCs and has retries left
    std::string last_error;
    WallClock::time_point sent_at;
  };
  std::vector<Session> sessions(static_cast<std::size_t>(session_count));
  std::size_t index = 0;
  for (auto& session : sessions) {
    // Reconnecting, heartbeating sessions: each owns a factory so a server
    // restart or an injected reset heals transparently, and its name seeds
    // its own backoff jitter — the closed loop below only sees a transient
    // kUnavailable it retries. The fault injector persists across
    // incarnations, so --faults keeps biting reconnected transports.
    std::shared_ptr<proto::FaultInjector> injector;
    if (inject_faults) {
      injector = std::make_shared<proto::FaultInjector>(demo_fault_profile(),
                                                        fault_seed + index);
    }
    auto factory = [&reactor, host, port,
                    injector]() -> Result<std::shared_ptr<proto::Transport>> {
      auto conn = proto::net::TcpTransport::connect(reactor, host, port);
      if (!conn.ok()) return conn.error();
      std::shared_ptr<proto::Transport> wire = std::move(*conn);
      if (injector != nullptr) {
        wire = proto::FaultTransport::wrap(std::move(wire), injector);
      }
      return wire;
    };
    session.wire = std::make_unique<proto::ResilientSession>(
        "load-" + std::to_string(index), reactor, std::move(factory));
    session.retries_left = 5 * rpcs_per_session;
    ++index;
  }

  // Seed every session with the child's current config — the payload the
  // edit-config half of the mix pushes back (a converged no-op for the
  // orchestrator, full parse/serialize cost for the wire). Seeding retries
  // through the session's reconnect loop: under --faults a first-frame
  // reset is expected traffic, not a dead session.
  for (auto& session : sessions) {
    while (session.retries_left > 0) {
      auto reply = session.wire->call_and_wait(
          "get-config", json::Value{json::Object{}},
          /*timeout_us=*/5'000'000);
      if (reply.ok()) {
        session.config = *reply;
        break;
      }
      --session.retries_left;
      ++session.failures;
      session.last_error = reply.error().to_string();
      reactor.poll(10);  // give the reconnect backoff a chance to land
    }
  }

  std::vector<double> rtts_us;
  rtts_us.reserve(static_cast<std::size_t>(session_count) *
                  static_cast<std::size_t>(rpcs_per_session));
  int active = 0;

  // Closed loop per session: completion of one RPC fires the next, so
  // `session_count` requests are always concurrently on the wire. Every
  // call carries a deadline so a blackholed frame cannot wedge the loop; a
  // failed call burns a retry and re-fires after a pause long enough for
  // the session's reconnect to land, instead of abandoning the session.
  std::function<void(Session&)> fire = [&](Session& session) {
    const auto retry_or_abandon = [&](const Error& error) {
      ++session.failures;
      session.last_error = error.to_string();
      if (session.retries_left-- > 0) {
        reactor.schedule(20'000, [&] { fire(session); });
      } else {
        session.active = false;
        --active;
      }
    };
    const bool edit = (session.done % 2) == 1;
    json::Value params = json::Value{json::Object{}};
    if (edit) {
      json::Object p;
      p.set("config", *session.config.get("config"));
      params = json::Value{std::move(p)};
    }
    session.sent_at = WallClock::now();
    const auto sent = session.wire->call(
        edit ? "edit-config" : "get-config", std::move(params),
        [&, retry_or_abandon](Result<json::Value> reply) {
          if (!reply.ok()) {
            retry_or_abandon(reply.error());
            return;
          }
          rtts_us.push_back(std::chrono::duration<double, std::micro>(
                                WallClock::now() - session.sent_at)
                                .count());
          if (++session.done < rpcs_per_session) {
            fire(session);
          } else {
            session.active = false;
            --active;
          }
        },
        /*timeout_us=*/5'000'000);
    if (!sent.ok()) retry_or_abandon(sent.error());
  };

  const auto started = WallClock::now();
  for (auto& session : sessions) {
    if (session.config.is_object()) {
      session.active = true;
      ++active;
      fire(session);
    }
  }
  while (active > 0) reactor.poll(100);
  const double elapsed_s =
      std::chrono::duration<double>(WallClock::now() - started).count();

  // Per-session accounting: a dropped session must never pass silently —
  // anything short of its full RPC budget fails the run.
  int total_failures = 0;
  int incomplete = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& session = sessions[i];
    total_failures += session.failures;
    if (session.done < rpcs_per_session) {
      ++incomplete;
      std::fprintf(stderr,
                   "session %zu: incomplete %d/%d rpcs, %d failures, "
                   "%d retries left, active=%d (%s)\n",
                   i, session.done, rpcs_per_session, session.failures,
                   session.retries_left, session.active ? 1 : 0,
                   session.last_error.empty() ? "no error recorded"
                                              : session.last_error.c_str());
    }
  }

  std::printf(
      "sessions=%d rpcs/session=%d completed=%zu failures=%d "
      "incomplete_sessions=%d%s\n",
      session_count, rpcs_per_session, rtts_us.size(), total_failures,
      incomplete, inject_faults ? " (fault injection on)" : "");
  if (rtts_us.empty()) {
    std::fprintf(stderr, "no RPC completed\n");
    return 1;
  }
  std::sort(rtts_us.begin(), rtts_us.end());
  const auto pct = [&](double p) {
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(rtts_us.size() - 1));
    return rtts_us[at];
  };
  std::printf("throughput: %.0f rpc/s over %.2f s\n",
              static_cast<double>(rtts_us.size()) / elapsed_s, elapsed_s);
  std::printf("rtt: p50=%.0f us  p99=%.0f us  max=%.0f us\n", pct(0.50),
              pct(0.99), rtts_us.back());
  // Transient failures that the retry loop healed are expected traffic
  // (especially under --faults); only an exhausted session fails the run.
  return incomplete == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "serve") {
    const int port = argc > 2 ? std::atoi(argv[2]) : 47000;
    return serve(static_cast<std::uint16_t>(port));
  }
  if (mode == "load" && argc > 3) {
    bool faults = false;
    std::uint64_t fault_seed = 0x5eed;
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--faults") {
        faults = true;
      } else if (arg.rfind("--faults=", 0) == 0) {
        faults = true;
        fault_seed = std::strtoull(arg.c_str() + 9, nullptr, 10);
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() >= 2) {
      const std::string host = positional[0];
      const int port = std::atoi(positional[1].c_str());
      const int sessions =
          positional.size() > 2 ? std::atoi(positional[2].c_str()) : 100;
      const int rpcs =
          positional.size() > 3 ? std::atoi(positional[3].c_str()) : 20;
      return load(host, static_cast<std::uint16_t>(port), sessions, rpcs,
                  faults, fault_seed);
    }
  }
  std::fprintf(stderr,
               "usage: %s serve [port]\n"
               "       %s load <host> <port> [sessions] [rpcs_per_session]"
               " [--faults[=seed]]\n",
               argv[0], argv[0]);
  return 2;
}
