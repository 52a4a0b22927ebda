// The Unify interface: the recursive resource-programming RPC between a
// manager and a virtualizer (paper: "The recursive interface is the Unify
// interface").
//
// Methods (JSON-RPC over a framed transport):
//   get-config   {}                      -> {"config": <NFFG>, "tag": <tag>}
//                {"if-none-match": <tag>} -> {"unchanged": true} when <tag>
//                                           is Virtualizer::config_tag(),
//                                           else the full reply above
//   edit-config  {"config": <NFFG>}      -> {"accepted": <version>}
//                {"if-match": <version>,  -> {"accepted": <version>} when
//                 "delta": <NffgDelta>}      <version> is Virtualizer::
//                                           accepted_version(), else
//                                           {"stale": true}, nothing applied
//
// get-config is conditional (DESIGN.md §13): a caller that sends the tag
// of the reply it holds gets "unchanged" instead of a fresh render. A
// server without it ignores the param and omits "tag"; a client without
// it sends none; either way the full reply flows.
//
// edit-config is conditional too: a caller that holds the config the
// server last accepted, and its version, sends only the delta from it
// (model/nffg_delta.h); the server rebuilds the full config from its own
// accepted copy and edits with that. A client sends a delta only after a
// reply that named a version, so a server without conditional edits only
// ever sees full configs, and a client without them ignores "accepted".
//
// UnifyServer exposes a Virtualizer northbound. UnifyClientAdapter makes a
// remote UNIFY domain look like any other DomainAdapter to the RO above —
// the recursion point of the architecture. Both are transport-agnostic
// (proto/transport.h): make_unify_link wires a child virtualizer over an
// in-memory channel, while examples/unify_rod.cpp serves the same
// UnifyServer over real TCP connections.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adapters/domain_adapter.h"
#include "core/virtualizer.h"
#include "proto/channel.h"
#include "proto/resilient_session.h"
#include "proto/rpc.h"

namespace unify::core {

class UnifyServer {
 public:
  /// Serves `virtualizer` on `transport`. The virtualizer must outlive the
  /// server.
  UnifyServer(Virtualizer& virtualizer,
              std::shared_ptr<proto::Transport> transport, std::string name);

  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return peer_.requests_handled();
  }
  /// Fires once when the session's transport closes (remote hangup or
  /// local disconnect) — the hook for connection-scoped server cleanup.
  void on_disconnect(std::function<void()> fn) {
    peer_.on_disconnect(std::move(fn));
  }

 private:
  Virtualizer* virtualizer_;
  proto::RpcPeer peer_;
};

class UnifyClientAdapter final : public adapters::DomainAdapter {
 public:
  /// Single-shot session: no redial and no heartbeat, so it dies with
  /// `transport` and leaves a SimClock idle between calls.
  UnifyClientAdapter(std::string domain_name,
                     std::shared_ptr<proto::Transport> transport,
                     SimTime rpc_timeout_us = 0);

  /// Survivable session: connects through `factory`, redials with backoff
  /// after any disconnect and heartbeats while idle
  /// (proto/resilient_session.h). While the session is between transports
  /// every operation fails with a transient kUnavailable — the push retry
  /// policy and the epoch+hash dirty tracking above turn that into a cheap
  /// full resync after reconnect. Heartbeat verdicts and reconnect
  /// outcomes stream through on_liveness(); wire them to
  /// ResourceOrchestrator::note_domain_liveness so a silent partition
  /// trips the breaker at heartbeat speed.
  UnifyClientAdapter(std::string domain_name, proto::Driver& driver,
                     proto::ResilientSession::TransportFactory factory,
                     SimTime rpc_timeout_us = 0);

  [[nodiscard]] const std::string& domain() const noexcept override {
    return domain_;
  }
  /// get-config, conditional on the last reply: sends the tag of a kept
  /// config as "if-none-match" and decodes the kept config when the server
  /// answers "unchanged". A config is kept (moved out of its reply) on the
  /// first tagged reply, after a hit, or when the tag repeats the last
  /// one. Nothing is kept from a reply without a tag, and nothing survives
  /// a reconnect.
  [[nodiscard]] Result<model::Nffg> fetch_view() override;
  /// fetch_view() calls answered "unchanged" from the kept reply.
  [[nodiscard]] std::uint64_t get_config_hits() const noexcept {
    return get_config_hits_;
  }

  /// Native transactional push: begin_apply issues the edit-config RPC and
  /// returns immediately; await drives the transport until the child's
  /// acknowledgment (or timeout) lands. Over an in-memory channel the
  /// child virtualizer runs its own orchestration — recursively fanning
  /// its domain pushes out on the same shared pool — inside that drive,
  /// which is the architecture's recursion point; over TCP the child is a
  /// separate process and the drive pumps the socket.
  ///
  /// edit-config is conditional on the last accepted config: once the
  /// server has accepted a config in full and named its version, the
  /// adapter keeps a copy and sends the next edit as the delta from it
  /// (model/nffg_delta.h) with that version as "if-match". A "stale"
  /// answer makes await resend the full config. The copy is dropped on
  /// any edit error, a timeout, a reconnect, and a reply without a
  /// version, so a server without conditional edits only ever gets full
  /// configs.
  Result<adapters::PushTicket> begin_apply(const model::Nffg& desired) override;
  Result<void> await(const adapters::PushTicket& ticket) override;
  Result<void> apply(const model::Nffg& desired) override;
  /// Edit-configs sent as a delta and applied (not answered "stale").
  [[nodiscard]] std::uint64_t delta_edits() const noexcept {
    return delta_edits_;
  }

  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return session_.counters().messages_sent;
  }
  /// Serialized with every other adapter in the same driver domain (all
  /// adapters sharing a SimClock, or all connections of one reactor).
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return exclusion_key_;
  }

  /// Liveness probe for the health manager: cheap session/ping check
  /// instead of the default full fetch_view.
  Result<void> probe() override;

  /// Subscribes to the session's liveness evidence (reconnects, failed
  /// connects, heartbeat misses); see proto::ResilientSession::on_liveness.
  void on_liveness(proto::ResilientSession::LivenessFn fn) {
    session_.on_liveness(std::move(fn));
  }
  [[nodiscard]] const proto::ResilientSession& session() const noexcept {
    return session_;
  }

  /// Attaches an owned object (e.g. the matching UnifyServer + child
  /// stack) whose lifetime must track this adapter's.
  void keep_alive(std::shared_ptr<void> dependency) {
    dependencies_.push_back(std::move(dependency));
  }

 private:
  std::string domain_;
  proto::ResilientSession session_;
  const void* exclusion_key_;
  SimTime rpc_timeout_us_;
  using ReplySlot = std::shared_ptr<std::optional<Result<json::Value>>>;
  /// Issues one edit-config; its reply lands in the returned slot.
  Result<ReplySlot> send_edit(json::Object params);
  /// Drives the transport until `slot` is filled.
  Result<json::Value> wait_for(const ReplySlot& slot);

  /// One in-flight edit-config: ticket id, where the response lands, the
  /// config it carries, whether it went as a delta, and the session's
  /// reconnect count when it was sent.
  struct InflightPush {
    std::uint64_t id = 0;
    ReplySlot slot;
    model::Nffg desired;
    bool delta = false;
    std::uint64_t reconnects = 0;
  };
  std::optional<InflightPush> inflight_;
  std::uint64_t next_push_id_ = 1;
  /// The last config the server accepted in full, with the version its
  /// reply named and the session's reconnect count then.
  struct AcceptedConfig {
    model::Nffg config;
    std::string version;
    std::uint64_t reconnects = 0;
  };
  std::optional<AcceptedConfig> accepted_;
  std::uint64_t delta_edits_ = 0;
  /// The last tagged get-config reply: its tag, its config when kept, the
  /// session's reconnect count when it arrived, and whether a later get
  /// was answered "unchanged" from it.
  struct LastReply {
    std::string tag;
    std::optional<json::Value> config;
    std::uint64_t reconnects = 0;
    bool hit = false;
  };
  std::optional<LastReply> last_;
  std::uint64_t get_config_hits_ = 0;
  std::vector<std::shared_ptr<void>> dependencies_;
};

/// Wires `child` behind a fresh in-memory channel: creates the UnifyServer
/// on one end and returns a UnifyClientAdapter (owning the server) on the
/// other, ready to be add_domain()-ed into a parent RO.
[[nodiscard]] std::unique_ptr<UnifyClientAdapter> make_unify_link(
    Virtualizer& child, SimClock& clock, std::string domain_name,
    SimTime channel_latency_us = 200);

}  // namespace unify::core
