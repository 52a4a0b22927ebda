// JSON-RPC peer over any framed transport (proto/transport.h).
//
// Both the recursive Unify interface (manager <-> virtualizer) and the
// domain control channels (NETCONF-style edit-config, OpenFlow-style
// flow-mods) run this protocol in the reproduction, over the in-memory
// simulated channel or a real TCP connection alike. Symmetric: either side
// may expose methods and issue requests.
//
// Wire messages (one JSON object per frame):
//   request       {"id": 7, "method": "edit-config", "params": {...}}
//   response      {"id": 7, "result": {...}}
//   error         {"id": 7, "error": {"code": "rejected", "message": "..."}}
//   notification  {"method": "nf-status", "params": {...}}   (no id)
//
// Robustness: unknown methods are answered with a not_found error frame;
// malformed input (bad JSON, requests without a string method, responses
// with unknown/duplicate or non-integer ids, frames that are not objects)
// is ignored and counted in protocol_errors() — a misbehaving peer can
// never crash the session or wedge a well-formed one. Every peer answers
// the "ping" method natively (empty result) unless a handler overrides it,
// so any session can be heartbeat-probed (proto/resilient_session.h)
// without per-server plumbing. The single unrecoverable input is a
// framing-level violation (oversized frame): byte-stream sync is lost, so
// the transport is disconnected.
//
// Timeouts: one deadline path for call() and call_and_wait(), scheduled on
// the transport's Driver. timeout_us = 0 means "no timeout": the pending
// call stays open until the response arrives or the transport closes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "json/json.h"
#include "proto/framing.h"
#include "proto/transport.h"
#include "util/result.h"

namespace unify::proto {

class RpcPeer {
 public:
  using Handler = std::function<Result<json::Value>(const json::Value& params)>;
  using NotificationHandler = std::function<void(const json::Value& params)>;
  using ResponseFn = std::function<void(Result<json::Value>)>;

  /// Binds to a transport; the peer must outlive in-flight activity and be
  /// used only from the transport driver's execution domain.
  explicit RpcPeer(std::shared_ptr<Transport> transport,
                   std::string name = "rpc");
  ~RpcPeer();
  RpcPeer(const RpcPeer&) = delete;
  RpcPeer& operator=(const RpcPeer&) = delete;

  /// Registers the server-side method (replaces an existing handler).
  void on_request(std::string method, Handler handler);
  void on_notification(std::string method, NotificationHandler handler);

  /// Fires after this peer's transport closes (pending calls have already
  /// been failed with kUnavailable by then). For server-side session
  /// cleanup; replaces any previous hook.
  void on_disconnect(std::function<void()> fn);

  /// Issues a request. On success `done` fires exactly once — with the
  /// result, with the peer's error, or with kTimeout after `timeout_us`
  /// (0 = no timeout: the call waits for the response or transport close).
  /// On a send failure (disconnected transport) the error is returned and
  /// `done` never fires. The outcome is delivered exactly once either way:
  /// if the send itself closes the transport mid-write, the call fails
  /// through `done` (kUnavailable) and the return value is success.
  Result<void> call(std::string method, json::Value params, ResponseFn done,
                    SimTime timeout_us = 0);

  /// Fire-and-forget notification; reports the send status instead of
  /// silently dropping on a disconnected transport.
  Result<void> notify(std::string method, json::Value params);

  /// Issues the call and pumps the driver until the response lands, the
  /// timeout fires, or the driver goes idle with the call still open
  /// (peer gone — kUnavailable).
  Result<json::Value> call_and_wait(std::string method, json::Value params,
                                    SimTime timeout_us = 0);

  [[nodiscard]] const TransportCounters& counters() const noexcept {
    return transport_->counters();
  }
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return requests_handled_;
  }
  /// Malformed frames/messages ignored so far (see file comment).
  [[nodiscard]] std::uint64_t protocol_errors() const noexcept {
    return protocol_errors_;
  }
  /// Calls issued but not yet completed (responded / timed out / failed by
  /// a transport close). Must drain to zero on an idle or closed session —
  /// the wire-chaos soak asserts no entry ever leaks.
  [[nodiscard]] std::size_t pending_calls() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] Driver& driver() noexcept { return transport_->driver(); }

 private:
  void handle_bytes(std::string_view bytes);
  /// Takes the parsed frame by reference so a response's result can be
  /// moved into the pending call instead of copied.
  void handle_message(json::Value& msg);
  void handle_closed();
  Result<void> send_json(const json::Value& msg);

  std::shared_ptr<Transport> transport_;
  std::string name_;
  FrameDecoder decoder_;
  std::map<std::string, Handler> handlers_;
  std::map<std::string, NotificationHandler> notification_handlers_;
  std::function<void()> disconnect_hook_;
  struct Pending {
    ResponseFn done;
    bool responded = false;
  };
  std::map<std::int64_t, std::shared_ptr<Pending>> pending_;
  std::int64_t next_id_ = 1;
  std::uint64_t requests_handled_ = 0;
  std::uint64_t protocol_errors_ = 0;
};

}  // namespace unify::proto
