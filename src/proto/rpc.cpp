#include "proto/rpc.h"

#include <cmath>

#include "util/log.h"

namespace unify::proto {

namespace {

json::Value error_to_json(const Error& error) {
  json::Object o;
  o.set("code", to_string(error.code));
  o.set("message", error.message);
  if (!error.causes.empty()) {
    json::Array causes;
    causes.reserve(error.causes.size());
    for (const Error::Cause& cause : error.causes) {
      json::Object c;
      c.reserve(3);
      c.set("path", cause.path);
      c.set("code", to_string(cause.code));
      c.set("message", cause.message);
      causes.emplace_back(std::move(c));
    }
    o.set("causes", std::move(causes));
  }
  return json::Value{std::move(o)};
}

/// The code named by member "code" of `v`; kInternal when absent or unknown.
ErrorCode code_from_json(const json::Value& v) {
  return error_code_from_string(v.get_string("code", "internal"))
      .value_or(ErrorCode::kInternal);
}

Error error_from_json(const json::Value& v) {
  Error e{code_from_json(v), v.get_string("message")};
  if (const json::Value* causes = v.get("causes");
      causes != nullptr && causes->is_array()) {
    for (const json::Value& c : causes->as_array()) {
      e.causes.push_back(Error::Cause{c.get_string("path"), code_from_json(c),
                                      c.get_string("message")});
    }
  }
  return e;
}

}  // namespace

RpcPeer::RpcPeer(std::shared_ptr<Transport> transport, std::string name)
    : transport_(std::move(transport)), name_(std::move(name)) {
  transport_->on_receive(
      [this](std::string_view bytes) { handle_bytes(bytes); });
  transport_->on_close([this] { handle_closed(); });
}

RpcPeer::~RpcPeer() {
  // Stop callbacks into a dead object; in-flight frames will be buffered by
  // the transport and dropped with it.
  transport_->on_receive(nullptr);
  transport_->on_close(nullptr);
}

void RpcPeer::on_request(std::string method, Handler handler) {
  handlers_[std::move(method)] = std::move(handler);
}

void RpcPeer::on_notification(std::string method,
                              NotificationHandler handler) {
  notification_handlers_[std::move(method)] = std::move(handler);
}

void RpcPeer::on_disconnect(std::function<void()> fn) {
  disconnect_hook_ = std::move(fn);
}

Result<void> RpcPeer::call(std::string method, json::Value params,
                           ResponseFn done, SimTime timeout_us) {
  const std::int64_t id = next_id_++;
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  pending_.emplace(id, pending);

  json::Object msg;
  msg.set("id", id);
  msg.set("method", std::move(method));
  msg.set("params", std::move(params));
  if (const auto sent = send_json(json::Value{std::move(msg)}); !sent.ok()) {
    // Exactly-once outcome delivery: if this very send closed the transport
    // (e.g. a connection reset surfaced mid-write), handle_closed() already
    // failed the call through `done` — report success so the caller does
    // not count the same failure twice.
    if (pending->responded) return Result<void>::success();
    pending_.erase(id);
    return sent.error();
  }

  if (timeout_us > 0) {
    // The deadline timer may outlive this peer (the driver is shared);
    // the weak Pending keeps it from touching a dead object.
    driver().schedule(
        timeout_us,
        [this, id, weak = std::weak_ptr<Pending>(pending)] {
          auto alive = weak.lock();
          if (alive == nullptr || alive->responded) return;
          alive->responded = true;
          pending_.erase(id);
          alive->done(Error{ErrorCode::kTimeout,
                            "rpc " + std::to_string(id) + " timed out"});
        });
  }
  return Result<void>::success();
}

Result<void> RpcPeer::notify(std::string method, json::Value params) {
  json::Object msg;
  msg.set("method", std::move(method));
  msg.set("params", std::move(params));
  return send_json(json::Value{std::move(msg)});
}

Result<json::Value> RpcPeer::call_and_wait(std::string method,
                                           json::Value params,
                                           SimTime timeout_us) {
  std::optional<Result<json::Value>> slot;
  UNIFY_RETURN_IF_ERROR(call(
      std::move(method), std::move(params),
      [&slot](Result<json::Value> result) { slot = std::move(result); },
      timeout_us));
  // Pump the driver (simulated timers or the epoll reactor) until the
  // response, the timeout, or a dead-idle driver.
  while (!slot.has_value() && driver().pump()) {
  }
  if (!slot.has_value()) {
    return Error{ErrorCode::kUnavailable,
                 "driver idle with call still open (peer gone?)"};
  }
  return std::move(*slot);
}

Result<void> RpcPeer::send_json(const json::Value& msg) {
  std::string frame(kFrameHeaderBytes, '\0');
  msg.dump_to(frame);
  seal_frame(frame);
  return transport_->send(std::move(frame));
}

void RpcPeer::handle_bytes(std::string_view bytes) {
  std::vector<std::string> frames;
  if (const auto fed = decoder_.feed(bytes, frames); !fed.ok()) {
    // Byte-stream sync is lost: the only honest recovery is to drop the
    // connection (pending calls fail via the close callback).
    UNIFY_LOG(kError, "proto.rpc")
        << name_ << ": framing error, disconnecting: "
        << fed.error().to_string();
    ++protocol_errors_;
    transport_->disconnect();
    return;
  }
  for (const std::string& frame : frames) {
    auto parsed = json::parse(frame);
    if (!parsed.ok()) {
      UNIFY_LOG(kError, "proto.rpc")
          << name_ << ": bad JSON frame: " << parsed.error().to_string();
      ++protocol_errors_;
      continue;
    }
    handle_message(*parsed);
  }
}

void RpcPeer::handle_message(json::Value& msg) {
  if (!msg.is_object()) {
    UNIFY_LOG(kWarn, "proto.rpc") << name_ << ": non-object message frame";
    ++protocol_errors_;
    return;
  }
  const json::Value* id = msg.get("id");
  const json::Value* method = msg.get("method");

  if (method != nullptr) {
    if (!method->is_string()) {
      ++protocol_errors_;
      if (id != nullptr && id->is_number()) {
        // Answer so a confused-but-listening caller is not left hanging.
        json::Object reply;
        reply.set("id", *id);
        reply.set("error", error_to_json(Error{ErrorCode::kProtocol,
                                               "method must be a string"}));
        (void)send_json(json::Value{std::move(reply)});
      }
      return;
    }
    const std::string& name = method->as_string();
    const json::Value* params = msg.get("params");
    static const json::Value kNull;
    const json::Value& p = params != nullptr ? *params : kNull;

    if (id == nullptr) {  // notification
      const auto it = notification_handlers_.find(name);
      if (it != notification_handlers_.end()) it->second(p);
      return;
    }
    ++requests_handled_;
    json::Object reply;
    reply.set("id", *id);
    const auto it = handlers_.find(name);
    if (it == handlers_.end()) {
      if (name == "ping") {
        // Built-in liveness probe: every peer is heartbeat-able without
        // registering anything (a real handler above takes precedence).
        reply.set("result", json::Value{json::Object{}});
        (void)send_json(json::Value{std::move(reply)});
        return;
      }
      reply.set("error", error_to_json(Error{ErrorCode::kNotFound,
                                             "no method " + name}));
    } else {
      auto result = it->second(p);
      if (result.ok()) {
        reply.set("result", std::move(result).value());
      } else {
        reply.set("error", error_to_json(result.error()));
      }
    }
    if (const auto sent = send_json(json::Value{std::move(reply)});
        !sent.ok()) {
      UNIFY_LOG(kWarn, "proto.rpc")
          << name_ << ": reply dropped: " << sent.error().to_string();
    }
    return;
  }

  if (id != nullptr && id->is_number()) {  // response
    // Call ids are integers; a fractional or out-of-range id names no call
    // (and must not be truncated onto one).
    constexpr double kMaxExactId = 9007199254740992.0;  // 2^53
    const double raw = id->as_number();
    if (!(std::fabs(raw) <= kMaxExactId) || raw != std::trunc(raw)) {
      UNIFY_LOG(kWarn, "proto.rpc")
          << name_ << ": response with non-integer rpc id " << raw;
      ++protocol_errors_;
      return;
    }
    const auto it = pending_.find(id->as_int());
    if (it == pending_.end()) {
      // Duplicate response id, or a late response after the deadline
      // already failed the call — either way there is nothing to complete.
      UNIFY_LOG(kWarn, "proto.rpc")
          << name_ << ": response for unknown rpc id " << id->as_int();
      ++protocol_errors_;
      return;
    }
    auto pending = it->second;
    pending_.erase(it);
    if (pending->responded) return;
    pending->responded = true;
    if (const json::Value* error = msg.get("error")) {
      pending->done(error_from_json(*error));
    } else if (json::Value* result = msg.as_object().find("result")) {
      pending->done(std::move(*result));
    } else {
      pending->done(Error{ErrorCode::kProtocol,
                          "response carries neither result nor error"});
    }
    return;
  }
  UNIFY_LOG(kWarn, "proto.rpc") << name_ << ": unclassifiable message";
  ++protocol_errors_;
}

void RpcPeer::handle_closed() {
  // Fail every pending call exactly once; done callbacks may issue new
  // work, so detach the map first.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, entry] : pending) {
    if (entry->responded) continue;
    entry->responded = true;
    entry->done(Error{ErrorCode::kUnavailable,
                      "transport closed with rpc " + std::to_string(id) +
                          " in flight"});
  }
  if (disconnect_hook_) disconnect_hook_();
}

}  // namespace unify::proto
