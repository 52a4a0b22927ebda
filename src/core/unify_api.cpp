#include "core/unify_api.h"

#include "model/nffg_delta.h"
#include "model/nffg_json.h"

namespace unify::core {

UnifyServer::UnifyServer(Virtualizer& virtualizer,
                         std::shared_ptr<proto::Transport> transport,
                         std::string name)
    : virtualizer_(&virtualizer),
      peer_(std::move(transport), std::move(name)) {
  peer_.on_request(
      "get-config",
      [this](const json::Value& params) -> Result<json::Value> {
        json::Object out;
        // Conditional get: a caller that already holds the current reply
        // gets its tag confirmed instead of a fresh render.
        if (const json::Value* seen = params.get("if-none-match");
            seen != nullptr && seen->is_string() &&
            seen->as_string() == virtualizer_->config_tag()) {
          out.set("unchanged", true);
          return json::Value{std::move(out)};
        }
        UNIFY_ASSIGN_OR_RETURN(const model::Nffg config,
                               virtualizer_->get_config());
        out.set("config", model::to_json(config));
        // Read after get_config(): its first call renders the skeleton,
        // which moves the tag.
        out.set("tag", virtualizer_->config_tag());
        return json::Value{std::move(out)};
      });
  peer_.on_request(
      "edit-config",
      [this](const json::Value& params) -> Result<json::Value> {
        json::Object out;
        std::optional<model::Nffg> desired;
        if (const json::Value* delta_json = params.get("delta")) {
          // Conditional edit: the delta applies only to the accepted
          // config the caller named.
          const json::Value* base = params.get("if-match");
          if (base == nullptr || !base->is_string()) {
            return Error{ErrorCode::kProtocol, "a delta needs if-match"};
          }
          if (base->as_string() !=
              std::to_string(virtualizer_->accepted_version())) {
            out.set("stale", true);
            return json::Value{std::move(out)};
          }
          UNIFY_ASSIGN_OR_RETURN(model::NffgDelta delta,
                                 model::nffg_delta_from_json(*delta_json));
          desired = virtualizer_->accepted_config();
          UNIFY_RETURN_IF_ERROR(model::apply_delta(*desired, std::move(delta)));
        } else if (const json::Value* config_json = params.get("config")) {
          UNIFY_ASSIGN_OR_RETURN(desired, model::nffg_from_json(*config_json));
        } else {
          return Error{ErrorCode::kProtocol, "edit-config needs a config"};
        }
        UNIFY_RETURN_IF_ERROR(virtualizer_->edit_config(*desired));
        out.set("accepted", std::to_string(virtualizer_->accepted_version()));
        return json::Value{std::move(out)};
      });
}

UnifyClientAdapter::UnifyClientAdapter(
    std::string domain_name, std::shared_ptr<proto::Transport> transport,
    SimTime rpc_timeout_us)
    : domain_(std::move(domain_name)),
      session_(domain_ + "-unify-client", transport->driver(), nullptr,
               transport),
      exclusion_key_(session_.driver().exclusion_key()),
      rpc_timeout_us_(rpc_timeout_us) {}

UnifyClientAdapter::UnifyClientAdapter(
    std::string domain_name, proto::Driver& driver,
    proto::ResilientSession::TransportFactory factory, SimTime rpc_timeout_us)
    : domain_(std::move(domain_name)),
      session_(domain_ + "-unify-client", driver, std::move(factory)),
      exclusion_key_(driver.exclusion_key()),
      rpc_timeout_us_(rpc_timeout_us) {}

Result<model::Nffg> UnifyClientAdapter::fetch_view() {
  // A new transport may reach another virtualizer whose counters happen
  // to give the same tag: nothing learnt from a reply outlives its
  // transport.
  const std::uint64_t reconnects = session_.reconnects();
  if (last_.has_value() && last_->reconnects != reconnects) last_.reset();
  const bool revalidate = last_.has_value() && last_->config.has_value();
  json::Object params;
  if (revalidate) params.set("if-none-match", last_->tag);
  UNIFY_ASSIGN_OR_RETURN(
      json::Value reply,
      session_.call_and_wait("get-config", json::Value{std::move(params)},
                             rpc_timeout_us_));
  if (revalidate && reply.get_bool("unchanged")) {
    ++get_config_hits_;
    last_->hit = true;
    return model::nffg_from_json(*last_->config);
  }
  json::Value* config =
      reply.is_object() ? reply.as_object().find("config") : nullptr;
  if (config == nullptr) {
    return Error{ErrorCode::kProtocol, "get-config reply missing config"};
  }
  const json::Value* tag = reply.get("tag");
  if (tag == nullptr || !tag->is_string()) {
    // A server without conditional get: nothing to revalidate against.
    last_.reset();
    return model::nffg_from_json(*config);
  }
  // Keep the config only where the next get is likely to hit: on the
  // first reply, after a hit, or when this reply repeats the last tag. A
  // reader whose every get follows a change keeps nothing alive between
  // its gets.
  const bool keep = !last_.has_value() || last_->hit ||
                    last_->tag == tag->as_string();
  last_ = LastReply{tag->as_string(), std::nullopt, reconnects, false};
  if (!keep) return model::nffg_from_json(*config);
  last_->config = std::move(*config);
  return model::nffg_from_json(*last_->config);
}

Result<UnifyClientAdapter::ReplySlot> UnifyClientAdapter::send_edit(
    json::Object params) {
  auto slot = std::make_shared<std::optional<Result<json::Value>>>();
  UNIFY_RETURN_IF_ERROR(session_.call(
      "edit-config", json::Value{std::move(params)},
      [slot](Result<json::Value> reply) { *slot = std::move(reply); },
      rpc_timeout_us_));
  return slot;
}

Result<json::Value> UnifyClientAdapter::wait_for(const ReplySlot& slot) {
  // Drive the transport until the child's acknowledgment (or the RPC
  // deadline) fires — simulated timers for channels, the epoll reactor
  // for sockets. Over a channel this is where the child stack runs.
  while (!slot->has_value() && session_.driver().pump()) {
  }
  if (!slot->has_value()) {
    return Error{ErrorCode::kUnavailable,
                 "driver idle with push still open (peer gone?)"};
  }
  return std::move(**slot);
}

Result<adapters::PushTicket> UnifyClientAdapter::begin_apply(
    const model::Nffg& desired) {
  if (inflight_.has_value()) {
    return Error{ErrorCode::kUnavailable,
                 "push already in flight in domain " + domain_};
  }
  // As with get-config's kept reply, nothing learnt from a reply outlives
  // its transport.
  const std::uint64_t reconnects = session_.reconnects();
  if (accepted_.has_value() && accepted_->reconnects != reconnects) {
    accepted_.reset();
  }
  json::Object params;
  bool delta = false;
  if (accepted_.has_value()) {
    // A config without an exact delta (duplicate ids, say) goes whole.
    if (auto d = model::nffg_delta(accepted_->config, desired); d.ok()) {
      params.set("if-match", accepted_->version);
      params.set("delta", model::to_json(*d));
      delta = true;
    }
  }
  if (!delta) params.set("config", model::to_json(desired));
  auto slot = send_edit(std::move(params));
  if (!slot.ok()) {
    accepted_.reset();
    return slot.error();
  }
  inflight_ = InflightPush{next_push_id_++, *std::move(slot), desired, delta,
                           reconnects};
  return adapters::PushTicket{inflight_->id};
}

Result<void> UnifyClientAdapter::await(const adapters::PushTicket& ticket) {
  if (!inflight_.has_value() || inflight_->id != ticket.id) {
    return Error{ErrorCode::kInvalidArgument,
                 "stale push ticket " + std::to_string(ticket.id) +
                     " for domain " + domain_};
  }
  InflightPush push = *std::move(inflight_);
  inflight_.reset();
  Result<json::Value> reply = wait_for(push.slot);
  if (push.delta && reply.ok() && reply->get_bool("stale")) {
    // Another writer moved the server's config since ours was accepted:
    // nothing was applied, so send the config whole.
    push.delta = false;
    json::Object params;
    params.set("config", model::to_json(push.desired));
    auto slot = send_edit(std::move(params));
    reply = slot.ok() ? wait_for(*slot) : Result<json::Value>{slot.error()};
  }
  // Whatever happened, the edit-config reached the wire: the child's
  // config may have changed, so this domain must not look clean.
  bump_epoch();
  const json::Value* version = reply.ok() ? reply->get("accepted") : nullptr;
  if (version != nullptr && version->is_string() &&
      session_.reconnects() == push.reconnects) {
    accepted_ = AcceptedConfig{std::move(push.desired), version->as_string(),
                               push.reconnects};
  } else {
    accepted_.reset();
  }
  if (!reply.ok()) return reply.error();
  if (push.delta) ++delta_edits_;
  return Result<void>::success();
}

Result<void> UnifyClientAdapter::apply(const model::Nffg& desired) {
  UNIFY_ASSIGN_OR_RETURN(const adapters::PushTicket ticket,
                         begin_apply(desired));
  return await(ticket);
}

Result<void> UnifyClientAdapter::probe() {
  // A protocol-level ping instead of the default full fetch_view: proves
  // the session and the peer's event loop without serializing a config.
  UNIFY_RETURN_IF_ERROR(session_.call_and_wait(
      "ping", json::Value{json::Object{}}, rpc_timeout_us_));
  return Result<void>::success();
}

std::unique_ptr<UnifyClientAdapter> make_unify_link(Virtualizer& child,
                                                    SimClock& clock,
                                                    std::string domain_name,
                                                    SimTime channel_latency_us) {
  auto [north, south] = proto::make_channel_pair(clock, channel_latency_us);
  auto server = std::make_shared<UnifyServer>(child, south,
                                              domain_name + "-unify-server");
  auto adapter =
      std::make_unique<UnifyClientAdapter>(std::move(domain_name), north);
  adapter->keep_alive(std::move(server));
  return adapter;
}

}  // namespace unify::core
