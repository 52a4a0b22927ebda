#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_json.h"

namespace perfbench {

double Samples::sum() const noexcept {
  double total = 0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::pct(double p, const std::string& what) const {
  const auto n = static_cast<double>(values_.size());
  if (n * (1.0 - p) + 1e-9 < 10.0) {
    throw BenchFailure(what + ": " + std::to_string(values_.size()) +
                       " samples leave fewer than 10 beyond p" +
                       std::to_string(static_cast<int>(p * 100)));
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * (n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
}

double covered_ms(const Interval& window, const std::vector<Interval>& spans) {
  std::vector<Interval> clipped;
  for (const Interval& s : spans) {
    const auto a = std::max(s.start, window.start);
    const auto b = std::min(s.end, window.end);
    if (a < b) clipped.push_back({a, b});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& x, const Interval& y) {
              return x.start < y.start;
            });
  double total = 0;
  Clock::time_point reach = window.start;
  for (const Interval& s : clipped) {
    const auto a = std::max(s.start, reach);
    if (a < s.end) {
      total += ms_between(a, s.end);
      reach = s.end;
    }
  }
  return total;
}

// ---- TimedClient ---------------------------------------------------------

TimedClient::TimedClient(std::unique_ptr<u::adapters::DomainAdapter> inner,
                         Trace& trace)
    : inner_(std::move(inner)), trace_(&trace) {}

u::Result<u::model::Nffg> TimedClient::fetch_view() {
  const auto t0 = Clock::now();
  auto view = inner_->fetch_view();
  const double ms = ms_between(t0, Clock::now());
  trace_->with([&](Trace::Data& d) { d.client_ms += ms; });
  return view;
}

u::Result<u::adapters::PushTicket> TimedClient::begin_apply(
    const u::model::Nffg& desired) {
  edit_start_ = Clock::now();
  auto ticket = inner_->begin_apply(desired);
  const double ms = ms_between(edit_start_, Clock::now());
  trace_->with([&](Trace::Data& d) {
    d.edit_encode_ms.add(ms);
    d.client_ms += ms;
    ++d.edits;
  });
  return ticket;
}

u::Result<void> TimedClient::await(const u::adapters::PushTicket& ticket) {
  const auto t0 = Clock::now();
  auto done = inner_->await(ticket);
  const auto t1 = Clock::now();
  trace_->with([&](Trace::Data& d) {
    d.edit_ms.add(ms_between(edit_start_, t1));
    d.client_ms += ms_between(t0, t1);
  });
  return done;
}

u::Result<void> TimedClient::apply(const u::model::Nffg& desired) {
  UNIFY_ASSIGN_OR_RETURN(const u::adapters::PushTicket ticket,
                         begin_apply(desired));
  return await(ticket);
}

// ---- TimedDomain ---------------------------------------------------------

TimedDomain::TimedDomain(std::unique_ptr<u::adapters::DomainAdapter> inner,
                         Trace& trace)
    : inner_(std::move(inner)), trace_(&trace) {}

u::Result<u::adapters::PushTicket> TimedDomain::begin_apply(
    const u::model::Nffg& desired) {
  push_start_ = Clock::now();
  return inner_->begin_apply(desired);
}

u::Result<void> TimedDomain::await(const u::adapters::PushTicket& ticket) {
  auto done = inner_->await(ticket);
  const Interval span{push_start_, Clock::now()};
  trace_->with([&](Trace::Data& d) {
    d.adapter_spans.push_back(span);
    ++d.adapter_applies;
  });
  return done;
}

u::Result<void> TimedDomain::apply(const u::model::Nffg& desired) {
  UNIFY_ASSIGN_OR_RETURN(const u::adapters::PushTicket ticket,
                         begin_apply(desired));
  return await(ticket);
}

// ---- TimedMapper ---------------------------------------------------------

u::Result<u::mapping::Mapping> TimedMapper::map(
    const u::sg::ServiceGraph& sg, const u::mapping::SubstrateView& substrate,
    const u::catalog::NfCatalog& catalog) const {
  const auto t0 = Clock::now();
  auto mapping = inner_->map(sg, substrate, catalog);
  const Interval span{t0, Clock::now()};
  trace_->with([&](Trace::Data& d) {
    d.map_spans.push_back(span);
    d.map_ms.add(ms_between(span.start, span.end));
    ++d.map_calls;
    if (!mapping.ok()) ++d.map_failures;
  });
  return mapping;
}

std::unique_ptr<u::adapters::DomainAdapter> maybe_timed(
    std::unique_ptr<u::adapters::DomainAdapter> adapter, Trace* trace) {
  if (trace == nullptr) return adapter;
  return std::make_unique<TimedDomain>(std::move(adapter), *trace);
}

std::shared_ptr<const u::mapping::Mapper> bench_mapper(Trace* trace) {
  auto chain_dp = std::make_shared<u::mapping::ChainDpMapper>();
  if (trace == nullptr) return chain_dp;
  return std::make_shared<TimedMapper>(std::move(chain_dp), *trace);
}

// ---- Unify endpoints -----------------------------------------------------

namespace {

const Clock::time_point kEpoch = Clock::now();

/// Nanoseconds since kEpoch as a fixed-width decimal string: the timing
/// fields then add the same number of bytes to every message, so byte
/// counts stay exact and the client can subtract them.
std::string stamp(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%015lld", static_cast<long long>(ns));
  return buf;
}

std::int64_t since_epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

double stamp_ms(const u::json::Value& timing, const char* key) {
  return static_cast<double>(std::stoll(timing.get_string(key, "0"))) / 1e6;
}

}  // namespace

TimedServer::TimedServer(u::core::Virtualizer& virtualizer,
                         std::shared_ptr<u::proto::Transport> transport,
                         Trace& trace, ControlFn control)
    : peer_(std::move(transport), "bench-unify-server") {
  peer_.on_request(
      "get-config",
      [&virtualizer, &trace](
          const u::json::Value& params) -> u::Result<u::json::Value> {
        const auto t0 = Clock::now();
        UNIFY_ASSIGN_OR_RETURN(const u::model::Nffg config,
                               virtualizer.get_config());
        u::json::Object out;
        out.set("config", u::model::to_json(config));
        const auto t1 = Clock::now();
        const double handler_ms = ms_between(t0, t1);
        trace.with([&](Trace::Data& d) { d.virt_get_ms.add(handler_ms); });
        if (const u::json::Value* sent = params.get("t_send_ns");
            sent != nullptr && sent->is_string()) {
          u::json::Object timing;
          timing.set("queue_ns", stamp(since_epoch_ns(t0) -
                                       std::stoll(sent->as_string())));
          timing.set("handler_ns", stamp(since_epoch_ns(t1) -
                                         since_epoch_ns(t0)));
          out.set("timing", u::json::Value{std::move(timing)});
        }
        return u::json::Value{std::move(out)};
      });
  peer_.on_request(
      "edit-config",
      [&virtualizer, &trace](
          const u::json::Value& params) -> u::Result<u::json::Value> {
        const u::json::Value* config_json = params.get("config");
        if (config_json == nullptr) {
          return u::Error{u::ErrorCode::kProtocol,
                          "edit-config needs a config"};
        }
        const auto t0 = Clock::now();
        UNIFY_ASSIGN_OR_RETURN(const u::model::Nffg desired,
                               u::model::nffg_from_json(*config_json));
        const auto t1 = Clock::now();
        const auto edited = virtualizer.edit_config(desired);
        const auto t2 = Clock::now();
        trace.with([&](Trace::Data& d) {
          d.virt_edit_decode_ms.add(ms_between(t0, t1));
          d.virt_edit_ms.add(ms_between(t1, t2));
          d.virt_edits.push_back({t1, t2});
        });
        UNIFY_RETURN_IF_ERROR(edited);
        return u::json::Value{u::json::Object{}};
      });
  if (control) {
    peer_.on_request("bench-control",
                     [control = std::move(control)](
                         const u::json::Value& params)
                         -> u::Result<u::json::Value> {
                       return control(params.get_string("op"));
                     });
  }
}

std::shared_ptr<void> make_server(
    u::core::Virtualizer& virtualizer,
    std::shared_ptr<u::proto::Transport> transport, Trace* trace,
    TimedServer::ControlFn control) {
  if (trace == nullptr) {
    return std::make_shared<u::core::UnifyServer>(
        virtualizer, std::move(transport), "bench-unify-server");
  }
  return std::make_shared<TimedServer>(virtualizer, std::move(transport),
                                       *trace, std::move(control));
}

GetClient::GetClient(std::shared_ptr<u::proto::Transport> transport,
                     bool traced)
    : transport_(transport) {
  if (traced) {
    peer_ = std::make_unique<u::proto::RpcPeer>(std::move(transport),
                                                "bench-reader");
  } else {
    client_ = std::make_unique<u::core::UnifyClientAdapter>(
        "bench-reader", std::move(transport));
  }
}

GetClient::~GetClient() = default;

u::model::Nffg GetClient::get(bool record) {
  const auto t0 = Clock::now();
  if (client_ != nullptr) {
    auto view = client_->fetch_view();
    if (!view.ok()) {
      throw BenchFailure("get-config failed: " + view.error().to_string());
    }
    if (record) get_ms.add(ms_between(t0, Clock::now()));
    return std::move(view).value();
  }
  u::json::Object params;
  params.set("t_send_ns", stamp(since_epoch_ns(t0)));
  auto reply = peer_->call_and_wait("get-config",
                                    u::json::Value{std::move(params)});
  const auto t1 = Clock::now();
  if (!reply.ok()) {
    throw BenchFailure("get-config failed: " + reply.error().to_string());
  }
  const u::json::Value* config = reply->get("config");
  const u::json::Value* timing = reply->get("timing");
  if (config == nullptr || timing == nullptr) {
    throw BenchFailure("get-config reply lacks config or timing");
  }
  auto view = u::model::nffg_from_json(*config);
  const auto t2 = Clock::now();
  if (!view.ok()) {
    throw BenchFailure("get-config decode failed: " +
                       view.error().to_string());
  }
  const double total = ms_between(t0, t2);
  const double decode = ms_between(t1, t2);
  const double queue = stamp_ms(*timing, "queue_ns");
  const double handler = stamp_ms(*timing, "handler_ns");
  // The timing member ("timing":{...} plus its separator) is the traced
  // server's addition; leave it out of the reply byte count.
  timing_bytes_ += timing->dump().size() + std::string("\"timing\":,").size();
  if (record) {
    get_ms.add(total);
    decode_ms.add(decode);
    queue_ms.add(queue);
    transport_ms.add(total - queue - handler - decode);
  }
  return std::move(view).value();
}

u::json::Value GetClient::control(const std::string& op) {
  if (peer_ == nullptr) throw BenchFailure("bench-control needs a traced run");
  u::json::Object params;
  params.set("op", op);
  auto reply = peer_->call_and_wait("bench-control",
                                    u::json::Value{std::move(params)});
  if (!reply.ok()) {
    throw BenchFailure("bench-control failed: " + reply.error().to_string());
  }
  return std::move(reply).value();
}

// ---- counters ------------------------------------------------------------

RoCounters read_ro(u::core::ResourceOrchestrator& ro,
                   const u::util::OrchestrationPool& pool) {
  const auto& telemetry = ro.view_state().telemetry();
  RoCounters c;
  c.push_fanout = static_cast<double>(ro.metrics().counter("ro.push.fanout"));
  c.push_skipped =
      static_cast<double>(ro.metrics().counter("ro.push.skipped_clean"));
  c.index_builds = static_cast<double>(telemetry.index_builds);
  c.clones = static_cast<double>(telemetry.clones);
  c.snapshots = static_cast<double>(telemetry.snapshots);
  c.pool_tasks = static_cast<double>(pool.tasks_run());
  c.pool_batches = static_cast<double>(pool.batches());
  return c;
}

u::json::Value to_json(const RoCounters& c) {
  u::json::Object o;
  o.set("push_fanout", c.push_fanout);
  o.set("push_skipped", c.push_skipped);
  o.set("index_builds", c.index_builds);
  o.set("clones", c.clones);
  o.set("snapshots", c.snapshots);
  o.set("pool_tasks", c.pool_tasks);
  o.set("pool_batches", c.pool_batches);
  return u::json::Value{std::move(o)};
}

RoCounters ro_counters_from_json(const u::json::Value& v) {
  RoCounters c;
  c.push_fanout = v.get_number("push_fanout");
  c.push_skipped = v.get_number("push_skipped");
  c.index_builds = v.get_number("index_builds");
  c.clones = v.get_number("clones");
  c.snapshots = v.get_number("snapshots");
  c.pool_tasks = v.get_number("pool_tasks");
  c.pool_batches = v.get_number("pool_batches");
  return c;
}

PushWall push_wall(u::core::ResourceOrchestrator& ro) {
  PushWall out;
  if (const auto* wall = ro.metrics().find_summary("ro.push.wall_ms")) {
    out.p50 = wall->percentile(0.5);
    out.count = static_cast<double>(wall->count());
  }
  return out;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  Trace::Data d;
  in.trace->with([&](Trace::Data& data) { d = data; });
  const double req = in.requests;
  if (in.push_wall.count < 20) {
    throw BenchFailure("ro.push_wall_ms: too few pushes for a median");
  }
  // Virtualizer self time: each edit minus the part of it that mapper or
  // domain-adapter spans (possibly on pool workers) cover.
  std::vector<Interval> children = d.map_spans;
  children.insert(children.end(), d.adapter_spans.begin(),
                  d.adapter_spans.end());
  Samples edit_self_ms;
  for (const Interval& edit : d.virt_edits) {
    edit_self_ms.add(ms_between(edit.start, edit.end) -
                     covered_ms(edit, children));
  }
  double adapter_ms = 0;
  for (const Interval& s : d.adapter_spans) {
    adapter_ms += ms_between(s.start, s.end);
  }
  const auto per_req = [req](double v) { return v / req; };
  return {
      {"service.self_ms_per_req", per_req(in.service_ms - d.client_ms), "ms"},
      {"service.pushes_per_wave", in.deploy_pushes / in.waves, "count"},
      {"unify.edit_ms_p50", d.edit_ms.pct(0.5, "unify.edit_ms"), "ms"},
      {"unify.edit_encode_ms_p50",
       d.edit_encode_ms.pct(0.5, "unify.edit_encode_ms"), "ms"},
      {"unify.edit_kb_per_call", in.edit_kb_per_call, "KB"},
      {"unify.get_kb_per_call", in.get_kb_per_call, "KB"},
      {"unify.get_decode_ms_p50",
       in.get_decode_ms.pct(0.5, "unify.get_decode_ms"), "ms"},
      {"virt.edit_decode_ms_p50",
       d.virt_edit_decode_ms.pct(0.5, "virt.edit_decode_ms"), "ms"},
      {"virt.edit_ms_p50", d.virt_edit_ms.pct(0.5, "virt.edit_ms"), "ms"},
      {"virt.edit_self_ms_p50", edit_self_ms.pct(0.5, "virt.edit_self_ms"),
       "ms"},
      {"virt.get_config_ms_p50", d.virt_get_ms.pct(0.5, "virt.get_config_ms"),
       "ms"},
      {"ro.push_fanout_per_req",
       per_req(in.after.push_fanout - in.before.push_fanout), "count"},
      {"ro.push_skipped_per_req",
       per_req(in.after.push_skipped - in.before.push_skipped), "count"},
      {"ro.push_wall_ms_p50", in.push_wall.p50, "ms"},
      {"state.index_builds_per_req",
       per_req(in.after.index_builds - in.before.index_builds), "count"},
      {"state.clones_per_req", per_req(in.after.clones - in.before.clones),
       "count"},
      {"state.snapshots_per_req",
       per_req(in.after.snapshots - in.before.snapshots), "count"},
      {"mapping.map_ms_p50", d.map_ms.pct(0.5, "mapping.map_ms"), "ms"},
      {"mapping.map_ms_p90", d.map_ms.pct(0.9, "mapping.map_ms"), "ms"},
      {"mapping.calls_per_req", per_req(static_cast<double>(d.map_calls)),
       "count"},
      {"mapping.fail_ratio",
       d.map_calls == 0 ? 0.0
                        : static_cast<double>(d.map_failures) /
                              static_cast<double>(d.map_calls),
       "ratio"},
      {"adapter.apply_ms_per_req", per_req(adapter_ms), "ms"},
      {"adapter.applies_per_req",
       per_req(static_cast<double>(d.adapter_applies)), "count"},
      {"pool.tasks_per_req",
       per_req(in.after.pool_tasks - in.before.pool_tasks), "count"},
      {"pool.batches_per_req",
       per_req(in.after.pool_batches - in.before.pool_batches), "count"},
      {"pool.cpu_per_wall", in.cpu_s / in.wall_s, "ratio"},
      {"wire.queue_ms_p50", in.wire_queue_ms.pct(0.5, "wire.queue_ms"), "ms"},
      {"wire.transport_ms_p50",
       in.wire_transport_ms.pct(0.5, "wire.transport_ms"), "ms"},
      {"wire.msgs_per_op", in.msgs_per_op, "count"},
  };
}

}  // namespace perfbench
