// The layer probes of the traced run, and the two Unify endpoints every
// workload uses.
//
// Probes are decorators around the program's own seams: the service
// layer's Unify client and the RO's domain adapters (DomainAdapter), the
// RO's embedding algorithm (Mapper), and a bench-side Unify server whose
// handlers make the same calls as core::UnifyServer, each timed. Untraced
// runs install none of them.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "adapters/domain_adapter.h"
#include "bench.h"
#include "core/resource_orchestrator.h"
#include "core/virtualizer.h"
#include "json/json.h"
#include "mapping/mapper.h"
#include "proto/rpc.h"
#include "proto/transport.h"
#include "util/orchestration_pool.h"

namespace unify::core {
class UnifyClientAdapter;
}  // namespace unify::core

namespace perfbench {

namespace u = unify;

/// Wraps the service layer's Unify client: times every edit-config (and
/// its begin_apply half) and the layer's total time spent below it.
class TimedClient final : public u::adapters::DomainAdapter {
 public:
  TimedClient(std::unique_ptr<u::adapters::DomainAdapter> inner,
              Trace& trace);

  [[nodiscard]] const std::string& domain() const noexcept override {
    return inner_->domain();
  }
  [[nodiscard]] u::Result<u::model::Nffg> fetch_view() override;
  u::Result<u::adapters::PushTicket> begin_apply(
      const u::model::Nffg& desired) override;
  u::Result<void> await(const u::adapters::PushTicket& ticket) override;
  u::Result<void> apply(const u::model::Nffg& desired) override;
  [[nodiscard]] bool push_in_flight() const noexcept override {
    return inner_->push_in_flight();
  }
  [[nodiscard]] std::uint64_t view_epoch() const noexcept override {
    return inner_->view_epoch();
  }
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return inner_->exclusion_key();
  }
  u::Result<void> probe() override { return inner_->probe(); }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return inner_->native_operations();
  }

 private:
  std::unique_ptr<u::adapters::DomainAdapter> inner_;
  Trace* trace_;
  Clock::time_point edit_start_{};
};

/// Wraps one RO domain adapter: records every push transaction as a span.
class TimedDomain final : public u::adapters::DomainAdapter {
 public:
  TimedDomain(std::unique_ptr<u::adapters::DomainAdapter> inner,
              Trace& trace);

  [[nodiscard]] const std::string& domain() const noexcept override {
    return inner_->domain();
  }
  [[nodiscard]] u::Result<u::model::Nffg> fetch_view() override {
    return inner_->fetch_view();
  }
  u::Result<u::adapters::PushTicket> begin_apply(
      const u::model::Nffg& desired) override;
  u::Result<void> await(const u::adapters::PushTicket& ticket) override;
  u::Result<void> apply(const u::model::Nffg& desired) override;
  [[nodiscard]] bool push_in_flight() const noexcept override {
    return inner_->push_in_flight();
  }
  [[nodiscard]] std::uint64_t view_epoch() const noexcept override {
    return inner_->view_epoch();
  }
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return inner_->exclusion_key();
  }
  u::Result<void> probe() override { return inner_->probe(); }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return inner_->native_operations();
  }

 private:
  std::unique_ptr<u::adapters::DomainAdapter> inner_;
  Trace* trace_;
  Clock::time_point push_start_{};
};

/// Wraps the RO's embedding algorithm; map() runs on pool workers.
class TimedMapper final : public u::mapping::Mapper {
 public:
  TimedMapper(std::shared_ptr<const u::mapping::Mapper> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(&trace) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] u::Result<u::mapping::Mapping> map(
      const u::sg::ServiceGraph& sg, const u::mapping::SubstrateView& substrate,
      const u::catalog::NfCatalog& catalog) const override;

 private:
  std::shared_ptr<const u::mapping::Mapper> inner_;
  Trace* trace_;
};

/// `adapter` wrapped in a TimedDomain when `trace` is set.
[[nodiscard]] std::unique_ptr<u::adapters::DomainAdapter> maybe_timed(
    std::unique_ptr<u::adapters::DomainAdapter> adapter, Trace* trace);

/// Chain-DP, the deterministic mapper every workload uses, wrapped in a
/// TimedMapper when `trace` is set.
[[nodiscard]] std::shared_ptr<const u::mapping::Mapper> bench_mapper(
    Trace* trace);

/// Bench-side Unify server for traced runs: the get-config / edit-config
/// handlers of core::UnifyServer with each step timed. A get-config
/// carrying "t_send_ns" (nanoseconds on a process-wide steady-clock epoch;
/// client and server share the process) is answered with the request's
/// queueing and handler time, so the client can split its round trip.
/// `control`, when given, answers the "bench-control" method on the
/// server's thread.
class TimedServer {
 public:
  using ControlFn = std::function<u::json::Value(const std::string& op)>;
  TimedServer(u::core::Virtualizer& virtualizer,
              std::shared_ptr<u::proto::Transport> transport, Trace& trace,
              ControlFn control = {});

 private:
  u::proto::RpcPeer peer_;
};

/// The server for one connection: core::UnifyServer untraced, TimedServer
/// traced. The returned object owns the server.
[[nodiscard]] std::shared_ptr<void> make_server(
    u::core::Virtualizer& virtualizer,
    std::shared_ptr<u::proto::Transport> transport, Trace* trace,
    TimedServer::ControlFn control = {});

/// A get-config reader session. Untraced it is a core::UnifyClientAdapter
/// (fetch_view); traced it issues the same RPC through a bare RpcPeer so
/// the round trip can be split into queue, handler, decode and transport.
class GetClient {
 public:
  GetClient(std::shared_ptr<u::proto::Transport> transport, bool traced);
  ~GetClient();
  GetClient(const GetClient&) = delete;
  GetClient& operator=(const GetClient&) = delete;

  /// One get-config round trip, reply decode included; `record` adds its
  /// timings to the samples below. Throws BenchFailure on error.
  u::model::Nffg get(bool record = true);
  /// Issues a "bench-control" call (traced servers only).
  u::json::Value control(const std::string& op);

  [[nodiscard]] const u::proto::TransportCounters& counters() const noexcept {
    return transport_->counters();
  }
  /// Reply bytes received so far, without the traced server's timing
  /// member: what the production server would have sent.
  [[nodiscard]] std::uint64_t reply_bytes() const noexcept {
    return counters().bytes_received - timing_bytes_;
  }
  Samples get_ms;
  Samples decode_ms;     ///< traced only
  Samples queue_ms;      ///< traced only
  Samples transport_ms;  ///< traced only

 private:
  std::shared_ptr<u::proto::Transport> transport_;
  std::uint64_t timing_bytes_ = 0;
  std::unique_ptr<u::core::UnifyClientAdapter> client_;
  std::unique_ptr<u::proto::RpcPeer> peer_;
};

/// RO and view-state counters read at the start and end of a timed phase.
struct RoCounters {
  double push_fanout = 0;
  double push_skipped = 0;
  double index_builds = 0;
  double clones = 0;
  double snapshots = 0;
  double pool_tasks = 0;
  double pool_batches = 0;
};
[[nodiscard]] RoCounters read_ro(u::core::ResourceOrchestrator& ro,
                                 const u::util::OrchestrationPool& pool);
[[nodiscard]] u::json::Value to_json(const RoCounters& c);
[[nodiscard]] RoCounters ro_counters_from_json(const u::json::Value& v);

/// Median and count of the RO's ro.push.wall_ms summary (the timed phase
/// resets the RO's registry first, so it covers that phase only).
struct PushWall {
  double p50 = 0;
  double count = 0;
};
[[nodiscard]] PushWall push_wall(u::core::ResourceOrchestrator& ro);

/// Process CPU time (user + system), seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Inputs of the per-layer metrics every workload reports: the trace
/// plus what the workload measured around it in the timed phase.
struct LayerInputs {
  Trace* trace = nullptr;
  RoCounters before;
  RoCounters after;
  PushWall push_wall;
  double service_ms = 0;    ///< wall time inside ServiceLayer calls
  double requests = 0;      ///< service requests attempted
  double waves = 0;         ///< deploy calls (pump waves or submits)
  double deploy_pushes = 0; ///< edit-configs issued inside deploy calls
  double wall_s = 0;
  double cpu_s = 0;         ///< process CPU time over the same phase
  double edit_kb_per_call = 0;
  double get_kb_per_call = 0;
  double msgs_per_op = 0;   ///< Unify messages (both directions) per op
  Samples get_decode_ms;
  Samples wire_queue_ms;
  Samples wire_transport_ms;
};
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in);

}  // namespace perfbench
