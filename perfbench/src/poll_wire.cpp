// poll_wire: the unify_rod deployment shape. The Fig. 1 virtualizer is
// served by core::UnifyServer over TCP loopback; kReaders get-config reader
// sessions poll it in closed loop, and one writer ServiceLayer over a TCP
// UnifyClientAdapter deploys and removes services through the real Fig. 1
// adapters (emulated network, POX over RPC, cloud, universal node).
//
// Server and clients share one epoll reactor on one thread: a client call
// pumps the reactor, which runs the server's handler for it. Every message
// still crosses a real loopback socket with real framing, but no message
// waits for another thread to wake up, so the run times the program and
// not the host's scheduler. The only other thread is the orchestration
// pool's worker.
//
// The loop runs in epochs: every reader issues kReadsPerWrite get-configs,
// round robin across the sessions, then the writer issues one write
// (alternately a submit() and a remove() of the oldest service), so every
// read sees a state fixed by the seed and every byte count repeats exactly.
#include <sched.h>

#include <deque>
#include <memory>

#include "adapters/cloud_adapter.h"
#include "adapters/emu_adapter.h"
#include "adapters/pox_controller.h"
#include "adapters/remote_sdn_adapter.h"
#include "adapters/un_adapter.h"
#include "catalog/nf_catalog.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "infra/cloud.h"
#include "infra/emu_network.h"
#include "infra/sdn_network.h"
#include "infra/universal_node.h"
#include "probes.h"
#include "proto/channel.h"
#include "proto/net/reactor.h"
#include "proto/net/tcp.h"
#include "service/service_layer.h"
#include "sg/service_graph.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using u::model::Resources;
namespace net = u::proto::net;

constexpr std::size_t kLive = 20;  ///< held below Fig. 1's 48 CPUs
constexpr std::size_t kSmokeLive = 4;
constexpr std::size_t kReaders = 2;  ///< get-config sessions
constexpr std::size_t kReadsPerWrite = 4;  ///< per reader
constexpr std::size_t kWarmupEpochs = 50;  ///< read-only, untimed
constexpr double kWritesPerSecond = 160;  ///< calibrated: sets the epoch count
constexpr std::size_t kSmokeWrites = 200;

void check(const u::Result<void>& result, const char* what) {
  if (!result.ok()) {
    throw BenchFailure(std::string(what) + ": " + result.error().to_string());
  }
}

/// Moves the calling thread round robin over the CPUs it may run on. On a
/// shared host each vCPU has slow and fast phases of its own, lasting
/// seconds; a single-threaded loop left on one vCPU times that vCPU's
/// phase, so a whole run lands on either speed. Visiting every allowed CPU
/// in turn averages their phases within the run. Only for loops that do
/// not hand work to pool threads: a pinned caller delays the wake-up of a
/// helper placed on its CPU. The destructor restores the thread's original
/// CPU set. Threads started while the calling thread is pinned inherit its
/// single CPU, so start any pool workers first.
class CpuRotor {
 public:
  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  /// Moves to the next CPU now.
  void next();
  /// Moves to the next CPU once the current one had its slice.
  void tick();

 private:
  static constexpr double kSliceMs = 50;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t index_ = 0;
  Clock::time_point since_;
};

CpuRotor::CpuRotor() : since_(Clock::now()) {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotor::~CpuRotor() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotor::next() {
  since_ = Clock::now();
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[index_++ % cpus_.size()], &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

void CpuRotor::tick() {
  if (ms_between(since_, Clock::now()) >= kSliceMs) next();
}

/// The Fig. 1 substrate and orchestration layer, assembled as
/// service::make_fig1_stack does but with the benchmark's pool and probes
/// injected.
struct Fig1 {
  u::SimClock clock;
  std::unique_ptr<u::infra::EmuNetwork> emu;
  std::unique_ptr<u::infra::SdnNetwork> sdn;
  std::unique_ptr<u::infra::Cloud> cloud;
  std::unique_ptr<u::infra::UniversalNode> un;
  std::unique_ptr<u::core::ResourceOrchestrator> ro;
  std::unique_ptr<u::core::Virtualizer> virtualizer;
};

std::unique_ptr<Fig1> build_fig1(Trace* trace,
                                 u::util::OrchestrationPool& pool) {
  auto f = std::make_unique<Fig1>();
  f->emu = std::make_unique<u::infra::EmuNetwork>(f->clock, "emu");
  check(f->emu->add_switch("s1", 4, Resources{4, 4096, 50}), "emu s1");
  check(f->emu->add_switch("s2", 4, Resources{4, 4096, 50}), "emu s2");
  check(f->emu->connect("s1", 1, "s2", 1, {1000, 0.5}), "emu link");
  check(f->emu->attach_sap("sap1", "s1", 0, {1000, 0.1}), "emu sap1");
  check(f->emu->attach_sap("xp-emu-sdn", "s2", 2, {1000, 0.2}), "emu xp");

  f->sdn = std::make_unique<u::infra::SdnNetwork>(f->clock, "sdn");
  for (const char* sw : {"t1", "t2", "t3"}) {
    check(f->sdn->add_switch(sw, 4), "sdn switch");
  }
  check(f->sdn->connect("t1", 1, "t2", 1, {10000, 0.8}), "sdn t1-t2");
  check(f->sdn->connect("t2", 2, "t3", 1, {10000, 0.8}), "sdn t2-t3");
  check(f->sdn->attach_sap("xp-emu-sdn", "t1", 0, {1000, 0.2}), "sdn xp-emu");
  check(f->sdn->attach_sap("xp-sdn-dc", "t2", 0, {10000, 0.3}), "sdn xp-dc");
  check(f->sdn->attach_sap("xp-sdn-un", "t3", 0, {10000, 0.2}), "sdn xp-un");

  f->cloud = std::make_unique<u::infra::Cloud>(f->clock, "dc");
  check(f->cloud->add_hypervisor("hv1", {16, 16384, 200}), "hv1");
  check(f->cloud->add_hypervisor("hv2", {16, 16384, 200}), "hv2");
  f->un = std::make_unique<u::infra::UniversalNode>(f->clock, "un",
                                                    Resources{8, 8192, 100});

  auto emu_adapter = std::make_unique<u::adapters::EmuAdapter>(*f->emu);
  auto [north, south] = u::proto::make_channel_pair(f->clock, 150);
  auto controller =
      std::make_shared<u::adapters::PoxController>(*f->sdn, south);
  auto sdn_adapter =
      std::make_unique<u::adapters::RemoteSdnAdapter>("sdn", north);
  sdn_adapter->keep_alive(std::move(controller));
  auto cloud_adapter = std::make_unique<u::adapters::CloudAdapter>(*f->cloud);
  cloud_adapter->map_sap(0, "xp-sdn-dc", {10000, 0.3});
  cloud_adapter->map_sap(1, "sap2", {10000, 0.1});
  auto un_adapter = std::make_unique<u::adapters::UnAdapter>(*f->un);
  un_adapter->map_sap(0, "xp-sdn-un", {10000, 0.2});
  un_adapter->map_sap(1, "sap3", {10000, 0.1});

  u::core::RoOptions options;
  options.pool = &pool;
  f->ro = std::make_unique<u::core::ResourceOrchestrator>(
      "ro", bench_mapper(trace), u::catalog::default_catalog(), options);
  check(f->ro->add_domain(maybe_timed(std::move(emu_adapter), trace)), "emu");
  check(f->ro->add_domain(maybe_timed(std::move(sdn_adapter), trace)), "sdn");
  check(f->ro->add_domain(maybe_timed(std::move(cloud_adapter), trace)), "dc");
  check(f->ro->add_domain(maybe_timed(std::move(un_adapter), trace)), "un");
  check(f->ro->initialize(), "initialize");
  f->virtualizer = std::make_unique<u::core::Virtualizer>(
      *f->ro, u::core::ViewPolicy::kSingleBisBis);
  return f;
}


u::sg::ServiceGraph wire_request(u::Rng& rng, const std::string& id) {
  static const char* const kSaps[] = {"sap1", "sap2", "sap3"};
  static const char* const kNfs[] = {"nat", "fw-lite"};
  const auto src = rng.next_below(3);
  const auto dst = (src + 1 + rng.next_below(2)) % 3;
  std::vector<std::string> nfs;
  const auto length = 1 + rng.next_below(2);
  for (std::uint64_t i = 0; i < length; ++i) {
    nfs.emplace_back(kNfs[rng.next_below(2)]);
  }
  return u::sg::make_chain(id, kSaps[src], nfs, kSaps[dst],
                           rng.next_double(1, 10), 100);
}


/// One assembled rig: stack, reactor, server sessions, writer (+ control
/// session when traced) and readers. Members are torn down clients first,
/// then the server side, the stack last.
struct Rig {
  std::unique_ptr<Fig1> fig1;
  net::Reactor reactor;
  std::unique_ptr<net::TcpListener> listener;
  std::vector<std::shared_ptr<void>> sessions;  ///< one server per connection
  std::shared_ptr<net::TcpTransport> writer_transport;
  std::unique_ptr<u::service::ServiceLayer> writer;
  std::unique_ptr<GetClient> control;
  std::vector<std::unique_ptr<GetClient>> readers;
  u::Rng rng{1};
  std::uint64_t next_id = 0;
  std::deque<std::string> live;
  Signature signature;
  std::uint64_t deploys = 0;

  ~Rig() {
    readers.clear();
    control.reset();
    writer.reset();
    writer_transport.reset();
    sessions.clear();
    listener.reset();
  }

  std::shared_ptr<net::TcpTransport> connect(const std::string& what) {
    auto transport =
        net::TcpTransport::connect(reactor, "127.0.0.1", listener->port());
    if (!transport.ok()) {
      throw BenchFailure(what + " connect: " + transport.error().to_string());
    }
    return std::move(transport).value();
  }

  /// One epoch's reads: kReadsPerWrite get-configs per reader, round robin.
  void read_round(bool record) {
    for (std::size_t r = 0; r < kReadsPerWrite; ++r) {
      for (const auto& reader : readers) (void)reader->get(record);
    }
  }

  void deploy(Samples* deploy_ms) {
    std::string id = "w";
    id += std::to_string(next_id++);
    const u::sg::ServiceGraph graph = wire_request(rng, id);
    const auto t0 = Clock::now();
    const auto submitted = writer->submit(graph);
    if (deploy_ms != nullptr) deploy_ms->add(ms_between(t0, Clock::now()));
    ++deploys;
    if (!submitted.ok()) {
      signature.fail(id, submitted.error().to_string());
      return;
    }
    signature.add(id, Signature::Outcome::kAccepted);
    live.push_back(id);
  }

  void remove_oldest(Samples* remove_ms) {
    const std::string id = live.front();
    const auto t0 = Clock::now();
    const auto removed = writer->remove(id);
    if (remove_ms != nullptr) remove_ms->add(ms_between(t0, Clock::now()));
    if (!removed.ok()) {
      signature.fail("remove " + id, removed.error().to_string());
      return;
    }
    live.pop_front();
  }
};

std::unique_ptr<Rig> build_rig(const RunConfig& config, Trace* trace,
                               u::util::OrchestrationPool& pool) {
  auto rig = std::make_unique<Rig>();
  rig->rng = u::Rng(config.seed);
  rig->fig1 = build_fig1(trace, pool);
  Fig1& fig1 = *rig->fig1;
  TimedServer::ControlFn control;
  if (trace != nullptr) {
    control = [&fig1, &pool](const std::string& op) {
      if (op == "mark") fig1.ro->metrics().reset();
      u::json::Value out = to_json(read_ro(*fig1.ro, pool));
      const PushWall wall = push_wall(*fig1.ro);
      out.as_object().set("push_wall_p50", wall.p50);
      out.as_object().set("push_wall_count", wall.count);
      return out;
    };
  }
  Rig* r = rig.get();
  auto listener = net::TcpListener::listen(
      rig->reactor, "127.0.0.1", 0,
      [r, trace, control](std::shared_ptr<net::TcpTransport> t) {
        r->sessions.push_back(
            make_server(*r->fig1->virtualizer, std::move(t), trace, control));
      });
  if (!listener.ok()) {
    throw BenchFailure("listen: " + listener.error().to_string());
  }
  rig->listener = std::move(listener).value();

  rig->writer_transport = rig->connect("writer");
  std::unique_ptr<u::adapters::DomainAdapter> client =
      std::make_unique<u::core::UnifyClientAdapter>("fig1",
                                                    rig->writer_transport);
  if (trace != nullptr) {
    client = std::make_unique<TimedClient>(std::move(client), *trace);
    rig->control = std::make_unique<GetClient>(rig->connect("control"), true);
  }
  rig->writer =
      std::make_unique<u::service::ServiceLayer>(std::move(client), &pool);
  for (std::size_t i = 0; i < kReaders; ++i) {
    rig->readers.push_back(
        std::make_unique<GetClient>(rig->connect("reader"), trace != nullptr));
  }
  const std::size_t target = config.smoke ? kSmokeLive : kLive;
  while (rig->live.size() < target) {
    rig->deploy(nullptr);
    if (rig->signature.failed > 0) {
      throw BenchFailure("prefill: " + rig->signature.first_failure);
    }
  }
  return rig;
}

/// The output check: the writer's active set, the RO's deployments and a
/// final get-config (after a status sync) agree with the client's books.
/// Returns the outcome-line fields of check_final_config.
std::string check_outputs(Rig& rig) {
  const std::set<std::string> expected(rig.live.begin(), rig.live.end());
  std::set<std::string> active;
  for (const auto& [id, request] : rig.writer->requests()) {
    if (request.state == u::service::RequestState::kDeployed) {
      active.insert(id);
    } else if (request.state != u::service::RequestState::kRemoved &&
               request.state != u::service::RequestState::kFailed) {
      throw BenchFailure("request " + id + " left in state " +
                         u::service::to_string(request.state));
    }
  }
  if (active != expected) {
    throw BenchFailure("writer's active set differs from the client's books");
  }
  Fig1& f = *rig.fig1;
  if (f.ro->deployments().size() != expected.size() ||
      f.virtualizer->active_requests().size() != expected.size()) {
    throw BenchFailure("RO holds " +
                       std::to_string(f.ro->deployments().size()) +
                       " deployments, expected " +
                       std::to_string(expected.size()));
  }
  // Let VM boots and container starts finish, then pull statuses up.
  f.clock.run_until_idle();
  check(f.ro->sync_statuses(), "sync_statuses");
  auto config = f.virtualizer->get_config();
  if (!config.ok()) throw BenchFailure("final get-config failed");
  // The emulated domain's adapter reports no NF status, so get-config
  // shows its NFs as deploying for ever. Those are confirmed against the
  // emulated network itself: every component must be a running Click
  // process. The count is printed with the outcome
  // (status_confirmed_below).
  const auto& view = f.ro->global_view();
  return check_final_config(
      *config, rig.writer->requests(), expected, [&](const std::string& nf) {
        for (const auto& [bb_id, bb] : view.bisbis()) {
          for (const auto& [id, instance] : bb.nfs) {
            if (id != nf && id.rfind(nf + ".", 0) != 0) continue;
            if (instance.status == u::model::NfStatus::kRunning) continue;
            const auto* click = f.emu->find_click(id);
            if (bb.domain != "emu" || click == nullptr || !click->running) {
              return false;
            }
          }
        }
        return true;
      });
}

}  // namespace

PhaseResult run_poll_wire(const RunConfig& config, Trace* trace,
                          u::util::OrchestrationPool& pool, int setups) {
  const std::size_t epochs =
      config.smoke
          ? kSmokeWrites
          : static_cast<std::size_t>(kWritesPerSecond * config.seconds);
  const std::size_t target = config.smoke ? kSmokeLive : kLive;
  CpuRotor rotor;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int s = 0; s < setups; ++s) {
    rig.reset();
    rotor.next();
    const auto t0 = Clock::now();
    rig = build_rig(config, trace, pool);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  // Warm-up: reads only, so the state the timed phase starts from is the
  // prefill's.
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
    rotor.tick();
    rig->read_round(false);
  }

  // ---- timed phase
  rig->signature = Signature{};
  rig->deploys = 0;
  RoCounters before;
  if (trace != nullptr) {
    trace->reset();
    before = ro_counters_from_json(rig->control->control("mark"));
  }
  const auto writer0 = rig->writer_transport->counters();
  std::vector<u::proto::TransportCounters> readers0;
  std::vector<std::uint64_t> reply_bytes0;
  for (const auto& reader : rig->readers) {
    readers0.push_back(reader->counters());
    reply_bytes0.push_back(reader->reply_bytes());
  }
  Samples deploy_ms, remove_ms;
  std::uint64_t writes = 0, deploy_pushes = 0;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    rotor.tick();
    rig->read_round(true);
    if (rig->live.size() <= target) {
      std::uint64_t edits_before = 0;
      if (trace != nullptr) {
        trace->with([&](Trace::Data& d) { edits_before = d.edits; });
      }
      rig->deploy(&deploy_ms);
      if (trace != nullptr) {
        trace->with(
            [&](Trace::Data& d) { deploy_pushes += d.edits - edits_before; });
      }
    } else {
      rig->remove_oldest(&remove_ms);
    }
    ++writes;
  }
  const auto t1 = Clock::now();
  const double wall_s = ms_between(t0, t1) / 1000.0;
  const double cpu_s = process_cpu_s() - cpu0;
  const auto writer1 = rig->writer_transport->counters();
  RoCounters after;
  PushWall wall;
  if (trace != nullptr) {
    const u::json::Value read = rig->control->control("read");
    after = ro_counters_from_json(read);
    wall.p50 = read.get_number("push_wall_p50");
    wall.count = read.get_number("push_wall_count");
  }
  const std::string final_state = check_outputs(*rig);

  Samples get_ms, decode_ms, queue_ms, transport_ms;
  double read_bytes = 0, read_msgs = 0;
  for (std::size_t i = 0; i < rig->readers.size(); ++i) {
    const GetClient& reader = *rig->readers[i];
    get_ms.append(reader.get_ms);
    decode_ms.append(reader.decode_ms);
    queue_ms.append(reader.queue_ms);
    transport_ms.append(reader.transport_ms);
    read_bytes += static_cast<double>(reader.reply_bytes() - reply_bytes0[i]);
    const u::proto::TransportCounters& c = reader.counters();
    read_msgs += static_cast<double>(
        (c.messages_sent - readers0[i].messages_sent) +
        (c.messages_received - readers0[i].messages_received));
  }
  const double gets = static_cast<double>(get_ms.size());

  PhaseResult out;
  out.attempted = get_ms.size() + writes;
  out.failed = rig->signature.failed;
  out.ops_per_s = static_cast<double>(out.attempted) / wall_s;
  out.signature = "poll_wire seed=" + std::to_string(config.seed) + " " +
                  rig->signature.summary() + " " + final_state;
  out.metrics = {
      {"deploy_ms_p50", deploy_ms.pct(0.5, "deploy_ms"), "ms"},
      {"deploy_ms_p90", deploy_ms.pct(0.9, "deploy_ms"), "ms"},
      {"remove_ms_p50", remove_ms.pct(0.5, "remove_ms"), "ms"},
      {"ops_per_s", out.ops_per_s, "1/s"},
      {"accept_ratio",
       static_cast<double>(rig->signature.accepted) /
           static_cast<double>(rig->deploys),
       "ratio"},
      {"get_ms_p50", get_ms.pct(0.5, "get_ms"), "ms"},
      {"get_ms_p90", get_ms.pct(0.9, "get_ms"), "ms"},
      {"setup_s", median(setup_s), "s"},
  };
  if (trace != nullptr) {
    LayerInputs in;
    in.trace = trace;
    in.before = before;
    in.after = after;
    in.push_wall = wall;
    in.service_ms = deploy_ms.sum() + remove_ms.sum();
    in.requests = static_cast<double>(rig->deploys);
    in.waves = static_cast<double>(rig->deploys);
    in.deploy_pushes = static_cast<double>(deploy_pushes);
    in.wall_s = wall_s;
    in.cpu_s = cpu_s;
    double edits = 0;
    trace->with([&](Trace::Data& d) { edits = static_cast<double>(d.edits); });
    in.edit_kb_per_call =
        static_cast<double>(writer1.bytes_sent - writer0.bytes_sent) / 1024.0 /
        edits;
    in.get_kb_per_call = read_bytes / 1024.0 / gets;
    in.msgs_per_op =
        (read_msgs +
         static_cast<double>((writer1.messages_sent - writer0.messages_sent) +
                             (writer1.messages_received -
                              writer0.messages_received))) /
        static_cast<double>(out.attempted);
    in.get_decode_ms = decode_ms;
    in.wire_queue_ms = queue_ms;
    in.wire_transport_ms = transport_ms;
    out.metrics = layer_metrics(in);
  }
  return out;
}

}  // namespace perfbench
