// churn and embed_large: one service-layer client in a closed loop over an
// in-memory Unify link. Each step is a wave of k enqueue() arrivals
// dispatched by one pump(), a remove_batch() of the oldest live services
// that brings the population back to its target, and one get-config
// through a second Unify session.
//
//  * churn — hundreds of live services on a small accept-all domain line:
//    mapping is trivial, so a request costs the full-tree northbound work
//    (config build, JSON encode/decode, translate and diff, hashing).
//  * embed_large — a few dozen live services on 16 domains stitched
//    through shared SAPs, with capacity-tight waves: mapping, slicing and
//    the 16-domain push fan-out dominate, and some requests are rejected.
#include <algorithm>
#include <deque>
#include <iomanip>
#include <memory>
#include <sstream>

#include "adapters/domain_adapter.h"
#include "catalog/nf_catalog.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "model/nffg_builder.h"
#include "model/nffg_hash.h"
#include "probes.h"
#include "proto/channel.h"
#include "service/service_layer.h"
#include "sg/service_graph.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "workloads.h"

namespace perfbench {

void Signature::add(const std::string& id, Outcome outcome) {
  for (const char c : id + ":" + static_cast<char>(outcome) + "|") {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  switch (outcome) {
    case Outcome::kAccepted: ++accepted; break;
    case Outcome::kRejected: ++rejected; break;
    case Outcome::kFailed: ++failed; break;
  }
}

std::string Signature::summary() const {
  return "accepted=" + std::to_string(accepted) +
         " rejected=" + std::to_string(rejected) +
         " failed=" + std::to_string(failed) + " signature=" + hex() +
         (first_failure.empty() ? ""
                                : " first_failure=\"" + first_failure + "\"");
}

void Signature::fail(const std::string& id, const std::string& error) {
  if (first_failure.empty()) first_failure = id + ": " + error;
  add(id, Outcome::kFailed);
}

std::string Signature::hex() const {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash_;
  return out.str();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string check_final_config(
    const u::model::Nffg& config,
    const std::map<std::string, u::service::ServiceRequest>& requests,
    const std::set<std::string>& live,
    const std::function<bool(const std::string&)>& running_below) {
  std::map<std::string, u::model::NfStatus> nfs;
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const auto& [nf_id, nf] : bb.nfs) nfs[nf_id] = nf.status;
  }
  std::size_t want = 0, confirmed_below = 0;
  for (const std::string& id : live) {
    for (const auto& [nf_id, nf] : requests.at(id).graph.nfs()) {
      ++want;
      const std::string client_nf = id + "." + nf_id;
      const auto it = nfs.find(client_nf);
      if (it == nfs.end()) {
        throw BenchFailure("NF " + client_nf +
                           " missing in the final get-config");
      }
      if (it->second == u::model::NfStatus::kRunning) continue;
      if (it->second != u::model::NfStatus::kDeploying ||
          !running_below(client_nf)) {
        throw BenchFailure("NF " + client_nf + " is " +
                           u::model::to_string(it->second) +
                           " in the final get-config");
      }
      ++confirmed_below;
    }
  }
  if (nfs.size() != want) {
    throw BenchFailure("final get-config holds " + std::to_string(nfs.size()) +
                       " NFs, expected " + std::to_string(want));
  }
  std::ostringstream out;
  out << "config_hash=" << std::hex << std::setw(16) << std::setfill('0')
      << u::model::content_hash(config);
  if (confirmed_below > 0) {
    out << std::dec << " status_confirmed_below=" << confirmed_below;
  }
  return out.str();
}

namespace {

using u::model::Nffg;
using u::model::Resources;

/// A domain that accepts every slice and reports its NFs running (a domain
/// whose NFs boot instantly). Keeps embedding the only way to fail.
class AcceptAllDomain final : public u::adapters::DomainAdapter {
 public:
  AcceptAllDomain(std::string name, Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] u::Result<Nffg> fetch_view() override { return view_; }
  u::Result<void> apply(const Nffg& desired) override {
    ++applies_;
    view_ = desired;
    for (auto& [bb_id, bb] : view_.bisbis()) {
      for (auto& [nf_id, nf] : bb.nfs) nf.status = u::model::NfStatus::kRunning;
    }
    return u::Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applies_;
  }

 private:
  std::string name_;
  Nffg view_;
  std::uint64_t applies_ = 0;
};

/// What distinguishes the two loop workloads.
struct LoopSpec {
  const char* name;
  std::vector<Nffg> (*domains)(bool smoke);
  u::sg::ServiceGraph (*request)(u::Rng& rng, const std::string& id,
                                 bool smoke);
  std::size_t live;              ///< population held between steps
  std::size_t wave;              ///< arrivals per step
  double steps_per_second;       ///< calibrated: sets the fixed step count
  std::size_t smoke_live;
  bool rejections_expected;      ///< capacity rejections are outcomes
};

// ---- churn ---------------------------------------------------------------

constexpr int kChurnDomains = 4;
const char* const kChurnNfs[] = {"nat", "fw-lite", "dpi"};

/// The churn-soak line (one BiS-BiS per domain, customer SAP sap<i>,
/// stitches x<i>), widened so hundreds of chains fit.
std::vector<Nffg> churn_domains(bool) {
  std::vector<Nffg> out;
  for (int i = 0; i < kChurnDomains; ++i) {
    const std::string bb = "bb" + std::to_string(i);
    Nffg g{bb + "-view"};
    (void)g.add_bisbis(u::model::make_bisbis(bb, {8192, 1 << 24, 1 << 20}, 4));
    u::model::attach_sap(g, "sap" + std::to_string(i), bb, 0, {1e6, 0.1});
    if (i > 0) {
      u::model::attach_sap(g, "x" + std::to_string(i - 1), bb, 1, {1e6, 0.5});
    }
    if (i + 1 < kChurnDomains) {
      u::model::attach_sap(g, "x" + std::to_string(i), bb, 2, {1e6, 0.5});
    }
    out.push_back(std::move(g));
  }
  return out;
}

u::sg::ServiceGraph churn_request(u::Rng& rng, const std::string& id, bool) {
  const auto src = rng.next_below(kChurnDomains);
  const auto dst =
      (src + 1 + rng.next_below(kChurnDomains - 1)) % kChurnDomains;
  std::vector<std::string> nfs;
  const auto length = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < length; ++i) {
    nfs.emplace_back(kChurnNfs[rng.next_below(3)]);
  }
  return u::sg::make_chain(id, "sap" + std::to_string(src), nfs,
                           "sap" + std::to_string(dst),
                           rng.next_double(1, 10), 500);
}

// ---- embed_large ---------------------------------------------------------

constexpr int kEmbedDomains = 16;
constexpr int kEmbedSmokeDomains = 4;
const char* const kEmbedNfs[] = {"nat", "fw-lite", "dpi", "ids"};

int embed_domain_count(bool smoke) {
  return smoke ? kEmbedSmokeDomains : kEmbedDomains;
}

/// 16 domains of 20 nodes (2 with compute, the rest pure switches), each
/// a bounded-degree random tree plus extra edges, stitched into a ring
/// through shared SAPs x<k> (domain k and k+1). The substrate is a fixed
/// input of the workload; the seed drives the request stream.
std::vector<Nffg> embed_domains(bool smoke) {
  const int domains = embed_domain_count(smoke);
  const int nodes = smoke ? 8 : 20;
  constexpr int kCompute = 2;
  constexpr int kPorts = 8;
  u::Rng rng(0x5eed);
  std::vector<Nffg> out;
  for (int d = 0; d < domains; ++d) {
    const std::string dn = "d" + std::to_string(d);
    const auto node = [&](int i) { return dn + ".n" + std::to_string(i); };
    Nffg g{dn + "-view"};
    std::vector<int> next_port(static_cast<std::size_t>(nodes), 0);
    for (int i = 0; i < nodes; ++i) {
      const Resources cap =
          i % (nodes / kCompute) == 0 ? Resources{8, 16384, 200}
                                      : Resources{0, 0, 0};
      (void)g.add_bisbis(u::model::make_bisbis(node(i), cap, kPorts, 0.05));
    }
    const auto connect = [&](int a, int b) {
      auto& pa = next_port[static_cast<std::size_t>(a)];
      auto& pb = next_port[static_cast<std::size_t>(b)];
      if (a == b || pa >= kPorts - 1 || pb >= kPorts - 1) return;
      if (g.find_link("l-" + node(a) + "-" + node(b)) != nullptr ||
          g.find_link("l-" + node(b) + "-" + node(a)) != nullptr) {
        return;
      }
      u::model::connect(g, node(a), pa++, node(b), pb++, {10000, 0.2});
    };
    for (int i = 1; i < nodes; ++i) {
      connect(i, i - 1 - static_cast<int>(rng.next_below(std::min(i, 4))));
    }
    for (int e = 0; e < nodes / 2; ++e) {
      connect(static_cast<int>(rng.next_below(nodes)),
              static_cast<int>(rng.next_below(nodes)));
    }
    // Customer SAP plus the two ring stitches, each on its own node's
    // reserved last port.
    const auto sap = [&](const std::string& id, double bw, double delay) {
      int at = static_cast<int>(rng.next_below(nodes));
      while (next_port[static_cast<std::size_t>(at)] == kPorts) {
        at = (at + 1) % nodes;
      }
      auto& port = next_port[static_cast<std::size_t>(at)];
      u::model::attach_sap(g, id, node(at), kPorts - 1, {bw, delay});
      port = kPorts;
    };
    sap("c" + std::to_string(d), 100000, 0.1);
    sap("x" + std::to_string(d), 400, 0.5);
    sap("x" + std::to_string((d + domains - 1) % domains), 400, 0.5);
    out.push_back(std::move(g));
  }
  return out;
}

u::sg::ServiceGraph embed_request(u::Rng& rng, const std::string& id,
                                  bool smoke) {
  const int domains = embed_domain_count(smoke);
  const auto src = static_cast<int>(rng.next_below(domains));
  const int hop = 1 + static_cast<int>(rng.next_below(3));
  const int dst = (src + (rng.next_bool(0.5) ? hop : domains - hop)) % domains;
  std::vector<std::string> nfs;
  const auto length = 2 + rng.next_below(2);
  for (std::uint64_t i = 0; i < length; ++i) {
    nfs.emplace_back(kEmbedNfs[rng.next_below(4)]);
  }
  return u::sg::make_chain(id, "c" + std::to_string(src), nfs,
                           "c" + std::to_string(dst),
                           rng.next_double(40, 120), 500);
}

// ---- the loop --------------------------------------------------------------

/// One assembled stack. Declaration order is teardown order reversed: the
/// sessions go first, the RO (which owns the domain adapters) last.
struct LoopStack {
  u::SimClock clock;
  std::unique_ptr<u::core::ResourceOrchestrator> ro;
  std::unique_ptr<u::core::Virtualizer> virtualizer;
  std::shared_ptr<u::proto::Endpoint> service_end;  ///< counters only
  std::unique_ptr<u::service::ServiceLayer> layer;
  std::shared_ptr<void> reader_server;
  std::unique_ptr<GetClient> reader;
};

std::unique_ptr<LoopStack> build_stack(const LoopSpec& spec, bool smoke,
                                       Trace* trace,
                                       u::util::OrchestrationPool& pool) {
  auto stack = std::make_unique<LoopStack>();
  u::core::RoOptions options;
  options.pool = &pool;
  stack->ro = std::make_unique<u::core::ResourceOrchestrator>(
      "ro", bench_mapper(trace), u::catalog::default_catalog(), options);
  std::size_t i = 0;
  for (Nffg& view : spec.domains(smoke)) {
    auto domain = std::make_unique<AcceptAllDomain>("d" + std::to_string(i++),
                                                     std::move(view));
    if (auto added =
            stack->ro->add_domain(maybe_timed(std::move(domain), trace));
        !added.ok()) {
      throw BenchFailure("add_domain: " + added.error().to_string());
    }
  }
  if (auto ready = stack->ro->initialize(); !ready.ok()) {
    throw BenchFailure("initialize: " + ready.error().to_string());
  }
  stack->virtualizer = std::make_unique<u::core::Virtualizer>(
      *stack->ro, u::core::ViewPolicy::kSingleBisBis);

  // The service layer's Unify link, built here (not make_unify_link) so its
  // transport counters stay readable.
  auto [north, south] = u::proto::make_channel_pair(stack->clock, 200);
  auto server = make_server(*stack->virtualizer, south, trace);
  auto client =
      std::make_unique<u::core::UnifyClientAdapter>("north", north);
  client->keep_alive(std::move(server));
  stack->service_end = north;
  std::unique_ptr<u::adapters::DomainAdapter> layer_client = std::move(client);
  if (trace != nullptr) {
    layer_client =
        std::make_unique<TimedClient>(std::move(layer_client), *trace);
  }
  stack->layer = std::make_unique<u::service::ServiceLayer>(
      std::move(layer_client), &pool);
  u::service::AdmissionPolicy policy;
  policy.max_wave = spec.wave;
  policy.queue_capacity = spec.wave;
  stack->layer->set_admission_policy(policy);

  auto [reader_north, reader_south] =
      u::proto::make_channel_pair(stack->clock, 200);
  stack->reader_server =
      make_server(*stack->virtualizer, reader_south, trace);
  stack->reader = std::make_unique<GetClient>(reader_north, trace != nullptr);
  return stack;
}

/// The client side of the loop: request generation, the live population
/// (oldest first) and the outcome trail.
struct LoopClient {
  LoopClient(const LoopSpec& s, bool smoke_size, std::uint64_t seed)
      : spec(&s), smoke(smoke_size), rng(seed) {}

  const LoopSpec* spec;
  bool smoke;
  u::Rng rng;
  std::uint64_t next_id = 0;
  std::deque<std::string> live;
  Signature signature;
  u::SimTime now = 0;
  std::uint64_t deploys = 0;  ///< requests attempted

  /// One wave of arrivals, dispatched by one pump().
  void wave(u::service::ServiceLayer& layer, Samples* deploy_ms) {
    std::vector<std::string> ids;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < spec->wave; ++i) {
      ids.push_back("r" + std::to_string(next_id++));
      const u::sg::ServiceGraph graph = spec->request(rng, ids.back(), smoke);
      if (auto queued = layer.enqueue(graph, now); !queued.ok()) {
        throw BenchFailure("enqueue " + ids.back() + ": " +
                           queued.error().to_string());
      }
    }
    const u::service::PumpReport report = layer.pump(now);
    const auto t1 = Clock::now();
    if (deploy_ms != nullptr) deploy_ms->add(ms_between(t0, t1));
    now += 1000;
    deploys += ids.size();
    if (report.dispatched != ids.size()) {
      throw BenchFailure("pump dispatched " +
                         std::to_string(report.dispatched) + " of " +
                         std::to_string(ids.size()));
    }
    for (const std::string& id : ids) {
      const u::service::ServiceRequest& request = layer.requests().at(id);
      const bool capacity =
          request.state == u::service::RequestState::kFailed &&
          (request.error.rfind("infeasible", 0) == 0 ||
           request.error.rfind("resource_exhausted", 0) == 0);
      if (request.state == u::service::RequestState::kDeployed) {
        signature.add(id, Signature::Outcome::kAccepted);
        live.push_back(id);
      } else if (capacity && spec->rejections_expected) {
        signature.add(id, Signature::Outcome::kRejected);
      } else {
        signature.fail(id, std::string(u::service::to_string(request.state)) +
                               " " + request.error);
      }
    }
  }

  /// Removes the oldest services above `target`; returns how many it
  /// tried. A removal that fails stays live and is retried next step.
  std::size_t trim(u::service::ServiceLayer& layer, std::size_t target,
                   Samples* remove_ms) {
    if (live.size() <= target) return 0;
    const std::vector<std::string> ids(live.begin(),
                                       live.end() - static_cast<long>(target));
    const auto t0 = Clock::now();
    const auto results = layer.remove_batch(ids);
    if (remove_ms != nullptr) remove_ms->add(ms_between(t0, Clock::now()));
    live.erase(live.begin(), live.begin() + static_cast<long>(ids.size()));
    for (std::size_t i = ids.size(); i-- > 0;) {
      if (!results[i].ok()) {
        signature.fail("remove " + ids[i], results[i].error().to_string());
        live.push_front(ids[i]);
      }
    }
    return ids.size();
  }
};

/// The output check: the service layer's active set, the RO's deployment
/// count and a final get-config must all agree with the client's books.
std::string check_outputs(LoopStack& stack, const LoopClient& client) {
  std::set<std::string> expected(client.live.begin(), client.live.end());
  std::set<std::string> active;
  for (const auto& [id, request] : stack.layer->requests()) {
    switch (request.state) {
      case u::service::RequestState::kDeployed:
        active.insert(id);
        break;
      case u::service::RequestState::kRemoved:
      case u::service::RequestState::kFailed:
        break;
      default:
        throw BenchFailure("request " + id + " left in state " +
                           u::service::to_string(request.state));
    }
  }
  if (active != expected) {
    throw BenchFailure("service layer active set (" +
                       std::to_string(active.size()) +
                       ") differs from the client's live set (" +
                       std::to_string(expected.size()) + ")");
  }
  if (stack.ro->deployments().size() != expected.size() ||
      stack.virtualizer->active_requests().size() != expected.size()) {
    throw BenchFailure("RO holds " +
                       std::to_string(stack.ro->deployments().size()) +
                       " deployments, expected " +
                       std::to_string(expected.size()));
  }
  if (auto synced = stack.ro->sync_statuses(); !synced.ok()) {
    throw BenchFailure("sync_statuses: " + synced.error().to_string());
  }
  const Nffg config = stack.reader->get(/*record=*/false);
  return check_final_config(config, stack.layer->requests(), expected,
                            [](const std::string&) { return false; });
}

PhaseResult run_loop(const LoopSpec& spec, const RunConfig& config,
                     Trace* trace, u::util::OrchestrationPool& pool,
                     int setups) {
  const std::size_t target = config.smoke ? spec.smoke_live : spec.live;
  const std::size_t steps =
      config.smoke ? 100
                   : static_cast<std::size_t>(spec.steps_per_second *
                                              config.seconds);
  std::unique_ptr<LoopStack> stack;
  std::unique_ptr<LoopClient> client;
  std::vector<double> setup_s;
  for (int s = 0; s < setups; ++s) {
    stack.reset();
    client.reset();
    const auto t0 = Clock::now();
    stack = build_stack(spec, config.smoke, trace, pool);
    client = std::make_unique<LoopClient>(spec, config.smoke, config.seed);
    for (std::size_t w = 0; client->live.size() < target; ++w) {
      if (w > 4 * target) throw BenchFailure("prefill cannot reach target");
      client->wave(*stack->layer, nullptr);
    }
    (void)client->trim(*stack->layer, target, nullptr);
    if (client->signature.failed > 0) {
      throw BenchFailure("prefill: " + client->signature.first_failure);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // ---- timed phase
  client->signature = Signature{};
  client->deploys = 0;
  if (trace != nullptr) {
    trace->reset();
    stack->ro->metrics().reset();
  }
  const RoCounters before = read_ro(*stack->ro, pool);
  const auto sent0 = stack->service_end->counters();
  const auto reader0 = stack->reader->counters();
  const std::uint64_t reply0 = stack->reader->reply_bytes();
  Samples deploy_ms, remove_ms;
  stack->reader->get_ms.clear();
  std::uint64_t removes = 0, gets = 0, deploy_pushes = 0;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (std::size_t step = 0; step < steps; ++step) {
    std::uint64_t edits_before = 0;
    if (trace != nullptr) {
      trace->with([&](Trace::Data& d) { edits_before = d.edits; });
    }
    client->wave(*stack->layer, &deploy_ms);
    if (trace != nullptr) {
      trace->with(
          [&](Trace::Data& d) { deploy_pushes += d.edits - edits_before; });
    }
    removes += client->trim(*stack->layer, target, &remove_ms);
    (void)stack->reader->get();
    ++gets;
  }
  const auto t1 = Clock::now();
  const double wall_s = ms_between(t0, t1) / 1000.0;
  const double cpu_s = process_cpu_s() - cpu0;
  const RoCounters after = read_ro(*stack->ro, pool);
  const auto sent1 = stack->service_end->counters();
  const auto reader1 = stack->reader->counters();
  const std::uint64_t reply1 = stack->reader->reply_bytes();

  const std::string final_state = check_outputs(*stack, *client);

  PhaseResult out;
  out.attempted = client->deploys + removes + gets;
  out.failed = client->signature.failed;
  out.ops_per_s = static_cast<double>(out.attempted) / wall_s;
  out.signature = std::string(spec.name) + " seed=" +
                  std::to_string(config.seed) + " " +
                  client->signature.summary() + " " + final_state;
  const Samples& get_ms = stack->reader->get_ms;
  out.metrics = {
      {"deploy_ms_p50", deploy_ms.pct(0.5, "deploy_ms"), "ms"},
      {"deploy_ms_p90", deploy_ms.pct(0.9, "deploy_ms"), "ms"},
      {"remove_ms_p50", remove_ms.pct(0.5, "remove_ms"), "ms"},
      {"ops_per_s", out.ops_per_s, "1/s"},
      {"accept_ratio",
       static_cast<double>(client->signature.accepted) /
           static_cast<double>(client->deploys),
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
    in.push_wall = push_wall(*stack->ro);
    in.service_ms = deploy_ms.sum() + remove_ms.sum();
    in.requests = static_cast<double>(client->deploys);
    in.waves = static_cast<double>(steps);
    in.deploy_pushes = static_cast<double>(deploy_pushes);
    in.wall_s = wall_s;
    in.cpu_s = cpu_s;
    double edits = 0;
    trace->with([&](Trace::Data& d) { edits = static_cast<double>(d.edits); });
    in.edit_kb_per_call =
        static_cast<double>(sent1.bytes_sent - sent0.bytes_sent) / 1024.0 /
        edits;
    in.get_kb_per_call = static_cast<double>(reply1 - reply0) / 1024.0 /
                         static_cast<double>(gets);
    in.msgs_per_op =
        static_cast<double>(
            (sent1.messages_sent - sent0.messages_sent) +
            (sent1.messages_received - sent0.messages_received) +
            (reader1.messages_sent - reader0.messages_sent) +
            (reader1.messages_received - reader0.messages_received)) /
        static_cast<double>(out.attempted);
    in.get_decode_ms = stack->reader->decode_ms;
    in.wire_queue_ms = stack->reader->queue_ms;
    in.wire_transport_ms = stack->reader->transport_ms;
    out.metrics = layer_metrics(in);
  }
  return out;
}

const LoopSpec kChurn{"churn", churn_domains, churn_request,
                      /*live=*/200, /*wave=*/8, /*steps_per_second=*/16,
                      /*smoke_live=*/16, /*rejections_expected=*/false};
const LoopSpec kEmbedLarge{"embed_large", embed_domains, embed_request,
                           /*live=*/24, /*wave=*/4, /*steps_per_second=*/15,
                           /*smoke_live=*/6, /*rejections_expected=*/true};

}  // namespace

PhaseResult run_churn(const RunConfig& config, Trace* trace,
                      u::util::OrchestrationPool& pool, int setups) {
  return run_loop(kChurn, config, trace, pool, setups);
}

PhaseResult run_embed_large(const RunConfig& config, Trace* trace,
                            u::util::OrchestrationPool& pool, int setups) {
  return run_loop(kEmbedLarge, config, trace, pool, setups);
}

}  // namespace perfbench
