#include "service/fig1.h"

#include <cstdlib>

#include "adapters/cloud_adapter.h"
#include "adapters/emu_adapter.h"
#include "adapters/pox_controller.h"
#include "adapters/remote_sdn_adapter.h"
#include "adapters/un_adapter.h"
#include "mapping/chain_dp_mapper.h"

namespace unify::service {

namespace {

using model::LinkAttrs;
using model::Resources;

void register_endpoint(Fig1Stack& stack, const std::string& sap,
                       infra::Fabric* fabric, const std::string& endpoint) {
  stack.sap_endpoints[sap].emplace_back(fabric, endpoint);
  stack.endpoint_saps[{fabric, endpoint}] = sap;
}

}  // namespace

Result<std::unique_ptr<Fig1Stack>> make_fig1_stack() {
  auto stack = std::make_unique<Fig1Stack>();
  SimClock& clock = stack->clock;

  // ---- Mininet-style emulated domain: sap1 - s1 - s2 - (xp-emu-sdn)
  stack->emu = std::make_unique<infra::EmuNetwork>(clock, "emu");
  infra::EmuNetwork& emu = *stack->emu;
  UNIFY_RETURN_IF_ERROR(emu.add_switch("s1", 4, Resources{4, 4096, 50}));
  UNIFY_RETURN_IF_ERROR(emu.add_switch("s2", 4, Resources{4, 4096, 50}));
  UNIFY_RETURN_IF_ERROR(emu.connect("s1", 1, "s2", 1, {1000, 0.5}));
  UNIFY_RETURN_IF_ERROR(emu.attach_sap("sap1", "s1", 0, {1000, 0.1}));
  UNIFY_RETURN_IF_ERROR(emu.attach_sap("xp-emu-sdn", "s2", 2, {1000, 0.2}));

  // ---- POX-controlled OpenFlow transport: t1 - t2 - t3
  stack->sdn = std::make_unique<infra::SdnNetwork>(clock, "sdn");
  infra::SdnNetwork& sdn = *stack->sdn;
  for (const char* sw : {"t1", "t2", "t3"}) {
    UNIFY_RETURN_IF_ERROR(sdn.add_switch(sw, 4));
  }
  UNIFY_RETURN_IF_ERROR(sdn.connect("t1", 1, "t2", 1, {10000, 0.8}));
  UNIFY_RETURN_IF_ERROR(sdn.connect("t2", 2, "t3", 1, {10000, 0.8}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-emu-sdn", "t1", 0, {1000, 0.2}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-sdn-dc", "t2", 0, {10000, 0.3}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-sdn-un", "t3", 0, {10000, 0.2}));

  // ---- OpenStack + ODL data center: sap2 on ext1, stitch on ext0
  stack->cloud = std::make_unique<infra::Cloud>(clock, "dc");
  infra::Cloud& cloud = *stack->cloud;
  UNIFY_RETURN_IF_ERROR(cloud.add_hypervisor("hv1", {16, 16384, 200}));
  UNIFY_RETURN_IF_ERROR(cloud.add_hypervisor("hv2", {16, 16384, 200}));

  // ---- Universal Node: sap3 on ext1, stitch on ext0
  stack->un = std::make_unique<infra::UniversalNode>(clock, "un",
                                                     Resources{8, 8192, 100});

  // ---- Adapters
  auto emu_adapter = std::make_unique<adapters::EmuAdapter>(emu);
  auto [north, south] = proto::make_channel_pair(clock, 150);
  auto controller = std::make_shared<adapters::PoxController>(sdn, south);
  auto sdn_adapter =
      std::make_unique<adapters::RemoteSdnAdapter>("sdn", north);
  sdn_adapter->keep_alive(std::move(controller));
  auto cloud_adapter = std::make_unique<adapters::CloudAdapter>(cloud);
  cloud_adapter->map_sap(0, "xp-sdn-dc", {10000, 0.3});
  cloud_adapter->map_sap(1, "sap2", {10000, 0.1});
  auto un_adapter = std::make_unique<adapters::UnAdapter>(*stack->un);
  un_adapter->map_sap(0, "xp-sdn-un", {10000, 0.2});
  un_adapter->map_sap(1, "sap3", {10000, 0.1});

  // ---- Resource orchestrator + virtualizer + service layer
  stack->ro = std::make_unique<core::ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  UNIFY_RETURN_IF_ERROR(stack->ro->add_domain(std::move(emu_adapter)));
  UNIFY_RETURN_IF_ERROR(stack->ro->add_domain(std::move(sdn_adapter)));
  UNIFY_RETURN_IF_ERROR(stack->ro->add_domain(std::move(cloud_adapter)));
  UNIFY_RETURN_IF_ERROR(stack->ro->add_domain(std::move(un_adapter)));
  UNIFY_RETURN_IF_ERROR(stack->ro->initialize());

  stack->virtualizer = std::make_unique<core::Virtualizer>(
      *stack->ro, core::ViewPolicy::kSingleBisBis);
  stack->service_layer = std::make_unique<ServiceLayer>(core::make_unify_link(
      *stack->virtualizer, clock, "ro-north"));

  // ---- Endpoint registry for the cross-domain tracer.
  register_endpoint(*stack, "sap1", &emu.fabric(), "sap1");
  register_endpoint(*stack, "xp-emu-sdn", &emu.fabric(), "xp-emu-sdn");
  register_endpoint(*stack, "xp-emu-sdn", &sdn.fabric(), "xp-emu-sdn");
  register_endpoint(*stack, "xp-sdn-dc", &sdn.fabric(), "xp-sdn-dc");
  register_endpoint(*stack, "xp-sdn-un", &sdn.fabric(), "xp-sdn-un");
  register_endpoint(*stack, "xp-sdn-dc", &cloud.fabric(), "ext0");
  register_endpoint(*stack, "sap2", &cloud.fabric(), "ext1");
  register_endpoint(*stack, "xp-sdn-un", &stack->un->fabric(), "ext0");
  register_endpoint(*stack, "sap3", &stack->un->fabric(), "ext1");

  return stack;
}

Result<std::vector<TraceStep>> end_to_end_trace(Fig1Stack& stack,
                                                const std::string& from_sap,
                                                const std::string& expect_sap) {
  const auto start = stack.sap_endpoints.find(from_sap);
  if (start == stack.sap_endpoints.end() || start->second.size() != 1) {
    return Error{ErrorCode::kInvalidArgument,
                 from_sap + " is not a customer SAP"};
  }
  std::vector<TraceStep> steps;
  infra::Fabric* fabric = start->second[0].first;
  std::string endpoint = start->second[0].second;
  std::string tag;
  for (int hop = 0; hop < 64; ++hop) {
    const auto trace = fabric->trace(endpoint, tag);
    if (trace.dropped) {
      return Error{ErrorCode::kInfeasible,
                   "packet dropped after " + std::to_string(steps.size()) +
                       " domains: " + trace.drop_reason};
    }
    const std::string egress_tag =
        trace.hops.empty() ? tag : trace.hops.back().tag_after;
    const auto sap_it =
        stack.endpoint_saps.find({fabric, trace.egress_endpoint});
    if (sap_it == stack.endpoint_saps.end()) {
      // Delivered into an NF port "name:p": model the NF as pass-through,
      // re-injecting untagged at its next port (chains enter NFs at port p
      // and leave at p+1 by the catalog's convention).
      const auto colon = trace.egress_endpoint.rfind(':');
      if (colon != std::string::npos) {
        const std::string nf = trace.egress_endpoint.substr(0, colon);
        const int port = std::atoi(trace.egress_endpoint.c_str() +
                                   static_cast<long>(colon) + 1);
        const std::string out_port =
            nf + ":" + std::to_string(port + 1);
        if (fabric->attachment(out_port).has_value()) {
          steps.push_back(TraceStep{"nf:" + nf, endpoint, out_port,
                                    egress_tag, trace.hops.size()});
          endpoint = out_port;
          tag.clear();
          continue;
        }
      }
      return Error{ErrorCode::kInfeasible,
                   "trace ended inside a domain at " + trace.egress_endpoint};
    }
    steps.push_back(TraceStep{sap_it->second, endpoint,
                              trace.egress_endpoint, egress_tag,
                              trace.hops.size()});
    const std::string& reached_sap = sap_it->second;
    if (reached_sap == expect_sap) return steps;
    // Stitching point: continue in the peer domain.
    const auto& peers = stack.sap_endpoints.at(reached_sap);
    if (peers.size() != 2) {
      return Error{ErrorCode::kInfeasible,
                   "packet exited at unexpected customer SAP " + reached_sap};
    }
    for (const auto& [peer_fabric, peer_endpoint] : peers) {
      if (peer_fabric != fabric) {
        fabric = peer_fabric;
        endpoint = peer_endpoint;
        break;
      }
    }
    tag = egress_tag;
  }
  return Error{ErrorCode::kInfeasible, "trace exceeded domain-hop limit"};
}

}  // namespace unify::service
