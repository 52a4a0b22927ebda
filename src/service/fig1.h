// Canned assembly of the paper's Fig. 1 stack: four heterogeneous
// technology domains (Mininet-style emulated network, POX-controlled
// OpenFlow network, OpenStack+ODL data center, Universal Node) behind one
// resource orchestrator, a single-BiS-BiS virtualizer on top, and the
// service layer talking the Unify interface over a simulated channel.
//
// Used by the integration tests, the examples and the benchmarks; also
// provides a cross-domain data-plane packet tracer that walks the four
// switching fabrics, hopping between domains at the stitching points, to
// verify that a deployed chain actually steers traffic end to end.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "infra/cloud.h"
#include "infra/emu_network.h"
#include "infra/fabric.h"
#include "infra/sdn_network.h"
#include "infra/universal_node.h"
#include "service/service_layer.h"
#include "util/sim_clock.h"

namespace unify::service {

/// The assembled stack. Topology:
///
///   sap1 - [emu: s1 - s2] =xp-emu-sdn= [sdn: t1 - t2 - t3]
///            =xp-sdn-dc= [cloud dc] - sap2
///   [sdn: t3] =xp-sdn-un= [universal node] - sap3
struct Fig1Stack {
  SimClock clock;
  std::unique_ptr<infra::EmuNetwork> emu;
  std::unique_ptr<infra::SdnNetwork> sdn;
  std::unique_ptr<infra::Cloud> cloud;
  std::unique_ptr<infra::UniversalNode> un;
  std::unique_ptr<core::ResourceOrchestrator> ro;
  std::unique_ptr<core::Virtualizer> virtualizer;
  std::unique_ptr<ServiceLayer> service_layer;

  /// SAP/stitching endpoint registry for the cross-domain tracer:
  /// sap id -> (fabric, endpoint-name-in-that-fabric) pairs.
  std::map<std::string, std::vector<std::pair<infra::Fabric*, std::string>>>
      sap_endpoints;
  /// Reverse: fabric+endpoint -> sap id.
  std::map<std::pair<infra::Fabric*, std::string>, std::string> endpoint_saps;

  Fig1Stack() = default;
  Fig1Stack(const Fig1Stack&) = delete;
  Fig1Stack& operator=(const Fig1Stack&) = delete;
};

/// Builds and initializes the full stack (RO view merged, service layer
/// connected over the Unify channel): chain-DP mapping with NF
/// decomposition, and the OpenFlow domain reached through a PoxController
/// over a framed RPC channel (the paper's setup).
[[nodiscard]] Result<std::unique_ptr<Fig1Stack>> make_fig1_stack();

/// One hop of a cross-domain trace.
struct TraceStep {
  std::string domain;
  std::string ingress_endpoint;
  std::string egress_endpoint;
  std::string tag_out;
  std::size_t switch_hops = 0;
};

/// Injects a packet at `from_sap` and follows flow entries across domains
/// (handing the tag over at stitching points) until it exits at a customer
/// SAP. Succeeds when that SAP is `expect_sap`.
[[nodiscard]] Result<std::vector<TraceStep>> end_to_end_trace(
    Fig1Stack& stack, const std::string& from_sap,
    const std::string& expect_sap);

}  // namespace unify::service
