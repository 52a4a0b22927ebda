// Legacy data-center domain: an OpenStack-style compute service plus an
// OpenDaylight-style gateway steering fabric (paper: "clouds managed by
// OpenStack and OpenDaylight").
//
// Compute: hypervisors with capacities; VM placement via the nova-like
// filter (capacity) + weigh (least loaded) scheduler; VM boot is
// asynchronous on the simulation clock. Networking: the whole DC is
// advertised as one BiS-BiS; internally a single gateway logical switch
// steers traffic among external ports and VM NICs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "infra/fabric.h"
#include "model/resources.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace unify::infra {

struct CloudConfig {
  SimTime api_latency_us = 2000;      ///< per REST-ish control call
  SimTime vm_boot_us = 1'500'000;     ///< BUILD -> ACTIVE
  SimTime flow_install_us = 800;      ///< ODL flow push
  int gateway_ports = 256;            ///< pre-provisioned gw switch size
  int external_ports = 4;             ///< gw ports reserved for uplinks
};

enum class VmStatus { kBuild, kActive, kDeleted, kError };
[[nodiscard]] const char* to_string(VmStatus status) noexcept;

struct Hypervisor {
  std::string id;
  model::Resources capacity;
  model::Resources allocated;
};

struct Vm {
  std::string id;
  std::string image;  ///< NF type name
  model::Resources flavor;
  std::string host;
  VmStatus status = VmStatus::kBuild;
  std::vector<int> nic_gw_ports;  ///< gateway ports of this VM's NICs
};

class Cloud {
 public:
  Cloud(SimClock& clock, std::string name, CloudConfig config = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The simulated time base every operation of this domain is charged
  /// against (shared machinery: concurrent control must serialize on it).
  [[nodiscard]] SimClock& clock() const noexcept { return *clock_; }

  Result<void> add_hypervisor(const std::string& id,
                              model::Resources capacity);

  /// Schedules and boots a VM with `nic_count` NICs attached to the
  /// gateway. Returns immediately with the VM in BUILD; it turns ACTIVE
  /// after vm_boot_us. Fails (kResourceExhausted) when no hypervisor fits.
  Result<void> boot_vm(const std::string& id, const std::string& image,
                       model::Resources flavor, int nic_count);
  Result<void> delete_vm(const std::string& id);
  [[nodiscard]] const Vm* find_vm(const std::string& id) const noexcept;

  /// Steering rule on the gateway. Endpoint names: "ext<k>" for external
  /// uplink k, or "<vm>:<nic>" for a VM NIC.
  Result<void> install_steering(const std::string& rule_id,
                                const std::string& from_endpoint,
                                const std::string& match_tag,
                                const std::string& to_endpoint,
                                const std::string& set_tag);
  Result<void> remove_steering(const std::string& rule_id);

  [[nodiscard]] model::Resources total_capacity() const noexcept;
  [[nodiscard]] model::Resources total_allocated() const noexcept;
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] std::uint64_t api_calls() const noexcept { return api_calls_; }

 private:
  [[nodiscard]] Result<std::string> schedule(const model::Resources& flavor);

  SimClock* clock_;
  std::string name_;
  CloudConfig config_;
  std::map<std::string, Hypervisor> hypervisors_;
  std::map<std::string, Vm> vms_;
  Fabric fabric_;
  int next_gw_port_ = 0;
  std::vector<int> free_gw_ports_;
  std::uint64_t api_calls_ = 0;
};

}  // namespace unify::infra
