// Emulated network domain: the reproduction of the paper's Mininet-based
// domain where NFs run as isolated Click processes on emulated hosts and
// the topology is programmed via NETCONF + OpenFlow.
//
// Each switch carries an attached execution environment (EE) — an emulated
// host with CPU/mem where Click processes run — so NFs can be spawned next
// to any switch. Flow programming reuses the shared Fabric.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "infra/fabric.h"
#include "model/resources.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace unify::infra {

struct EmuConfig {
  SimTime flow_mod_latency_us = 700;      ///< OpenFlow via emulated channel
  SimTime click_start_us = 120'000;       ///< forking a Click process
  SimTime click_stop_us = 20'000;
  int ee_ports_per_switch = 16;           ///< switch ports reserved for NFs
};

struct ClickProcess {
  std::string id;
  std::string type;  ///< NF type (maps to a Click configuration)
  std::string host;  ///< EE (switch) it runs beside
  model::Resources usage;
  bool running = false;
  std::vector<int> switch_ports;
};

struct ExecutionEnvironment {
  std::string switch_id;
  model::Resources capacity;
  model::Resources allocated;
  int next_port = 0;  ///< next EE-reserved port on the switch
  std::vector<int> free_ports;  ///< released EE ports available for reuse
};

class EmuNetwork {
 public:
  EmuNetwork(SimClock& clock, std::string name, EmuConfig config = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The simulated time base every operation of this domain is charged
  /// against (shared machinery: concurrent control must serialize on it).
  [[nodiscard]] SimClock& clock() const noexcept { return *clock_; }

  /// Adds a switch with `fabric_ports` inter-switch/SAP ports plus the
  /// configured EE port block, and an EE with `ee_capacity` beside it.
  Result<void> add_switch(const std::string& id, int fabric_ports,
                          model::Resources ee_capacity);
  Result<void> connect(const std::string& a, int port_a, const std::string& b,
                       int port_b, model::LinkAttrs attrs);
  Result<void> attach_sap(const std::string& sap, const std::string& sw,
                          int port, model::LinkAttrs attrs);

  /// Spawns a Click process beside switch `host`; its ports are patched to
  /// EE-reserved switch ports. Synchronous (charges start latency).
  Result<void> start_click(const std::string& id, const std::string& type,
                           const std::string& host, model::Resources usage,
                           int port_count);
  Result<void> stop_click(const std::string& id);
  [[nodiscard]] const ClickProcess* find_click(
      const std::string& id) const noexcept;

  Result<void> install_flow(const std::string& sw, FlowEntry entry);
  Result<void> remove_flow(const std::string& sw, const std::string& entry_id);

  [[nodiscard]] const std::map<std::string, ExecutionEnvironment>& ees()
      const noexcept {
    return ees_;
  }

  struct WireInfo {
    std::string a;
    int port_a;
    std::string b;
    int port_b;
    model::LinkAttrs attrs;
  };
  struct SapInfo {
    std::string sap;
    std::string sw;
    int port;
    model::LinkAttrs attrs;
  };
  [[nodiscard]] const std::vector<WireInfo>& wires() const noexcept {
    return wires_;
  }
  [[nodiscard]] const std::vector<SapInfo>& saps() const noexcept {
    return saps_;
  }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] std::uint64_t operations() const noexcept { return ops_; }

  /// Public (non-EE) port count of a switch; -1 when unknown.
  [[nodiscard]] int public_ports(const std::string& sw) const noexcept {
    const auto it = fabric_ports_.find(sw);
    return it == fabric_ports_.end() ? -1 : it->second;
  }

 private:
  SimClock* clock_;
  std::string name_;
  EmuConfig config_;
  Fabric fabric_;
  std::map<std::string, ExecutionEnvironment> ees_;
  std::map<std::string, ClickProcess> clicks_;
  std::map<std::string, int> fabric_ports_;  ///< switch -> public port count
  std::vector<WireInfo> wires_;
  std::vector<SapInfo> saps_;
  std::uint64_t ops_ = 0;
};

}  // namespace unify::infra
