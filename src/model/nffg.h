// The NFFG (Network Function Forwarding Graph): the joint virtualization
// data model exchanged over the Unify interface.
//
// An NFFG is both (a) a *resource view* a virtualizer exposes to its manager
// — interconnected BiS-BiS nodes with capacities — and (b) a *configuration*
// the manager writes back: NF instances placed onto BiS-BiS nodes plus
// flowrules steering traffic among infrastructure, SAP and NF ports. The
// paper models this tree in Yang; here it is a typed C++ object model with a
// JSON codec (nffg_json.h), structural validation (validate()), delta
// computation (nffg_diff.h) and multi-domain merge (nffg_merge.h).
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/resources.h"
#include "util/result.h"

namespace unify::model {

/// A port on a BiS-BiS, NF or SAP. Port ids are local to their owner.
struct Port {
  int id = 0;
  std::string name;

  friend bool operator==(const Port& a, const Port& b) noexcept {
    return a.id == b.id && a.name == b.name;
  }
};

/// Reference to a port of some node: BiS-BiS infra port, NF port or SAP
/// port, disambiguated by the node id.
struct PortRef {
  std::string node;  ///< owning node id ("" = unset)
  int port = 0;

  [[nodiscard]] bool empty() const noexcept { return node.empty(); }
  [[nodiscard]] std::string to_string() const {
    return node + ":" + std::to_string(port);
  }
  friend bool operator==(const PortRef& a, const PortRef& b) noexcept {
    return a.node == b.node && a.port == b.port;
  }
  friend auto operator<=>(const PortRef& a, const PortRef& b) noexcept {
    if (const auto c = a.node <=> b.node; c != 0) return c;
    return a.port <=> b.port;
  }
};

/// Lifecycle of an NF instance as reported by the infrastructure.
enum class NfStatus { kRequested, kDeploying, kRunning, kStopped, kFailed };
[[nodiscard]] const char* to_string(NfStatus status) noexcept;
[[nodiscard]] std::optional<NfStatus> nf_status_from_string(
    std::string_view name) noexcept;

/// An NF instance placed on (nested under) a BiS-BiS node.
struct NfInstance {
  std::string id;
  std::string type;  ///< catalog type name, e.g. "firewall"
  Resources requirement;
  std::vector<Port> ports;
  NfStatus status = NfStatus::kRequested;

  [[nodiscard]] bool has_port(int port) const noexcept;
  friend bool operator==(const NfInstance& a, const NfInstance& b) noexcept {
    return a.id == b.id && a.type == b.type &&
           a.requirement == b.requirement && a.ports == b.ports &&
           a.status == b.status;
  }
};

/// One traffic-steering rule inside a BiS-BiS: packets entering `in` that
/// carry `match_tag` (empty = wildcard) are forwarded to `out`, optionally
/// re-tagged to `set_tag` (empty = leave, "-" = strip). `bandwidth` is the
/// reservation charged to the underlying path.
struct Flowrule {
  std::string id;
  PortRef in;
  PortRef out;
  std::string match_tag;
  std::string set_tag;
  double bandwidth = 0;

  friend bool operator==(const Flowrule& a, const Flowrule& b) noexcept {
    return a.id == b.id && a.in == b.in && a.out == b.out &&
           a.match_tag == b.match_tag && a.set_tag == b.set_tag &&
           a.bandwidth == b.bandwidth;
  }
};

/// Big Switch with Big Software: forwarding element fused with
/// compute/storage able to host NFs and steer traffic among its ports.
struct BisBis {
  std::string id;
  std::string name;
  std::string domain;           ///< owning technology domain ("" at leaves)
  Resources capacity;
  std::vector<Port> ports;      ///< infrastructure-facing ports
  std::vector<std::string> nf_types;  ///< supported NF types; empty = any
  std::map<std::string, NfInstance> nfs;
  std::vector<Flowrule> flowrules;
  double internal_delay = 0;    ///< ms charged for crossing this node
  /// Embedding-cost bias projected by the orchestrator's health manager
  /// (0 = healthy domain). Orchestrator-local annotation: deliberately not
  /// serialized to JSON and not part of Nffg equality, so slices stay
  /// byte-identical and dirty tracking is unaffected.
  double health_penalty = 0;

  [[nodiscard]] bool has_port(int port) const noexcept;
  [[nodiscard]] bool supports_nf_type(const std::string& type) const noexcept;
  [[nodiscard]] const Flowrule* find_flowrule(
      const std::string& id) const noexcept;

  /// Sum of requirements of NFs currently placed here.
  [[nodiscard]] Resources allocated() const noexcept;
  /// capacity - allocated().
  [[nodiscard]] Resources residual() const noexcept;
};

/// Service Access Point: where customer traffic enters/leaves the graph.
/// Modelled as a node with a single port 0.
struct Sap {
  std::string id;
  std::string name;
};

/// A unidirectional link between two ports (BiS-BiS<->BiS-BiS or
/// SAP<->BiS-BiS). `reserved` tracks bandwidth already promised to chains.
struct Link {
  std::string id;
  PortRef from;
  PortRef to;
  LinkAttrs attrs;
  double reserved = 0;

  [[nodiscard]] double residual_bandwidth() const noexcept {
    return attrs.bandwidth - reserved;
  }
};

/// End-to-end service requirement carried inside a virtualizer config (the
/// paper's "bandwidth or delay constraints between arbitrary elements"):
/// annotates the config so a lower-layer orchestrator can re-map the
/// placement at its own granularity while honouring the constraint.
/// `via` is the id of the flowrule (SG link) by which the constrained chain
/// leaves `from_sap`; empty when the hint does not name its chain.
struct ServiceHint {
  std::string id;
  std::string from_sap;
  std::string to_sap;
  double max_delay = std::numeric_limits<double>::infinity();  ///< ms
  double min_bandwidth = 0;                                    ///< Mbit/s
  std::string via = {};

  friend bool operator==(const ServiceHint& a, const ServiceHint& b) noexcept {
    return a.id == b.id && a.from_sap == b.from_sap && a.to_sap == b.to_sap &&
           a.max_delay == b.max_delay && a.min_bandwidth == b.min_bandwidth &&
           a.via == b.via;
  }
};

/// Placement constraint carried inside a virtualizer config alongside the
/// hints: restricts where the NFs of the config may be re-mapped by lower
/// layers.
enum class ConstraintKind {
  kAntiAffinity,  ///< nf_a and nf_b must land on different BiS-BiS
  kPin,           ///< nf_a must land exactly on `host`
  kForbid,        ///< nf_a must not land on `host`
};
[[nodiscard]] const char* to_string(ConstraintKind kind) noexcept;

struct PlacementConstraint {
  ConstraintKind kind = ConstraintKind::kAntiAffinity;
  std::string nf_a;
  std::string nf_b;  ///< anti-affinity peer (unused otherwise)
  std::string host;  ///< pin/forbid target (unused for anti-affinity)

  friend bool operator==(const PlacementConstraint& a,
                         const PlacementConstraint& b) noexcept {
    return a.kind == b.kind && a.nf_a == b.nf_a && a.nf_b == b.nf_b &&
           a.host == b.host;
  }
};

/// Statistics snapshot used by views, logs and benchmarks.
struct NffgStats {
  std::size_t bisbis_count = 0;
  std::size_t sap_count = 0;
  std::size_t link_count = 0;
  std::size_t nf_count = 0;
  std::size_t flowrule_count = 0;
  Resources total_capacity;
  Resources total_allocated;
};

struct NffgDelta;  // nffg_delta.h

/// The NFFG container. Node/link ids are strings unique within their kind.
/// Maps keep entities sorted by id so iteration, serialization and diffs
/// are deterministic.
class Nffg {
 public:
  Nffg() = default;
  explicit Nffg(std::string id, std::string name = {})
      : id_(std::move(id)), name_(std::move(name)) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_id(std::string id) { id_ = std::move(id); }

  // ----------------------------------------------------------- BiS-BiS

  /// Fails with kAlreadyExists on duplicate id (across all node kinds).
  Result<void> add_bisbis(BisBis node);
  [[nodiscard]] const BisBis* find_bisbis(const std::string& id) const noexcept;
  [[nodiscard]] BisBis* find_bisbis(const std::string& id) noexcept;
  Result<void> remove_bisbis(const std::string& id);
  [[nodiscard]] const std::map<std::string, BisBis>& bisbis() const noexcept {
    return bisbis_;
  }
  [[nodiscard]] std::map<std::string, BisBis>& bisbis() noexcept {
    return bisbis_;
  }

  // --------------------------------------------------------------- SAP

  Result<void> add_sap(Sap sap);
  [[nodiscard]] const Sap* find_sap(const std::string& id) const noexcept;
  Result<void> remove_sap(const std::string& id);
  [[nodiscard]] const std::map<std::string, Sap>& saps() const noexcept {
    return saps_;
  }

  // -------------------------------------------------------------- link

  /// Endpoints must already exist; fails with kNotFound otherwise.
  Result<void> add_link(Link link);
  /// Adds `id` and `id + "-back"` in opposite directions.
  Result<void> add_bidirectional_link(const std::string& id, PortRef a,
                                      PortRef b, LinkAttrs attrs);
  [[nodiscard]] const Link* find_link(const std::string& id) const noexcept;
  [[nodiscard]] Link* find_link(const std::string& id) noexcept;
  Result<void> remove_link(const std::string& id);
  [[nodiscard]] const std::map<std::string, Link>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] std::map<std::string, Link>& links() noexcept {
    return links_;
  }

  // ----------------------------------------------------- NFs, flowrules

  /// Places an NF instance onto a BiS-BiS. Enforces id uniqueness among the
  /// node's NFs and (unless `force`) residual capacity and type support.
  Result<void> place_nf(const std::string& bisbis_id, NfInstance nf,
                        bool force = false);
  /// Removes the NF with the flowrules touching its ports and the
  /// placement constraints naming it.
  Result<void> remove_nf(const std::string& bisbis_id, const std::string& nf_id);
  /// Locates an NF anywhere in the graph; returns its host's id too.
  [[nodiscard]] std::optional<std::pair<std::string, const NfInstance*>>
  find_nf(const std::string& nf_id) const noexcept;

  /// Installs a flowrule on a BiS-BiS; endpoints are validated to be ports
  /// of that node, of its NFs, or of SAP/BiS-BiS neighbours via links.
  Result<void> add_flowrule(const std::string& bisbis_id, Flowrule rule);
  /// Installs `rules` on one BiS-BiS with add_flowrule's checks, applied
  /// in rule order (the first failing rule's error is returned); ids are
  /// checked through one hash lookup each, so a batch costs O(existing +
  /// batch) instead of O(existing x batch). All or nothing: on error the
  /// node is unchanged.
  Result<void> add_flowrules(const std::string& bisbis_id,
                             std::vector<Flowrule> rules);
  Result<void> remove_flowrule(const std::string& bisbis_id,
                               const std::string& rule_id);

  // ------------------------------------------------------------- hints

  /// Attaches a service hint (id must be non-empty and unique, SAPs must
  /// exist): add_hints() of one.
  Result<void> add_hint(ServiceHint hint);
  /// Attaches `hints` with add_hint's checks, applied in hint order (the
  /// first failing hint's error is returned). Duplicates, within the batch
  /// or against the hints already attached, are found through one hash
  /// set over both, so a batch costs O(existing + batch) instead of
  /// O(existing x batch). All or nothing: on error the config is
  /// unchanged.
  Result<void> add_hints(std::vector<ServiceHint> hints);
  Result<void> remove_hint(const std::string& hint_id);
  [[nodiscard]] const std::vector<ServiceHint>& hints() const noexcept {
    return hints_;
  }

  /// Attaches a placement constraint (referenced NFs must already be
  /// placed somewhere in this config).
  Result<void> add_constraint(PlacementConstraint constraint);
  [[nodiscard]] const std::vector<PlacementConstraint>& constraints()
      const noexcept {
    return constraints_;
  }

  // ------------------------------------------------------------- whole

  /// Strips all service state — NFs, flowrules, hints, placement
  /// constraints and link reservations — leaving pure infrastructure
  /// (BiS-BiSes, SAPs and links at full capacity). Used by layers that
  /// re-derive the full service configuration themselves and need a clean
  /// base even when the fetched view still carries deployed services.
  void clear_service_state();

  /// True when any node kind already uses `id`.
  [[nodiscard]] bool has_node(const std::string& id) const noexcept;

  /// Links incident to a node (either direction).
  [[nodiscard]] std::vector<const Link*> links_of(
      const std::string& node_id) const;

  [[nodiscard]] NffgStats stats() const noexcept;

  /// Structural validation; returns every problem found, empty when sound.
  /// Checks: link endpoints exist with valid ports, flowrule port
  /// references resolve, no BiS-BiS is compute-overcommitted, no link is
  /// bandwidth-overcommitted, NF/flowrule ids unique per node.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The checks nffg_from_json makes while it builds a config, run over
  /// this one in the same order, so both report the same first error:
  /// non-empty and unique ids, flowrule ports that resolve, link
  /// endpoints that exist, non-negative link attributes and rule
  /// bandwidths, hint SAPs and constraint NFs that exist. Capacity is not
  /// checked (a decoded view may be overcommitted).
  [[nodiscard]] Result<void> check_references() const;

  friend bool operator==(const Nffg& a, const Nffg& b);
  /// Writes a delta's entries without per-entry checks, then runs
  /// check_references() (nffg_delta.h).
  friend Result<void> apply_delta(Nffg& nffg, NffgDelta delta);

 private:
  Result<void> check_port_ref(const std::string& bisbis_id,
                              const PortRef& ref) const;
  /// add_flowrules' checks of one rule; `duplicate` says whether the node
  /// already holds its id.
  Result<void> check_flowrule(const std::string& bisbis_id,
                              const Flowrule& rule, bool duplicate) const;
  /// add_link's checks of one link.
  Result<void> check_link(const Link& link, bool duplicate) const;
  /// add_hints' checks of one hint.
  Result<void> check_hint(const ServiceHint& hint, bool duplicate) const;
  /// add_constraint's checks of one constraint.
  Result<void> check_constraint(const PlacementConstraint& constraint) const;

  std::string id_;
  std::string name_;
  std::map<std::string, BisBis> bisbis_;
  std::map<std::string, Sap> saps_;
  std::map<std::string, Link> links_;
  std::vector<ServiceHint> hints_;
  std::vector<PlacementConstraint> constraints_;
};

}  // namespace unify::model
