// Service graph: the user-facing description of a service chain.
//
// Users of the service layer describe *what* they want — abstract NFs wired
// between Service Access Points, with bandwidth per chain link and
// end-to-end delay/bandwidth requirements between arbitrary SAP pairs — and
// the orchestration stack decides *where* it runs. This mirrors the paper's
// service layer, where requests carry "bandwidth or delay constraints
// between arbitrary elements in the service graph".
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "model/nffg.h"  // PortRef, Resources
#include "util/result.h"

namespace unify::sg {

using model::PortRef;
using model::Resources;

/// An abstract NF in the request: type resolved against the NF catalog.
/// `requirement_override` (when non-zero) replaces the catalog footprint.
struct SgNf {
  std::string id;
  std::string type;
  int port_count = 2;
  Resources requirement_override;

  friend bool operator==(const SgNf& a, const SgNf& b) noexcept {
    return a.id == b.id && a.type == b.type &&
           a.port_count == b.port_count &&
           a.requirement_override == b.requirement_override;
  }
};

/// A directed chain link: traffic from one port to another with a bandwidth
/// demand. Endpoints are SAP ports (port 0) or NF ports.
struct SgLink {
  std::string id;
  PortRef from;
  PortRef to;
  double bandwidth = 0;

  friend bool operator==(const SgLink& a, const SgLink& b) noexcept {
    return a.id == b.id && a.from == b.from && a.to == b.to &&
           a.bandwidth == b.bandwidth;
  }
};

/// End-to-end requirement between two SAPs, evaluated along the chain.
struct E2eRequirement {
  std::string id;
  std::string from_sap;
  std::string to_sap;
  double max_delay = std::numeric_limits<double>::infinity();  ///< ms
  double min_bandwidth = 0;                                    ///< Mbit/s

  friend bool operator==(const E2eRequirement& a,
                         const E2eRequirement& b) noexcept {
    return a.id == b.id && a.from_sap == b.from_sap &&
           a.to_sap == b.to_sap && a.max_delay == b.max_delay &&
           a.min_bandwidth == b.min_bandwidth;
  }
};

/// Placement constraints are shared with the virtualizer model so they can
/// ride inside configurations across the Unify interface.
using ConstraintKind = model::ConstraintKind;
using PlacementConstraint = model::PlacementConstraint;

class ServiceGraph {
 public:
  ServiceGraph() = default;
  explicit ServiceGraph(std::string id, std::string name = {})
      : id_(std::move(id)), name_(std::move(name)) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_id(std::string id) { id_ = std::move(id); }

  Result<void> add_sap(std::string id, std::string name = {});
  Result<void> add_nf(SgNf nf);
  /// Endpoints must exist; SAP endpoints must use port 0; NF ports must be
  /// within the NF's port_count.
  Result<void> add_link(SgLink link);
  /// Requirement endpoints must be SAPs of this graph.
  Result<void> add_requirement(E2eRequirement req);

  /// Referenced NFs must exist; pin/forbid need a host name.
  Result<void> add_constraint(PlacementConstraint constraint);
  [[nodiscard]] const std::vector<PlacementConstraint>& constraints()
      const noexcept {
    return constraints_;
  }

  Result<void> remove_nf(const std::string& id);

  [[nodiscard]] bool has_sap(const std::string& id) const noexcept {
    return saps_.count(id) != 0;
  }
  [[nodiscard]] const SgNf* find_nf(const std::string& id) const noexcept;
  [[nodiscard]] const SgLink* find_link(const std::string& id) const noexcept;
  [[nodiscard]] const E2eRequirement* find_requirement(
      const std::string& id) const noexcept;

  [[nodiscard]] const std::map<std::string, std::string>& saps()
      const noexcept {
    return saps_;
  }
  [[nodiscard]] const std::map<std::string, SgNf>& nfs() const noexcept {
    return nfs_;
  }
  [[nodiscard]] const std::vector<SgLink>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] const std::vector<E2eRequirement>& requirements()
      const noexcept {
    return requirements_;
  }

  /// Structural validation (duplicate ids, dangling refs, port ranges,
  /// negative demands). Empty result = sound.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The chain serving a requirement: the sequence of SgLinks on the
  /// (hop-minimal) directed path from `from_sap` to `to_sap`. Fails with
  /// kInfeasible when no directed path exists in the service graph.
  [[nodiscard]] Result<std::vector<const SgLink*>> chain_for(
      const E2eRequirement& req) const;

  /// NF ids in chain order for a requirement (derived from chain_for).
  [[nodiscard]] Result<std::vector<std::string>> nf_sequence_for(
      const E2eRequirement& req) const;

  /// Replaces NF `nf_id` by new nodes/links (used by NF decomposition).
  /// `port_redirect(old_port)` names the replacement endpoint for every
  /// external link that terminated at (nf_id, old_port).
  Result<void> replace_nf(
      const std::string& nf_id, const std::vector<SgNf>& components,
      const std::vector<SgLink>& internal_links,
      const std::map<int, PortRef>& port_redirect);

  friend bool operator==(const ServiceGraph& a, const ServiceGraph& b);

 private:
  [[nodiscard]] bool endpoint_ok(const PortRef& ref) const noexcept;

  /// Open-addressing hash index from element id to position in a vector of
  /// elements with an `id` field. Slots hold positions only (no id copies,
  /// 4 bytes each at load <= 1/2), so a graph copy stays cheap.
  class IdIndex {
   public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    /// Position of the element with `id`, or kNone.
    template <typename Items>
    [[nodiscard]] std::size_t find(const Items& items,
                                   std::string_view id) const noexcept;
    /// Indexes items.back(), which the caller just appended.
    template <typename Items>
    void add_last(const Items& items);
    /// Re-indexes every element (after elements left the vector).
    template <typename Items>
    void rebuild(const Items& items);

   private:
    void place(std::string_view id, std::size_t position);
    std::vector<std::uint32_t> slots_;  ///< position + 1; 0 = empty
  };

  std::string id_;
  std::string name_;
  std::map<std::string, std::string> saps_;  // id -> display name
  std::map<std::string, SgNf> nfs_;
  std::vector<SgLink> links_;
  std::vector<E2eRequirement> requirements_;
  std::vector<PlacementConstraint> constraints_;
  /// O(1) duplicate checks and lookups by id while links_/requirements_
  /// keep insertion order. Derived state, so operator== ignores them.
  IdIndex link_index_;
  IdIndex requirement_index_;
};

/// Builds the classic linear chain: sap_in -> nf1 -> ... -> nfN -> sap_out,
/// each NF entered at port 0 and left at port 1, all links carrying
/// `bandwidth`, with one end-to-end requirement (max_delay, bandwidth).
/// NF ids are "<type><index>" (fw0, dpi1, ...).
[[nodiscard]] ServiceGraph make_chain(
    const std::string& id, const std::string& sap_in,
    const std::vector<std::string>& nf_types, const std::string& sap_out,
    double bandwidth, double max_delay);

}  // namespace unify::sg
