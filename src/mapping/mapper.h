// Mapping (network embedding) of service graphs onto BiS-BiS substrates.
//
// This is the algorithmic task of the paper's resource orchestrator: assign
// each abstract NF to a BiS-BiS and each chain link to a substrate path so
// that compute capacity, link bandwidth and end-to-end delay requirements
// hold. Several interchangeable algorithms implement the Mapper interface
// ("plug and play ... network embedding algorithms", paper §2); the RO
// takes the algorithm as a dependency.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/nf_catalog.h"
#include "model/nffg.h"
#include "model/topology_index.h"
#include "model/view_snapshot.h"
#include "sg/service_graph.h"
#include "util/result.h"

namespace unify::mapping {

/// Read-only substrate a mapper embeds against: a borrowed NFFG plus,
/// optionally, a prebuilt topology index over it (from an orchestrator
/// ViewSnapshot, so parallel speculative mappers share one index instead
/// of each building an O(N) copy). Implicitly constructible from a bare
/// Nffg — call sites holding a plain view keep working — and from a
/// ViewSnapshot. The view must outlive the SubstrateView.
class SubstrateView {
 public:
  /*implicit*/ SubstrateView(const model::Nffg& nffg) noexcept  // NOLINT
      : nffg_(&nffg) {}
  // A temporary Nffg would dangle the moment the full-expression ends
  // (the view is borrowed, not copied) — reject it at compile time.
  SubstrateView(model::Nffg&&) = delete;
  /*implicit*/ SubstrateView(const model::ViewSnapshot& snap) noexcept  // NOLINT
      : nffg_(snap.view.get()), index_(snap.index.get()) {}

  [[nodiscard]] const model::Nffg& nffg() const noexcept { return *nffg_; }
  /// Prebuilt index over nffg(), or nullptr when the caller has none.
  [[nodiscard]] const model::TopologyIndex* index() const noexcept {
    return index_;
  }

 private:
  const model::Nffg* nffg_;
  const model::TopologyIndex* index_ = nullptr;
};

/// The realized path of one service-graph link over the substrate.
/// `links` lists substrate link ids in traversal order; empty when both
/// endpoints resolve to the same node (co-located NFs).
struct PathInfo {
  std::vector<std::string> links;
  double delay = 0;  ///< link delays + transited BiS-BiS internal delays

  friend bool operator==(const PathInfo& a, const PathInfo& b) noexcept {
    return a.links == b.links && a.delay == b.delay;
  }
};

struct MappingStats {
  std::size_t total_hops = 0;       ///< Σ path lengths
  double bandwidth_hops = 0;        ///< Σ bandwidth × hops (substrate load)
  std::size_t nodes_used = 0;       ///< distinct hosting BiS-BiS
  std::size_t nfs_placed = 0;

  friend bool operator==(const MappingStats& a,
                         const MappingStats& b) noexcept = default;
};

/// The result of a mapping: placements + routed paths + verified delays.
struct Mapping {
  std::string mapper_name;
  std::map<std::string, std::string> nf_host;      ///< SG NF -> BiS-BiS
  std::map<std::string, PathInfo> link_paths;      ///< SG link -> path
  std::map<std::string, double> requirement_delay; ///< requirement -> ms
  MappingStats stats;

  friend bool operator==(const Mapping& a, const Mapping& b) = default;
};

/// The canonical embedding objective that branch-and-bound ranks whole
/// placements by: substrate load, end-to-end delay and health bias as
/// separate axes, collapsed to one scalar by total(). Lower is better on
/// every axis.
struct EmbeddingScore {
  double cost = 0;     ///< Σ bandwidth × hops (substrate load)
  double delay = 0;    ///< Σ per-requirement chain delay (ms)
  double penalty = 0;  ///< Σ hosting-node health penalty

  [[nodiscard]] double total(double delay_weight = 1.0) const noexcept {
    return cost + delay_weight * delay + penalty;
  }
  friend bool operator==(const EmbeddingScore& a,
                         const EmbeddingScore& b) noexcept = default;
};

/// Scores a finished mapping against the substrate it was computed on.
[[nodiscard]] EmbeddingScore score_mapping(const Mapping& mapping,
                                           const model::Nffg& substrate);

/// Strategy interface. Implementations never mutate the substrate; they
/// track their tentative placements and reservations in an overlay
/// (mapping::Context) and report the outcome as a Mapping. The substrate
/// arrives as a SubstrateView so many mapper invocations can speculate in
/// parallel against one immutable snapshot.
class Mapper {
 public:
  virtual ~Mapper() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Result<Mapping> map(
      const sg::ServiceGraph& sg, const SubstrateView& substrate,
      const catalog::NfCatalog& catalog) const = 0;
};

/// Independent feasibility checker: placements exist and fit, paths are
/// continuous and start/end at the right nodes, per-link bandwidth fits the
/// substrate residuals (cumulatively), and requirement delays hold.
/// Intended for tests and for the RO to double-check third-party mappers.
[[nodiscard]] Result<void> verify_mapping(const sg::ServiceGraph& sg,
                                          const model::Nffg& substrate,
                                          const catalog::NfCatalog& catalog,
                                          const Mapping& mapping);

/// Materializes a mapping onto `target` (normally a copy of the substrate
/// the mapping was computed against): places NF instances, installs the
/// tag-switched flowrule chains realizing each SG link, and reserves
/// bandwidth along the paths. Tags are "<sg id>:<sg link id>".
/// `force_placement` skips capacity/type checks — used when re-recording a
/// placement that is already physically running (e.g. restoring after a
/// failed migration onto a view whose advertised capacity shrank).
[[nodiscard]] Result<void> install_mapping(model::Nffg& target,
                                           const sg::ServiceGraph& sg,
                                           const catalog::NfCatalog& catalog,
                                           const Mapping& mapping,
                                           bool force_placement = false);

/// Reverts install_mapping: removes the NFs and flowrules of this mapping
/// and releases the reserved bandwidth.
[[nodiscard]] Result<void> uninstall_mapping(model::Nffg& target,
                                             const sg::ServiceGraph& sg,
                                             const Mapping& mapping);

}  // namespace unify::mapping
