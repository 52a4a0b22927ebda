// Virtualizer: presents a view of the RO's resources to one manager
// (client) and accepts configurations written onto that view (the green
// boxes of the paper's Fig. 1).
//
// Two view policies realize the paper's delegation spectrum:
//  * kSingleBisBis — the whole orchestration domain collapses into one
//    BiS-BiS; the client's "mapping" is trivial and all resource management
//    is delegated downward (paper: "If a service orchestrator sees only a
//    single BiS-BiS node then its orchestration task is trivial").
//  * kFull — the client sees the complete topology and decides placements
//    itself; this RO only routes and enforces.
//
// edit-config is declarative: the client sends its full desired config; the
// virtualizer diffs it against the accepted config at service-graph level,
// removes/redeploys affected services and deploys new ones through the RO.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config_translate.h"
#include "core/resource_orchestrator.h"
#include "model/nffg.h"
#include "util/result.h"

namespace unify::core {

enum class ViewPolicy { kSingleBisBis, kFull };

class Virtualizer {
 public:
  /// `big_node_id` names the collapsed node for kSingleBisBis (defaults to
  /// "<ro name>.big"); ignored for kFull. The RO must be initialized
  /// before the first get_config/edit_config and must outlive this object.
  Virtualizer(ResourceOrchestrator& ro, ViewPolicy policy,
              std::string big_node_id = {});

  /// The client-visible tree: view skeleton + everything this client has
  /// configured, with NF statuses rolled up from below (a decomposed NF is
  /// running iff all its components are).
  [[nodiscard]] Result<model::Nffg> get_config();

  /// Accepts a full desired configuration over the view.
  Result<void> edit_config(const model::Nffg& desired);

  [[nodiscard]] ViewPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const std::string& big_node_id() const noexcept {
    return big_node_id_;
  }
  /// RO-level request ids currently live for this client.
  [[nodiscard]] std::vector<std::string> active_requests() const;
  [[nodiscard]] std::uint64_t edits() const noexcept { return edits_; }

 private:
  Result<void> ensure_skeleton();
  [[nodiscard]] Result<model::Nffg> render_single_bisbis() const;
  /// (RO-level NF id, status) for every NF of the RO view, sorted by id.
  /// The ids point into the RO view, so an index lives within one call.
  using StatusIndex = std::vector<std::pair<std::string_view, model::NfStatus>>;
  /// Status of a client-level NF, aggregated over its expansion below.
  [[nodiscard]] static model::NfStatus rolled_up_status(
      const std::string& nf_id, const StatusIndex& index);

  struct ClientService {
    std::string ro_request;
    std::set<std::string> nf_ids;    ///< client-level NF ids
    std::set<std::string> link_ids;  ///< client-level SG link ids
    std::set<std::string> req_ids;   ///< client-level requirement ids
  };

  ResourceOrchestrator* ro_;
  ViewPolicy policy_;
  std::string big_node_id_;
  std::optional<model::Nffg> skeleton_;
  model::Nffg accepted_;  ///< last accepted client config
  /// content_hash(accepted_): lets edit_config() short-circuit a desired
  /// config identical to the accepted one without translating/diffing it.
  /// Invalidated (nullopt) while an edit is mutating books/RO state: a
  /// failed edit leaves the deployed state diverged from accepted_, and
  /// the client's recovery push of the accepted config must re-diff, not
  /// short-circuit.
  std::optional<std::uint64_t> accepted_hash_;
  std::optional<TranslatedConfig> accepted_translated_;
  std::map<std::string, ClientService> services_;
  int next_request_ = 1;
  std::uint64_t edits_ = 0;
};

}  // namespace unify::core
