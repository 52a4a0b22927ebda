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
// edit-config is declarative: it takes the client's full desired config
// (over the wire the client may send a delta, which UnifyServer applies
// to accepted_config() first).
// The virtualizer keeps one set of books: every deployed component (one RO
// request) keeps the client-level service graph it was deployed from. An
// edit translates the desired config once, removes every component whose
// elements the desired config no longer holds unchanged, and deploys the
// elements no component owns through the RO, one request per connected
// component. Components that map are committed even when others fail: the
// error then names every client element of each failed component, and the
// accepted config is the desired one minus those elements.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

  /// Names the reply get_config() gives now, without rendering it: the
  /// version of the accepted config and the RO view epoch, e.g. "3.17".
  /// get_config() reads only the accepted config and the RO's NF
  /// statuses, and every write to either moves one of the two counters,
  /// so an unchanged tag means an unchanged reply. Deterministic: the
  /// same sequence of operations gives the same tags.
  [[nodiscard]] std::string config_tag() const;

  /// The config the last edit accepted (the skeleton before any edit),
  /// without NF statuses rolled up: what a conditional edit-config's delta
  /// applies to (DESIGN.md §13).
  [[nodiscard]] const model::Nffg& accepted_config() const noexcept {
    return accepted_;
  }
  /// Bumped whenever accepted_config() is replaced; 0 before the first
  /// get_config/edit_config. config_tag() reads the same counter.
  [[nodiscard]] std::uint64_t accepted_version() const noexcept {
    return accepted_version_;
  }

  /// Accepts a full desired configuration over the view. When some new
  /// components fail (they do not map, or a failed southbound push rolled
  /// them back), the others stay deployed and the error carries the first
  /// failure's code and message plus one cause per NF, link and
  /// requirement id of every failed component (`Error::causes`, path =
  /// client element id). An error without causes (a removal that did not
  /// happen, an untranslatable config) concerns the edit as a whole.
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

  /// One deployed RO request: the client-level graph handed to map_batch
  /// and, for kFull, the client's placement of its NFs. An edit keeps the
  /// component only while the desired config holds each of its elements
  /// unchanged.
  struct Component {
    sg::ServiceGraph graph;
    ResourceOrchestrator::Pins pins;
  };

  ResourceOrchestrator* ro_;
  ViewPolicy policy_;
  std::string big_node_id_;
  std::optional<model::Nffg> skeleton_;
  model::Nffg accepted_;  ///< last accepted client config
  /// Bumped on every assignment of accepted_ (config_tag(),
  /// accepted_version()).
  std::uint64_t accepted_version_ = 0;
  /// RO request id -> the component deployed under it.
  std::map<std::string, Component> services_;
  /// Client NF, link and requirement id -> RO request id of each component
  /// holding it. Only a requirement can have several: every component of
  /// one wave that realizes its chain claims it.
  std::multimap<std::string, std::string> owner_;
  /// Number of the next component's RO request; a failed component uses
  /// its number up, so numbers depend only on the sequence of components.
  int next_request_ = 1;
  std::uint64_t edits_ = 0;
};

}  // namespace unify::core
