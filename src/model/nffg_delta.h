// Northbound config deltas: what changed between two configs a manager
// writes, exact enough to rebuild the second from the first (DESIGN.md
// §13, "Conditional edit-config").
//
// UnifyClientAdapter keeps the last config its server accepted and sends
// the next edit-config as nffg_delta(kept, desired) against that config's
// version; UnifyServer applies it to a copy of the virtualizer's accepted
// config. Applied to nffg_from_json(to_json(base)), the decoded delta
// gives nffg_from_json(to_json(target)) byte for byte, order included.
//
// Keyed maps (BiS-BiS, SAPs, links, each node's NFs) ship the ids they
// lose plus their new or changed entries whole. Id-unique ordered lists
// (each node's flowrules, the hints) ship the ids they lose plus inserts
// anchored on the id that precedes them in the target. Anything else that
// changed ships whole: the graph id and name, a BiS-BiS's own fields, the
// constraint list.
//
// model::ConfigDelta (nffg_diff.h) is a different thing: the native NF
// and flowrule operations a domain adapter executes, with no order, SAPs,
// links, hints or constraints.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"
#include "model/nffg.h"
#include "util/result.h"

namespace unify::model {

/// A keyed map's change: ids to erase, then entries to insert or
/// overwrite, keyed by their own id.
template <typename T>
struct KeyedDelta {
  std::vector<std::string> removed;
  std::vector<T> upserted;

  [[nodiscard]] bool empty() const noexcept {
    return removed.empty() && upserted.empty();
  }
};

/// An id-unique list's change: ids to erase, then entries to insert, in
/// target order, each right after the entry whose id is `after` ("" =
/// at the front).
template <typename T>
struct OrderedDelta {
  struct Insert {
    std::string after;
    T entry;
  };
  std::vector<std::string> removed;
  std::vector<Insert> inserted;

  [[nodiscard]] bool empty() const noexcept {
    return removed.empty() && inserted.empty();
  }
};

/// One new or changed BiS-BiS. `fields` holds its own fields (no NFs, no
/// flowrules) when it is new or they changed.
struct BisBisDelta {
  std::string id;
  std::optional<BisBis> fields;
  KeyedDelta<NfInstance> nfs;
  OrderedDelta<Flowrule> flowrules;
};

struct NffgDelta {
  /// (id, name) of the target when either changed.
  std::optional<std::pair<std::string, std::string>> graph;
  KeyedDelta<Sap> saps;
  /// Removed BiS-BiS ids, then each new or changed BiS-BiS as an edit.
  KeyedDelta<BisBisDelta> bisbis;
  KeyedDelta<Link> links;
  OrderedDelta<ServiceHint> hints;
  /// The target's constraint list when it changed.
  std::optional<std::vector<PlacementConstraint>> constraints;
};

/// The delta from `base` to `target`, in one pass over both. Fails with
/// kInvalidArgument when a map entry's key is not its id, or a flowrule
/// or hint id is empty or repeated: such a config has no exact delta
/// (send it whole).
[[nodiscard]] Result<NffgDelta> nffg_delta(const Nffg& base,
                                           const Nffg& target);

/// Applies `delta` to `nffg`, then runs Nffg::check_references(), so a
/// delta is refused where nffg_from_json would refuse its target. Fails
/// with kProtocol when the delta does not fit `nffg` (an unknown id to
/// remove or to insert after); `nffg` is then unspecified.
[[nodiscard]] Result<void> apply_delta(Nffg& nffg, NffgDelta delta);

[[nodiscard]] json::Value to_json(const NffgDelta& delta);
/// Strict decode of to_json(NffgDelta): malformed shapes fail with
/// kProtocol.
[[nodiscard]] Result<NffgDelta> nffg_delta_from_json(const json::Value& value);

}  // namespace unify::model
