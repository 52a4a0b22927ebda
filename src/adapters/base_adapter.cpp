#include "adapters/base_adapter.h"

#include "util/log.h"

namespace unify::adapters {

Result<void> BaseAdapter::ensure_initialized() {
  if (initialized_) return Result<void>::success();
  UNIFY_ASSIGN_OR_RETURN(deployed_, build_skeleton());
  initialized_ = true;
  return Result<void>::success();
}

Result<model::Nffg> BaseAdapter::fetch_view() {
  UNIFY_RETURN_IF_ERROR(ensure_initialized());
  UNIFY_RETURN_IF_ERROR(refresh_statuses(deployed_));
  return deployed_;
}

Result<void> BaseAdapter::apply(const model::Nffg& desired) {
  UNIFY_RETURN_IF_ERROR(ensure_initialized());
  UNIFY_ASSIGN_OR_RETURN(const model::ConfigDelta delta,
                         model::diff(deployed_, desired));
  UNIFY_LOG(kDebug, "adapter") << domain() << ": applying delta of "
                               << delta.size() << " operations";
  // Mark the deployed config as (possibly) changed before issuing ops: a
  // partial failure below must not leave the domain looking clean to the
  // dirty-tracking layer above. No-op deltas stay epoch-stable.
  if (delta.size() > 0) bump_epoch();
  // Removals free resources first; every successful native op is mirrored
  // into deployed_ so a partial failure leaves an accurate record (a
  // node's installed rules are mirrored together once its run ends).
  for (const model::RuleRemoval& rr : delta.rule_removals) {
    UNIFY_RETURN_IF_ERROR(do_remove_rule(rr.bisbis, rr.rule_id));
    UNIFY_RETURN_IF_ERROR(deployed_.remove_flowrule(rr.bisbis, rr.rule_id));
  }
  for (const model::NfRemoval& nr : delta.nf_removals) {
    UNIFY_RETURN_IF_ERROR(do_remove_nf(nr.bisbis, nr.nf_id));
    UNIFY_RETURN_IF_ERROR(deployed_.remove_nf(nr.bisbis, nr.nf_id));
  }
  for (const model::NfPlacement& np : delta.nf_placements) {
    UNIFY_RETURN_IF_ERROR(do_place_nf(np.bisbis, np.nf));
    UNIFY_RETURN_IF_ERROR(deployed_.place_nf(np.bisbis, np.nf));
  }
  const auto& installs = delta.rule_installs;
  for (auto run = installs.begin(); run != installs.end();) {
    std::vector<model::Flowrule> installed;
    Result<void> native = Result<void>::success();
    auto it = run;
    for (; it != installs.end() && it->bisbis == run->bisbis; ++it) {
      native = do_install_rule(it->bisbis, it->rule);
      if (!native.ok()) break;
      installed.push_back(it->rule);
    }
    UNIFY_RETURN_IF_ERROR(
        deployed_.add_flowrules(run->bisbis, std::move(installed)));
    UNIFY_RETURN_IF_ERROR(native);
    run = it;
  }
  return Result<void>::success();
}

}  // namespace unify::adapters
