// Shared adapter machinery: delta-based apply over a tracked deployed
// config. Concrete adapters supply the skeleton view, status refresh and
// the four native operations.
#pragma once

#include "adapters/domain_adapter.h"
#include "model/nffg_diff.h"

namespace unify::adapters {

class BaseAdapter : public DomainAdapter {
 public:
  [[nodiscard]] Result<model::Nffg> fetch_view() override;
  Result<void> apply(const model::Nffg& desired) override;

 protected:
  /// Topology + capacities, no NFs/flowrules. Called once, lazily.
  [[nodiscard]] virtual Result<model::Nffg> build_skeleton() = 0;
  /// Updates NF statuses in `view` from live domain state (default noop).
  virtual Result<void> refresh_statuses(model::Nffg& view) {
    (void)view;
    return Result<void>::success();
  }

  virtual Result<void> do_place_nf(const std::string& node,
                                   const model::NfInstance& nf) = 0;
  virtual Result<void> do_remove_nf(const std::string& node,
                                    const std::string& nf_id) = 0;
  virtual Result<void> do_install_rule(const std::string& node,
                                       const model::Flowrule& rule) = 0;
  virtual Result<void> do_remove_rule(const std::string& node,
                                      const std::string& rule_id) = 0;

  /// Ensures deployed_ exists (builds the skeleton on first use).
  Result<void> ensure_initialized();

  model::Nffg deployed_;
  bool initialized_ = false;
};

}  // namespace unify::adapters
