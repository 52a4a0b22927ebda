// The three benchmark workloads. Each runs one phase: set up (`setups`
// times, reporting the median as setup_s; the last set-up is the one
// measured), run the seeded closed loop, check the outputs, report.
// A non-null `trace` installs the layer probes and adds the per-layer
// metrics; null runs the production objects only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "model/nffg.h"
#include "service/service_layer.h"
#include "util/orchestration_pool.h"

namespace perfbench {

/// Runner count of the one orchestration pool every workload injects into
/// its RO(s) and service layer(s). The calling thread is one runner.
inline constexpr std::size_t kPoolRunners = 2;

PhaseResult run_churn(const RunConfig& config, Trace* trace,
                      unify::util::OrchestrationPool& pool, int setups);
PhaseResult run_embed_large(const RunConfig& config, Trace* trace,
                            unify::util::OrchestrationPool& pool, int setups);
PhaseResult run_poll_wire(const RunConfig& config, Trace* trace,
                          unify::util::OrchestrationPool& pool, int setups);

/// FNV-1a over the outcome trail (accepted, rejected and failed
/// operations, in order), with the counts.
class Signature {
 public:
  enum class Outcome : char { kAccepted = 'A', kRejected = 'R', kFailed = 'F' };
  void add(const std::string& id, Outcome outcome);
  /// Records a failed operation; the first failure's error is kept.
  void fail(const std::string& id, const std::string& error);
  [[nodiscard]] std::string hex() const;
  /// "accepted=.. rejected=.. failed=.. signature=.." (+ first failure).
  [[nodiscard]] std::string summary() const;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Checks a final get-config against the client's books: it holds exactly
/// the NFs of the `live` requests, each running. An NF the config shows
/// deploying passes only when `running_below` confirms it from the layer
/// below. Returns the outcome-line fields: the config's content hash and,
/// when any, how many NFs only the layer below confirmed.
std::string check_final_config(
    const unify::model::Nffg& config,
    const std::map<std::string, unify::service::ServiceRequest>& requests,
    const std::set<std::string>& live,
    const std::function<bool(const std::string&)>& running_below);

/// Median of `values` (non-empty).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
