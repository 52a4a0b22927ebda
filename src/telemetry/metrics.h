// Lightweight metrics for the orchestration stack: counters and summaries
// grouped in a registry. Benchmarks read these to report per-layer
// breakdowns (e.g. RPC round trips per deployment, experiment E2/E4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unify::telemetry {

/// Accumulates double observations; cheap percentile queries for reports.
class Summary {
 public:
  void observe(double value);
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// p in [0,1]; nearest-rank. 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> values_;
  double sum_ = 0;
};

/// Named counters and summaries. Not thread-safe by design (the
/// simulation is single-threaded).
class Registry {
 public:
  void add(const std::string& counter, std::uint64_t delta = 1) {
    counters_[counter] += delta;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  Summary& summary(const std::string& name) { return summaries_[name]; }
  /// Shorthand for summary(name).observe(value) — the admission/churn hot
  /// paths record latencies in one call.
  void observe(const std::string& name, double value) {
    summaries_[name].observe(value);
  }
  [[nodiscard]] const Summary* find_summary(const std::string& name) const {
    const auto it = summaries_.find(name);
    return it == summaries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }

  void reset() {
    counters_.clear();
    summaries_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace unify::telemetry
