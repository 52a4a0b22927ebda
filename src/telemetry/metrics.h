// Lightweight metrics for the orchestration stack: counters, gauges and
// summaries grouped in a registry. Benchmarks read these to report
// per-layer breakdowns (e.g. RPC round trips per deployment, experiment
// E2/E4).
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
  [[nodiscard]] double mean() const noexcept {
    return values_.empty() ? 0 : sum_ / static_cast<double>(values_.size());
  }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// p in [0,1]; nearest-rank. 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  /// Appends every observation of `other` (for folding per-worker
  /// summaries into one).
  void merge(const Summary& other);

 private:
  std::vector<double> values_;
  double sum_ = 0;
};

/// Named counters/gauges/summaries. Not thread-safe by design (the
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
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
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

  /// Folds `other` into this registry: counters add up, gauges take the
  /// other's value, summaries concatenate observations. Used to aggregate
  /// registries filled privately by batch/worker code into the long-lived
  /// one (Registry itself is not thread-safe).
  void merge(const Registry& other) {
    for (const auto& [name, value] : other.counters_) {
      counters_[name] += value;
    }
    for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
    for (const auto& [name, summary] : other.summaries_) {
      summaries_[name].merge(summary);
    }
  }

  void reset() {
    counters_.clear();
    gauges_.clear();
    summaries_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace unify::telemetry
