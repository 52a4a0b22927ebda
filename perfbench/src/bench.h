// Shared pieces of the end-to-end benchmark: sample statistics, the run
// configuration and result, and the per-layer trace that the traced run
// fills through decorators around the program's public seams.
//
// The benchmark drives the orchestrator through its public API only. The
// decorators (probes.h) wrap the interfaces the program already composes
// its layers with (DomainAdapter, Mapper, the Unify RPC methods), so the
// untraced run exercises exactly the production objects.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Raised for any broken expectation (an unexpected op failure, a failed
/// output check, too few samples); main() turns it into a non-zero exit
/// without printing a result.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A bag of observations with percentile queries.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  void clear() { values_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const noexcept;
  /// Linear-interpolated percentile, p in [0, 1). Throws BenchFailure
  /// unless at least 10 samples lie beyond it: a tail percentile from a
  /// handful of samples is noise, so the benchmark never reports one.
  [[nodiscard]] double pct(double p, const std::string& what) const;

 private:
  std::vector<double> values_;
};

/// Sizes of one run. Every count is fixed before timing starts and derived
/// from `--seconds` and the workload's calibrated rate only, so the
/// operation sequence is a pure function of (workload, seed, seconds).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one phase (untraced or traced) of a workload produced.
struct PhaseResult {
  std::uint64_t attempted = 0;  ///< client ops in the timed phase
  std::uint64_t failed = 0;     ///< ops that errored unexpectedly
  double ops_per_s = 0;
  std::vector<Metric> metrics;
  /// Deterministic outcome fingerprint (accepted/rejected ids).
  std::string signature;
};

/// One wall-clock interval, for self-time arithmetic.
struct Interval {
  Clock::time_point start;
  Clock::time_point end;
};

/// Total length (ms) of the union of `spans` clipped to `window`.
[[nodiscard]] double covered_ms(const Interval& window,
                                const std::vector<Interval>& spans);

/// Everything a traced run records at the layer seams. Recorders run on
/// the benchmark's thread and on pool workers alike, so every access goes
/// through the mutex; reads happen after the timed phase.
class Trace {
 public:
  struct Data {
    // mapping (Mapper decorator, pool workers)
    std::vector<Interval> map_spans;
    Samples map_ms;
    std::uint64_t map_calls = 0;
    std::uint64_t map_failures = 0;
    // domain adapters (DomainAdapter decorators, pool workers)
    std::vector<Interval> adapter_spans;
    std::uint64_t adapter_applies = 0;
    // service layer's Unify client (DomainAdapter decorator)
    Samples edit_ms;         ///< begin_apply + await of one edit-config
    Samples edit_encode_ms;  ///< begin_apply alone: encode + send
    std::uint64_t edits = 0;
    double client_ms = 0;  ///< service-layer time spent below its client
    // bench-side Unify server handlers
    Samples virt_edit_decode_ms;
    Samples virt_edit_ms;
    std::vector<Interval> virt_edits;
    Samples virt_get_ms;
    // get-config clients
    Samples get_decode_ms;
    Samples wire_queue_ms;
    Samples wire_transport_ms;
  };

  template <typename Fn>
  void with(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn(data_);
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    data_ = Data{};
  }

 private:
  std::mutex mu_;
  Data data_;
};

}  // namespace perfbench
