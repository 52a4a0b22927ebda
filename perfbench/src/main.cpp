// perfbench — end-to-end benchmark of the orchestration stack.
//
//   perfbench --workload <churn|embed_large|poll_wire> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 runs the workload with the production objects only and prints
// the end-to-end metrics. --trace 1 runs it twice in one process, untraced
// and then with the layer probes installed, checks both runs produced the
// same outcome signature, and prints the per-layer metrics plus the
// tracing overhead. --smoke shrinks every workload to a fast size for the
// benchmark's own tests. Every run checks its outputs; a failed check
// exits non-zero without printing a result. The last stdout line is the
// result object.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "probes.h"
#include "util/orchestration_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

PhaseResult run_phase(const RunConfig& config, Trace* trace,
                      unify::util::OrchestrationPool& pool, int setups) {
  if (config.workload == "churn") {
    return run_churn(config, trace, pool, setups);
  }
  if (config.workload == "embed_large") {
    return run_embed_large(config, trace, pool, setups);
  }
  if (config.workload == "poll_wire") {
    return run_poll_wire(config, trace, pool, setups);
  }
  throw BenchFailure("unknown workload " + config.workload);
}

/// Setups per untraced run: setup_s is their median. poll_wire's set-up
/// takes milliseconds, so it repeats more to steady the median.
int setup_repeats(const RunConfig& config) {
  if (config.smoke) return 1;
  return config.workload == "poll_wire" ? 25 : 9;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const PhaseResult& result) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

[[noreturn]] void usage(const char* what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload <churn|embed_large|poll_wire> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  RunConfig config;
  int trace_flag = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stoi(value());
      } else if (arg == "--trace") {
        trace_flag = std::stoi(value());
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (config.seconds < 1 || config.seconds > 600) {
    usage("--seconds out of range");
  }
  if (trace_flag != 0 && trace_flag != 1) usage("--trace takes 0 or 1");

  unify::util::OrchestrationPool pool(kPoolRunners);
  // Start the pool's worker before poll_wire's CpuRotor pins this thread:
  // a thread inherits its creator's CPU set.
  (void)pool.run_all({[] {}, [] {}});

  const PhaseResult plain = run_phase(
      config, nullptr, pool, trace_flag == 0 ? setup_repeats(config) : 1);
  std::cout << "outcome " << plain.signature << "\n";
  if (trace_flag == 0) {
    PhaseResult result = plain;
    result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_result(result);
    return 0;
  }
  Trace trace;
  PhaseResult traced = run_phase(config, &trace, pool, 1);
  if (traced.signature != plain.signature) {
    throw BenchFailure("traced run diverged: " + traced.signature + " vs " +
                       plain.signature);
  }
  traced.metrics.push_back(
      {"trace.overhead_pct",
       (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s * 100.0, "%"});
  print_result(traced);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: FAILED: " << e.what() << "\n";
    return 1;
  }
}
