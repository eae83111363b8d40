// The workloads, each with a timed run (end-to-end metrics, tracing
// off) and a traced run (per-layer metrics from spans).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;      ///< tiny inputs: every workload and check, fast
  std::string tamper;      ///< "", "schedule" or "fingerprint" (self-test)
  std::string work_dir;    ///< scratch space inside the checkout
  std::string fig1_text;   ///< examples/fig1.fppn
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end (timed) or per-layer (traced)
  JsonObject details;           ///< validity numbers, percentiles, sample counts
  std::string input_digest;     ///< digest of every generated request byte
  std::vector<SpanRecord> spans;
  Clock::time_point origin;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws CheckFailure when an output check fails.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
