// perfbench — one command for the scheduling engine's benchmark.
//
//   perfbench --workload solve-cold|serve-repeat --seed N
//             --seconds S --trace 0|1 [--small] [--tamper schedule|fingerprint]
//
// Run from the root of the source checkout (run.py builds and invokes it).
// Prints every metric by name and unit, a perfbench-info line with the
// host facts, seed and input digest, and as its last line the JSON result
// {"correct", "attempted", "failed", "metrics"}. The same record, plus the
// spans of a traced run, is written under $CARGO_TARGET_DIR (default
// .bench_build)/perfbench-results/. Exit codes: 0 ok, 2 usage, 3 an
// output check failed, 4 not a Release build, 1 any other error.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload solve-cold|serve-repeat --seed N\n"
               "                 --seconds S --trace 0|1 [--small]\n"
               "                 [--tamper schedule|fingerprint]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& value, long long min_value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE || v < min_value) {
    usage("bad value for " + flag + ": '" + value + "'");
  }
  return v;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string target_dir() {
  const char* env = std::getenv("CARGO_TARGET_DIR");
  return env != nullptr && *env != '\0' ? env : ".bench_build";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "none";
  std::string source_digest = "none";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_int(arg, next(), 0));
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_int(arg, next(), 1));
    } else if (arg == "--trace") {
      o.trace = parse_int(arg, next(), 0) != 0;
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--tamper") {
      o.tamper = next();
      if (o.tamper != "schedule" && o.tamper != "fingerprint") {
        usage("--tamper takes schedule or fingerprint");
      }
    } else if (arg == "--commit") {
      commit = next();
    } else if (arg == "--source-digest") {
      source_digest = next();
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed) {
    usage("--workload and --seed are required");
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }

#if !defined(NDEBUG)
  const bool release = false;
#else
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to report from a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 4;
  }

  const std::string target = target_dir();
  o.work_dir = target + "/perfbench-work/" + o.workload + "-" + std::to_string(::getpid());
  const std::string results_dir = target + "/perfbench-results";
  const std::string stem = results_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0");

  JsonObject host;
  host.integer("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .integer("nproc_online", static_cast<long long>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .str("compiler", PERFBENCH_CXX_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("commit", commit)
      .str("source_digest", source_digest);

  RunResult r;
  bool correct = true;
  int exit_code = 0;
  try {
    o.fig1_text = read_file("examples/fig1.fppn");
    r = run_workload(o);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    correct = false;
    exit_code = 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(o.work_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(o.work_dir, ec);

  JsonObject metrics;
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics.object(m.name, JsonObject().num("value", m.value).str("unit", m.unit));
  }
  JsonObject info;
  info.str("workload", o.workload)
      .integer("seed", static_cast<long long>(o.seed))
      .integer("seconds", static_cast<long long>(o.seconds))
      .boolean("trace", o.trace)
      .boolean("small", o.small)
      .str("input_digest", r.input_digest)
      .object("host", host)
      .object("details", r.details);
  JsonObject result;
  result.boolean("correct", correct)
      .integer("attempted", std::max(1L, r.attempted))
      .integer("failed", r.failed)
      .object("metrics", metrics);

  fs::create_directories(results_dir, ec);
  {
    std::ofstream out(stem + ".json");
    out << JsonObject().object("info", info).object("result", result).render() << "\n";
  }
  if (o.trace && !r.spans.empty()) {
    write_spans(stem + "-spans.jsonl", r.spans, r.origin);
  }
  std::printf("perfbench-info %s\n", info.render().c_str());
  std::printf("%s\n", result.render().c_str());
  return exit_code;
}
