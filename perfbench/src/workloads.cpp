#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "engine/engine.hpp"
#include "inputs.hpp"
#include "serve_fixture.hpp"

namespace perfbench {

namespace engine = fppn::engine;
namespace sched = fppn::sched;
namespace net = fppn::net;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ workload design
//
// Every constant below is part of the benchmark's definition: changing one
// changes what the metrics mean, so it is a benchmark change, not a tuning
// knob of a program change.

/// Open-loop generator and load threads: at most nproc = 4 connections in
/// flight from at most 4 client threads.
constexpr int kClientThreads = 4;

// solve-cold: `fppn_tool schedule --optimize -m 3 --jobs 2`, one caller.
constexpr std::int64_t kColdProcessors = 3;
constexpr int kColdWorkers = 2;
constexpr std::size_t kColdMinSamples = 200;

// serve-repeat: fppn_serve -m 2 --workers 2 --jobs 2 (quick preset, memory
// L1): 2 solver threads x 2 search workers = nproc, driven by 4 closed-loop
// clients. (An open loop at a fixed rate left the threads idle between
// requests; on a shared VM the wake-ups made its p50 spread 38% across
// runs.)
constexpr std::int64_t kServeProcessors = 2;
constexpr int kServeSolverThreads = 2;
constexpr int kServeSearchWorkers = 2;
constexpr std::size_t kServeQueueCapacity = 64;
constexpr std::size_t kHotSet = 48;
/// Distinct fresh networks, enough that the sequence's 10% fresh draws
/// (700 expected) never run out: a fresh request must not hit the cache.
constexpr std::size_t kFreshPool = 768;
constexpr std::size_t kServeMinJobs = 200;
constexpr std::size_t kServeMaxJobs = 1000;
constexpr double kFreshShare = 0.10;
/// Requests per run: the run ends after --seconds or after these many,
/// whichever comes first (about 38 s today), so that no fresh request is
/// ever served warm.
constexpr std::size_t kServeSequence = 7000;
constexpr std::size_t kServeQualityPrefix = 1000;  ///< answer quality is read here
constexpr std::size_t kServeTracedRequests = 2000;  ///< per traced phase

constexpr double kSizeTolerance = 0.08;  ///< union job counts within 8% of target

/// The tail every latency is reported at. Fixed, so two commits compare the
/// same percentile; every run has well over 10 samples beyond it.
constexpr double kTailPercentile = 95.0;

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;

// ----------------------------------------------------------------- helpers

double proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

double rss_peak_mb() { return proc_status_kb("VmHWM") / 1024.0; }

/// Samples /proc/self/status Threads every millisecond while alive.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  [[nodiscard]] double peak() const { return peak_.load(); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const double now = proc_status_kb("Threads");
      if (now > peak_.load()) {
        peak_.store(now);
      }
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this] { return stop_; });
    }
  }
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<double> peak_{0.0};
  std::thread thread_;
};

struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

/// The latency at kTailPercentile, or at the highest lower percentile with
/// at least ten samples beyond it when a run is too short (--small).
Tail tail_latency(const std::vector<double>& samples) {
  static const double kPercentiles[] = {kTailPercentile, 90.0, 80.0, 50.0};
  Tail t;
  t.samples = samples.size();
  for (const double p : kPercentiles) {
    if (samples_beyond(samples.size(), p) >= 10) {
      t.percentile = p;
      break;
    }
  }
  t.value = percentile(samples, t.percentile);
  return t;
}

template <class Setup>
double median_setup_s(Setup setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(ms_since(t0) / 1000.0);
  }
  return median(times);
}

void add_metric(RunResult& r, const std::string& name, double value, const std::string& unit) {
  r.metrics.push_back(Metric{name, value, unit});
}

struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latency_ms;
  Tail tail;
  double throughput_rps = 0.0;
  double max_rate_rps = 0.0;
  long attempted = 0;
  long failed = 0;
  double makespan_gap = 0.0;
  double feasible_share = 0.0;
  double rss_peak_mb = 0.0;  ///< 0 = read at the end of the run
};

void emit_end_to_end(RunResult& r, const EndToEnd& e) {
  r.attempted = e.attempted;
  r.failed = e.failed;
  add_metric(r, "setup_s", e.setup_s, "s");
  add_metric(r, "latency_p50_ms", median(e.latency_ms), "ms");
  add_metric(r, "latency_tail_ms", e.tail.value, "ms");
  add_metric(r, "throughput_rps", e.throughput_rps, "1/s");
  add_metric(r, "max_rate_rps", e.max_rate_rps, "1/s");
  add_metric(r, "ok_share",
             e.attempted > 0 ? static_cast<double>(e.attempted - e.failed) /
                                   static_cast<double>(e.attempted)
                             : 0.0,
             "share");
  add_metric(r, "makespan_gap", e.makespan_gap, "ratio");
  add_metric(r, "feasible_share", e.feasible_share, "share");
  add_metric(r, "rss_peak_mb", e.rss_peak_mb > 0.0 ? e.rss_peak_mb : rss_peak_mb(), "MB");
  r.details.num("latency_tail_percentile", e.tail.percentile)
      .integer("latency_samples", static_cast<long long>(e.tail.samples));
}

/// One answer as the benchmark keeps it for checking.
struct Answer {
  std::uint64_t fingerprint = 0;
  bool feasible = false;
  std::optional<double> makespan_ms;
  fppn::io::ScheduleEntry entry;
  std::string entry_text;
};

Answer answer_from_report(const engine::SolveReport& report, const std::string& entry_text) {
  Answer a;
  a.fingerprint = report.fingerprint;
  a.feasible = report.feasible();
  a.makespan_ms = report.search.best.makespan.to_double_ms();
  a.entry_text = entry_text;
  return a;
}

/// Applies the --tamper self-test corruption to an answer, then re-renders
/// its entry so every later check sees the corrupted bytes.
void tamper(const std::string& mode, const Reference& ref, Answer& a) {
  if (mode.empty()) {
    return;
  }
  a.entry = fppn::io::read_schedule_entry_string(a.entry_text);
  if (mode == "schedule") {
    tamper_schedule(ref.derived.graph, a.entry.schedule);
    a.entry_text = fppn::io::write_schedule_entry(a.entry);
  } else if (mode == "fingerprint") {
    a.fingerprint ^= 1;
  }
}

/// Validates one answer against the benchmark's own derivation; returns
/// the makespan gap.
double validate(const Reference& ref, Answer& a, const std::string& mode, const std::string& what) {
  tamper(mode, ref, a);
  a.entry = fppn::io::read_schedule_entry_string(a.entry_text);
  Reported reported;
  reported.schedule = &a.entry.schedule;
  reported.feasible = a.feasible;
  reported.makespan_ms = a.makespan_ms;
  reported.fingerprint = a.fingerprint;
  return check_winner(ref, reported, what);
}

struct ToolAnswer {
  engine::SolveReport report;
  std::string entry;
};

/// One `fppn_tool schedule` run: a fresh Engine, one solve, the winner
/// rendered as the schedule entry the tool hands back.
ToolAnswer tool_request(const Request& r, const engine::SearchConfig& config) {
  engine::Engine engine;
  engine::SolveRequest request;
  request.network_text = r.text;
  request.unfold = r.unfold;
  request.config = config;
  ToolAnswer a;
  a.report = engine.solve(request);
  a.entry = render_entry(a.report.search, a.report.fingerprint, config);
  return a;
}

struct ClosedLoop {
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
  long failed = 0;
  std::size_t completed = 0;
};

/// Runs op(position) over positions 0, 1, 2, ... until `seconds` have
/// passed, at least one full pass of `sequence_length` is done and
/// `min_samples` requests completed. A throwing op counts as failed.
template <class Op>
ClosedLoop closed_loop(std::size_t sequence_length, double seconds, std::size_t min_samples,
                       Op op) {
  ClosedLoop out;
  const Clock::time_point start = Clock::now();
  for (std::size_t pos = 0;; ++pos) {
    const double elapsed = ms_since(start) / 1000.0;
    if (elapsed >= seconds && pos >= sequence_length && out.latency_ms.size() >= min_samples) {
      out.elapsed_s = elapsed;
      break;
    }
    const Clock::time_point t0 = Clock::now();
    try {
      op(pos);
      out.latency_ms.push_back(ms_since(t0));
      ++out.completed;
    } catch (const CheckFailure&) {
      throw;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request %zu failed: %s\n", pos, e.what());
      ++out.failed;
    }
  }
  return out;
}

/// Per-request aggregates of a traced run.
struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  std::size_t requests = 0;
  double coverage_min = 1.0;
  double coverage_p50 = 1.0;
  double covered_share = 1.0;  ///< requests whose coverage is at least 90%
};

/// Spans that only hold stages: their own time is glue, not a stage.
bool is_container(const std::string& name) {
  return name == "engine.handle" || name == "engine.solve";
}

/// Per-name totals plus, per request, the share of its traced latency the
/// stage spans cover: 1 - (self time of the containers) / latency. The
/// latency is the "request" span, or with `server_side` (serve-repeat,
/// whose client round trip also holds the untraced socket transport) the
/// server's part of it, queue wait plus handle.
TraceSummary summarize(const std::vector<SpanRecord>& spans, const std::vector<double>& self,
                       const std::function<bool(long)>& keep, bool server_side = false) {
  TraceSummary s;
  s.layers = layer_totals(spans, self, keep);
  std::map<long, double> latency;
  std::map<long, double> glue;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (!keep(span.request) || span.request < 0) {
      continue;
    }
    const double ms = ms_between(span.start, span.end);
    if (span.name == "request" && !server_side) {
      latency[span.request] += ms;
      glue[span.request] += self[i];
    } else if (server_side && (span.name == "net.queue_wait" || span.name == "engine.handle")) {
      latency[span.request] += ms;
    }
    if (is_container(span.name)) {
      glue[span.request] += self[i];
    }
  }
  std::vector<double> coverage;
  for (const auto& [id, ms] : latency) {
    coverage.push_back(ms > 0.0 ? 1.0 - glue[id] / ms : 1.0);
  }
  s.requests = latency.size();
  if (!coverage.empty()) {
    s.coverage_min = *std::min_element(coverage.begin(), coverage.end());
    s.coverage_p50 = median(coverage);
    s.covered_share =
        static_cast<double>(std::count_if(coverage.begin(), coverage.end(),
                                          [](double c) { return c >= 0.9; })) /
        static_cast<double>(coverage.size());
  }
  return s;
}

double layer_ms(const TraceSummary& s, const std::string& name) {
  const auto it = s.layers.find(name);
  return it == s.layers.end() || s.requests == 0
             ? 0.0
             : it->second.self_ms / static_cast<double>(s.requests);
}

double layer_total_ms(const TraceSummary& s, const std::string& name) {
  const auto it = s.layers.find(name);
  return it == s.layers.end() || s.requests == 0
             ? 0.0
             : it->second.total_ms / static_cast<double>(s.requests);
}

/// Counters recorded at the stage boundaries of traced requests.
struct Counts {
  double requests = 0;
  double jobs = 0;
  double evals_full = 0;
  double evals_incremental = 0;
  double evals_spliced = 0;
  double visited_skips = 0;
  double lookups = 0;
  double hits = 0;
  double stores = 0;
  double overlay_runs = 0;
  double overlay_candidates = 0;
  double overlay_wins = 0;
  double queue_depth = 0;

  void add_search(const StageOutcome& o) {
    requests += 1;
    jobs += static_cast<double>(o.jobs);
    evals_full += static_cast<double>(o.search.evals_full);
    evals_incremental += static_cast<double>(o.search.evals_incremental);
    evals_spliced += static_cast<double>(o.search.evals_spliced);
    visited_skips += static_cast<double>(o.search.visited_skips);
    if (o.search.warm_starts > 0) {
      overlay_runs += 1;
      overlay_candidates += static_cast<double>(o.search.warm_candidates);
      overlay_wins += o.search.warm_start_won ? 1 : 0;
    }
  }
};

double per(double value, double count) { return count > 0 ? value / count : 0.0; }

const std::vector<std::string>& plan_strategies() {
  static const std::vector<std::string> kNames = {"alap-edf", "arrival-order", "b-level",
                                                  "deadline-monotonic", "local-search",
                                                  "partitioned-wfd"};
  return kNames;
}

/// The per-layer metric set, identical for every workload; a layer a
/// workload does not exercise reads 0 there.
void emit_per_layer(RunResult& r, const TraceSummary& t, const Counts& c,
                    const std::map<std::string, std::pair<TraceSummary, Counts>>& by_class,
                    double trace_overhead, double threads_peak, double queue_wait_p50,
                    double queue_wait_tail, const engine::ServiceStats* serve_stats) {
  add_metric(r, "io.parse_ms", layer_ms(t, "io.parse"), "ms");
  add_metric(r, "io.render_ms", layer_ms(t, "io.render"), "ms");
  add_metric(r, "taskgraph.derive_ms", layer_ms(t, "taskgraph.derive"), "ms");
  add_metric(r, "taskgraph.fingerprint_ms", layer_ms(t, "taskgraph.fingerprint"), "ms");
  add_metric(r, "taskgraph.jobs", per(c.jobs, c.requests), "count");
  add_metric(r, "sched.enumerate_ms", layer_ms(t, "sched.enumerate"), "ms");
  add_metric(r, "sched.search_ms", layer_total_ms(t, "sched.search"), "ms");
  for (const std::string& name : plan_strategies()) {
    add_metric(r, "sched.strategy." + name + "_ms", layer_ms(t, "sched.strategy." + name), "ms");
  }
  add_metric(r, "sched.evals_full", per(c.evals_full, c.requests), "count");
  add_metric(r, "sched.evals_incremental", per(c.evals_incremental, c.requests), "count");
  add_metric(r, "sched.evals_spliced", per(c.evals_spliced, c.requests), "count");
  const double search_s =
      layer_total_ms(t, "sched.search") * static_cast<double>(t.requests) / 1000.0;
  add_metric(r, "sched.evals_per_s", per(c.evals_full + c.evals_incremental, search_s), "1/s");
  add_metric(r, "sched.visited_skips", per(c.visited_skips, c.requests), "count");
  for (const char* cls : {"small", "large"}) {
    const auto it = by_class.find(cls);
    double ratio = 0.0;
    double share = 0.0;
    if (it != by_class.end()) {
      const Counts& k = it->second.second;
      ratio = per(k.visited_skips, k.evals_full + k.evals_incremental + k.visited_skips);
      share = per(layer_total_ms(it->second.first, "sched.search"),
                  layer_total_ms(it->second.first, "engine.solve"));
    }
    add_metric(r, std::string("sched.visited_skip_ratio.") + cls, ratio, "share");
    add_metric(r, std::string("sched.search_share.") + cls, share, "share");
  }
  add_metric(r, "sched.cache_lookup_ms", layer_total_ms(t, "sched.cache_lookup"), "ms");
  add_metric(r, "sched.cache_hit_ratio", per(c.hits, c.lookups), "share");
  add_metric(r, "sched.cache_stores", per(c.stores, c.requests), "count");
  add_metric(r, "sched.overlay_ms", layer_ms(t, "sched.overlay"), "ms");
  add_metric(r, "sched.overlay_candidates", per(c.overlay_candidates, c.requests), "count");
  add_metric(r, "sched.overlay_win_ratio", per(c.overlay_wins, c.overlay_runs), "share");
  add_metric(r, "engine.solve_ms", layer_total_ms(t, "engine.solve"), "ms");
  add_metric(r, "engine.glue_ms", layer_ms(t, "engine.solve"), "ms");
  add_metric(r, "engine.handle_ms", layer_total_ms(t, "engine.handle"), "ms");
  add_metric(r, "engine.threads_peak", threads_peak, "count");
  add_metric(r, "net.queue_wait_p50_ms", queue_wait_p50, "ms");
  add_metric(r, "net.queue_wait_tail_ms", queue_wait_tail, "ms");
  add_metric(r, "net.queue_depth", per(c.queue_depth, c.requests), "count");
  // The client's request span minus queue wait and handle, i.e. its self time.
  add_metric(r, "net.transport_ms", serve_stats != nullptr ? layer_ms(t, "request") : 0.0, "ms");
  const engine::ServiceStats none;
  const engine::ServiceStats& net_stats = serve_stats != nullptr ? *serve_stats : none;
  add_metric(r, "net.overloaded", static_cast<double>(net_stats.overloaded), "count");
  add_metric(r, "net.shed", static_cast<double>(net_stats.shed), "count");
  add_metric(r, "net.timeouts",
             static_cast<double>(net_stats.idle_timeouts + net_stats.request_timeouts +
                                 net_stats.write_timeouts),
             "count");
  add_metric(r, "bench.trace_overhead", trace_overhead, "share");
  add_metric(r, "bench.span_coverage", t.coverage_p50, "share");
  r.details.num("span_coverage_min", t.coverage_min)
      .num("span_covered_share", t.covered_share)
      .integer("traced_requests", static_cast<long long>(t.requests));
}

/// Requires the stage spans to cover at least 90% of the traced latency on
/// at least 95% of the traced requests. The rest is slack for requests
/// whose thread was preempted inside glue code on a shared host (about 1%
/// of them on a 4-core VM); the covered share and the lowest coverage are
/// reported beside.
void check_coverage(const TraceSummary& t) {
  if (t.covered_share < 0.95) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "stage spans cover 90%% of the latency on only %.1f%% of traced requests",
                  t.covered_share * 100.0);
    throw CheckFailure(std::string("trace: ") + buf);
  }
}

void check_same_winner(const std::string& untraced, const std::string& traced,
                       const std::string& what) {
  if (untraced != traced) {
    throw CheckFailure(what + ": traced decomposition's winner differs from Engine::solve's");
  }
}

// ---------------------------------------------------------------- solve-cold

engine::SearchConfig cold_config() {
  engine::SearchConfig config;
  config.processors = kColdProcessors;
  config.workers = kColdWorkers;
  config.optimize = true;
  return config;
}

RunResult solve_cold(const RunOptions& o) {
  RunResult r;
  const engine::SearchConfig config = cold_config();
  std::vector<Request> list;
  const double setup_s = median_setup_s([&] {
    list = solve_cold_requests(o.seed, o.small, o.fig1_text);
  });
  Digest digest;
  for (const Request& q : list) {
    digest.add(q.text);
    digest.add_u64(static_cast<std::uint64_t>(q.unfold));
  }
  r.input_digest = digest.hex();
  std::size_t small_count = 0;
  for (const Request& q : list) {
    small_count += q.cls == "small" ? 1 : 0;
  }
  r.details.integer("requests_distinct", static_cast<long long>(list.size()))
      .integer("requests_small", static_cast<long long>(small_count));

  const double budget = o.small ? std::min(o.seconds, 1.0) : o.seconds;

  if (!o.trace) {
    const std::size_t min_samples = o.small ? 1 : kColdMinSamples;
    std::vector<std::optional<Answer>> first(list.size());
    std::vector<std::uint64_t> first_hash(list.size(), 0);
    std::vector<std::string> mismatch;
    const ClosedLoop loop = closed_loop(list.size(), budget, min_samples,
                                        [&](std::size_t pos) {
      const std::size_t i = pos % list.size();
      const ToolAnswer a = tool_request(list[i], config);
      const std::uint64_t h = hash_bytes(a.entry);
      if (!first[i].has_value()) {
        first[i] = answer_from_report(a.report, a.entry);
        first_hash[i] = h;
      } else if (h != first_hash[i]) {
        mismatch.push_back(list[i].label);
      }
    });
    if (!mismatch.empty()) {
      throw CheckFailure("solve-cold " + mismatch.front() +
                         ": a repeated cold solve returned a different winner");
    }
    EndToEnd e;
    e.setup_s = setup_s;
    e.latency_ms = loop.latency_ms;
    e.tail = tail_latency(loop.latency_ms);
    e.throughput_rps = static_cast<double>(loop.completed) / loop.elapsed_s;
    e.max_rate_rps = e.throughput_rps;
    e.attempted = static_cast<long>(loop.completed) + loop.failed;
    e.failed = loop.failed;
    std::vector<double> gaps;
    std::size_t feasible = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (!first[i].has_value()) {
        throw CheckFailure("solve-cold " + list[i].label + ": never answered");
      }
      const Reference ref = make_reference(list[i], kColdProcessors);
      gaps.push_back(validate(ref, *first[i], o.tamper, "solve-cold " + list[i].label));
      feasible += first[i]->feasible ? 1 : 0;
    }
    e.makespan_gap = geometric_mean(gaps);
    e.feasible_share = static_cast<double>(feasible) / static_cast<double>(list.size());
    emit_end_to_end(r, e);
    return r;
  }

  // Traced run: every request runs untraced (Engine::solve) and traced
  // (the stage decomposition) back to back, in alternating order, so
  // drift in the host's speed cancels out of the tracing overhead.
  ThreadSampler sampler;
  Tracer tracer;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  Counts counts;
  std::map<std::string, Counts> class_counts;
  std::vector<std::string> request_class;
  const Clock::time_point start = Clock::now();
  r.origin = start;
  for (std::size_t pos = 0; pos < list.size() || ms_since(start) < budget * 1000.0; ++pos) {
    const Request& q = list[pos % list.size()];
    std::string untraced;
    const auto run_untraced = [&] {
      const Clock::time_point t0 = Clock::now();
      untraced = tool_request(q, config).entry;
      untraced_ms.push_back(ms_since(t0));
    };
    if (pos % 2 == 0) {
      run_untraced();
    }
    const long id = static_cast<long>(request_class.size());
    request_class.push_back(q.cls);
    const Clock::time_point t0 = Clock::now();
    std::string entry;
    StageOutcome outcome;
    {
      const ScopedSpan root(&tracer, "request", -1, id);
      const ScopedSpan handle(&tracer, "engine.handle", root.id(), id);
      outcome = traced_solve(&tracer, handle.id(), id, q.text, q.unfold, config, nullptr);
      const ScopedSpan render(&tracer, "io.render", handle.id(), id);
      entry = render_entry(outcome.search, outcome.fingerprint, config);
    }
    traced_ms.push_back(ms_since(t0));
    if (pos % 2 == 1) {
      run_untraced();
    }
    counts.add_search(outcome);
    class_counts[q.cls].add_search(outcome);
    check_same_winner(untraced, entry, "solve-cold " + q.label);
  }
  r.spans = tracer.spans();
  const std::vector<double> self = self_times_ms(r.spans);
  const TraceSummary all = summarize(r.spans, self, [](long) { return true; });
  std::map<std::string, std::pair<TraceSummary, Counts>> by_class;
  for (const auto& [cls, c] : class_counts) {
    const std::string name = cls;
    const auto in_class = [&](long id) {
      return id >= 0 && request_class[static_cast<std::size_t>(id)] == name;
    };
    by_class[cls] = {summarize(r.spans, self, in_class), c};
  }
  r.attempted = static_cast<long>(untraced_ms.size() + traced_ms.size());
  const double overhead = median(traced_ms) / median(untraced_ms) - 1.0;
  emit_per_layer(r, all, counts, by_class, overhead, sampler.peak(), 0.0, 0.0, nullptr);
  r.details.num("span_covered_share_small", by_class["small"].first.covered_share)
      .num("span_covered_share_large", by_class["large"].first.covered_share);
  check_coverage(all);
  return r;
}

// -------------------------------------------------------------- serve-repeat

struct ServeInputs {
  std::vector<Request> pool;          ///< hot set first, then the fresh pool
  std::vector<std::size_t> sequence;  ///< pool index of each request, in order
};

ServeInputs serve_inputs(const RunOptions& o) {
  ServeInputs in;
  const std::size_t hot = o.small ? 4 : kHotSet;
  const std::size_t fresh = o.small ? 8 : kFreshPool;
  const std::size_t min_jobs = o.small ? 40 : kServeMinJobs;
  const std::size_t max_jobs = o.small ? 150 : kServeMaxJobs;
  in.pool = union_networks(o.seed, stratified_targets(hot, min_jobs, max_jobs), kSizeTolerance,
                           "hot");
  std::vector<std::size_t> fresh_targets;
  const std::vector<std::size_t> strata = stratified_targets(16, min_jobs, max_jobs);
  for (std::size_t i = 0; i < fresh; ++i) {
    fresh_targets.push_back(strata[i % strata.size()]);
  }
  std::vector<Request> fresh_pool =
      union_networks(o.seed + 0x5eed, fresh_targets, kSizeTolerance, "fresh");
  in.pool.insert(in.pool.end(), std::make_move_iterator(fresh_pool.begin()),
                 std::make_move_iterator(fresh_pool.end()));
  in.sequence = request_sequence(o.seed, kServeSequence, hot, fresh, kFreshShare);
  return in;
}

std::string serve_digest(const ServeInputs& in) {
  Digest d;
  for (const Request& q : in.pool) {
    d.add(q.text);
  }
  for (const std::size_t request : in.sequence) {
    d.add_u64(request);
  }
  return d.hex();
}

engine::ServiceOptions serve_service_options() {
  engine::ServiceOptions s;
  s.processors = kServeProcessors;
  s.search_workers = kServeSearchWorkers;
  return s;
}

engine::SearchConfig serve_config() {
  // What SolveService::handle builds for every request of this service.
  engine::SearchConfig config;
  config.processors = kServeProcessors;
  config.workers = kServeSearchWorkers;
  config.memory_cache = true;
  return config;
}

net::ServerOptions serve_server_options() {
  net::ServerOptions s;
  s.solver_threads = kServeSolverThreads;
  s.queue_capacity = kServeQueueCapacity;
  return s;
}

/// One served request as the client saw it.
struct Sent {
  double rtt_ms = 0.0;  ///< from send to the full response
  std::uint64_t response_hash = 0;
  bool ok = false;
};

/// Keeps one response text per distinct (request, response) pair.
class ResponseStore {
 public:
  void add(std::size_t request, std::uint64_t hash, const std::string& response) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& slot = texts_[{request, hash}];
    if (slot.empty()) {
      slot = response;
    }
  }
  [[nodiscard]] const std::map<std::pair<std::size_t, std::uint64_t>, std::string>& texts() const {
    return texts_;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> texts_;
};

/// Hands the client's root span to the solver thread that serves the
/// request (matched by request bytes; equal bytes are interchangeable).
class RootHandoff {
 public:
  void put(std::size_t key, long span, long request) {
    const std::lock_guard<std::mutex> lock(mu_);
    pending_[key].emplace_back(span, request);
  }
  std::pair<long, long> take(std::size_t key) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& q = pending_[key];
    if (q.empty()) {
      return {-1, -1};
    }
    const auto front = q.front();
    q.pop_front();
    return front;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::size_t, std::deque<std::pair<long, long>>> pending_;
};

/// kClientThreads closed-loop clients, each sending its next request as
/// soon as its previous response is complete, work through the sequence in
/// order until `count` requests are done or `seconds` have passed (with at
/// least `min_count` done). Returns the completed prefix of the sequence.
/// When given, `rss_mb` is the peak resident memory read as request
/// kServeQualityPrefix is sent.
std::vector<Sent> drive_clients(const net::Endpoint& endpoint, const ServeInputs& in,
                                std::size_t count, double seconds, std::size_t min_count,
                                ResponseStore& store, Tracer* tracer, RootHandoff* handoff,
                                double* rss_mb = nullptr) {
  count = std::min(count, in.sequence.size());
  std::vector<Sent> out(count);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto client = [&] {
    for (;;) {
      if (ms_since(start) >= seconds * 1000.0 && next.load() >= min_count) {
        return;
      }
      const std::size_t i = next.fetch_add(1);
      if (i >= count) {
        return;
      }
      if (rss_mb != nullptr && i == kServeQualityPrefix) {
        *rss_mb = rss_peak_mb();
      }
      const Request& q = in.pool[in.sequence[i]];
      const Clock::time_point sent = Clock::now();
      long root = -1;
      if (tracer != nullptr) {
        root = tracer->open("request", -1, static_cast<long>(i), sent);
        handoff->put(std::hash<std::string>{}(q.text), root, static_cast<long>(i));
      }
      const std::string response = roundtrip(endpoint, q.text);
      const Clock::time_point done = Clock::now();
      if (tracer != nullptr) {
        tracer->close(root, done);
      }
      Sent& s = out[i];
      s.rtt_ms = ms_between(sent, done);
      s.ok = response.rfind("fppn-serve ok ", 0) == 0;
      s.response_hash = hash_bytes(response);
      store.add(in.sequence[i], s.response_hash, response);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back(client);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  out.resize(std::min(next.load(), count));
  return out;
}

/// Validates every distinct response of a serve run. A hot request's
/// answers must match or beat its pre-warm (cold) answer; a fresh request
/// answered more than once, its first answer. Returns every checked
/// answer by (request, response hash).
std::map<std::pair<std::size_t, std::uint64_t>, Answer> validate_serve(
    const ServeInputs& in, const ResponseStore& store,
    const std::map<std::size_t, std::string>& cold,
    const std::map<std::size_t, std::uint64_t>& first_hash, const std::string& mode) {
  std::map<std::size_t, Reference> refs;
  const auto ref_for = [&](std::size_t request) -> const Reference& {
    auto it = refs.find(request);
    if (it == refs.end()) {
      it = refs.emplace(request, make_reference(in.pool[request], kServeProcessors)).first;
    }
    return it->second;
  };
  const auto parse = [&](std::size_t request, const std::string& text, const std::string& what) {
    const ServeAnswer s = parse_serve_response(text, what);
    Answer a;
    a.fingerprint = s.fingerprint;
    a.feasible = s.feasible;
    a.entry_text = s.entry_text;
    validate(ref_for(request), a, mode, what);
    return a;
  };
  std::map<std::size_t, Answer> base;
  for (const auto& [request, text] : cold) {
    base.emplace(request, parse(request, text, "serve-repeat pre-warm " + in.pool[request].label));
  }
  std::map<std::pair<std::size_t, std::uint64_t>, Answer> answers;
  for (const auto& [key, text] : store.texts()) {
    answers.emplace(key, parse(key.first, text, "serve-repeat " + in.pool[key.first].label));
  }
  for (const auto& [key, first] : first_hash) {
    if (base.count(key) == 0) {
      base.emplace(key, answers.at({key, first}));
    }
  }
  for (const auto& [key, a] : answers) {
    const Answer& b = base.at(key.first);
    check_match_or_beat(ref_for(key.first), b.entry, b.entry_text, a.entry, a.entry_text,
                        "serve-repeat " + in.pool[key.first].label);
  }
  return answers;
}

/// The first response hash of every request, in sequence order.
std::map<std::size_t, std::uint64_t> first_hashes(const ServeInputs& in,
                                                  const std::vector<Sent>& sent) {
  std::map<std::size_t, std::uint64_t> first;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    first.emplace(in.sequence[i], sent[i].response_hash);
  }
  return first;
}

RunResult serve_repeat(const RunOptions& o) {
  RunResult r;
  const std::string socket = o.work_dir + "/serve.sock";
  ServeInputs in;
  std::unique_ptr<ServeFixture> fixture;
  std::map<std::size_t, std::string> cold;  // hot request -> pre-warm response
  const std::size_t hot = o.small ? 4 : kHotSet;
  const auto setup = [&] {
    fixture.reset();
    in = serve_inputs(o);
    fixture =
        std::make_unique<ServeFixture>(socket, serve_service_options(), serve_server_options());
    cold.clear();
    for (std::size_t h = 0; h < hot; ++h) {
      cold[h] = roundtrip(fixture->endpoint(), in.pool[h].text);
    }
  };
  const double seconds = o.small ? std::min(o.seconds, 1.0) : o.seconds;
  const std::size_t quality_prefix = o.small ? 20 : kServeQualityPrefix;

  if (!o.trace) {
    const double setup_s = median_setup_s(setup);
    r.input_digest = serve_digest(in);
    ResponseStore store;
    // The memory L1 keeps every fresh answer, so memory is read at a fixed
    // request count, not at the end of a run whose length depends on speed.
    double rss_mb = 0.0;
    const Clock::time_point begin = Clock::now();
    const std::vector<Sent> sent =
        drive_clients(fixture->endpoint(), in, in.sequence.size(), seconds, quality_prefix + 1,
                      store, nullptr, nullptr, &rss_mb);
    const double span_s = ms_since(begin) / 1000.0;
    fixture.reset();
    const std::map<std::size_t, std::uint64_t> first_hash = first_hashes(in, sent);
    const auto answers = validate_serve(in, store, cold, first_hash, o.tamper);

    EndToEnd e;
    e.setup_s = setup_s;
    e.rss_peak_mb = rss_mb;
    std::set<std::size_t> distinct;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      e.latency_ms.push_back(sent[i].rtt_ms);
      e.failed += sent[i].ok ? 0 : 1;
      if (i < quality_prefix) {
        distinct.insert(in.sequence[i]);
      }
    }
    e.attempted = static_cast<long>(sent.size());
    e.tail = tail_latency(e.latency_ms);
    e.throughput_rps = static_cast<double>(sent.size()) / span_s;
    e.max_rate_rps = e.throughput_rps;
    // Answer quality over the sequence's fixed prefix, so it repeats
    // exactly however far a run gets.
    std::vector<double> gaps;
    std::size_t feasible = 0;
    for (const std::size_t request : distinct) {
      const Answer& a = answers.at({request, first_hash.at(request)});
      const Reference ref = make_reference(in.pool[request], kServeProcessors);
      gaps.push_back(a.entry.schedule.makespan(ref.derived.graph).to_double_ms() /
                     ref.lower_bound_ms);
      feasible += a.feasible ? 1 : 0;
    }
    e.makespan_gap = geometric_mean(gaps);
    e.feasible_share = static_cast<double>(feasible) / static_cast<double>(distinct.size());
    emit_end_to_end(r, e);
    return r;
  }

  // Traced run. Phase A serves a fixed prefix of the sequence through
  // SolveService (the real path); phase B serves it again through the
  // traced decomposition behind the same net::Server, with its own
  // pre-warmed memory cache. The responses must agree byte for byte.
  setup();
  r.input_digest = serve_digest(in);
  const std::size_t traced = o.small ? 20 : kServeTracedRequests;
  ThreadSampler sampler;
  ResponseStore store_a;
  const std::vector<Sent> phase_a = drive_clients(fixture->endpoint(), in, traced, 1e9, traced,
                                                  store_a, nullptr, nullptr);
  fixture.reset();

  Tracer tracer;
  RootHandoff handoff;
  sched::ScheduleCache cache;
  const engine::SearchConfig config = serve_config();
  std::mutex counts_mu;
  Counts counts;
  std::vector<double> queue_waits;
  const auto handler = [&](std::string request, const net::RequestInfo& info) {
    const Clock::time_point popped = Clock::now();
    const auto [root, id] = handoff.take(std::hash<std::string>{}(request));
    const long wait = tracer.open(
        "net.queue_wait", root, id,
        popped - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(info.queue_wait_ms)));
    tracer.close(wait, popped);
    StageOutcome outcome;
    std::string response;
    try {
      const ScopedSpan handle(&tracer, "engine.handle", root, id);
      outcome = traced_solve(&tracer, handle.id(), id, request, 1, config, &cache);
      const ScopedSpan render(&tracer, "io.render", handle.id(), id);
      response = render_response(outcome.search, outcome.fingerprint, config);
    } catch (const std::exception& e) {
      // SolveService's error line; the response comparison then fails.
      return std::string("fppn-serve error: ") + e.what() + "\n";
    }
    const std::lock_guard<std::mutex> lock(counts_mu);
    counts.add_search(outcome);
    counts.lookups += static_cast<double>(outcome.search.candidates);
    counts.hits += static_cast<double>(outcome.search.cache_hits);
    // Every candidate the search evaluated is stored in the memory L1.
    counts.stores += static_cast<double>(outcome.search.evaluated);
    counts.queue_depth += static_cast<double>(info.queue_depth);
    queue_waits.push_back(info.queue_wait_ms);
    return response;
  };
  // Pre-warm phase B's cache exactly as phase A's service cache was.
  for (std::size_t h = 0; h < hot; ++h) {
    (void)traced_solve(nullptr, -1, -1, in.pool[h].text, 1, config, &cache);
  }
  fixture = std::make_unique<ServeFixture>(socket, serve_service_options(),
                                           serve_server_options(), handler);
  ResponseStore store_b;
  r.origin = Clock::now();
  const std::vector<Sent> phase_b = drive_clients(fixture->endpoint(), in, traced, 1e9, traced,
                                                  store_b, &tracer, &handoff);
  const engine::ServiceStats stats = fixture->service().stats();
  fixture.reset();
  for (std::size_t i = 0; i < phase_a.size(); ++i) {
    if (phase_a[i].response_hash != phase_b[i].response_hash) {
      throw CheckFailure("serve-repeat " + in.pool[in.sequence[i]].label +
                         ": traced decomposition's response differs from SolveService's");
    }
  }
  (void)validate_serve(in, store_b, cold, first_hashes(in, phase_b), o.tamper);

  r.spans = tracer.spans();
  const std::vector<double> self = self_times_ms(r.spans);
  const TraceSummary all = summarize(r.spans, self, [](long) { return true; }, true);
  std::vector<double> rtt_a;
  std::vector<double> rtt_b;
  for (std::size_t i = 0; i < phase_a.size(); ++i) {
    rtt_a.push_back(phase_a[i].rtt_ms);
    rtt_b.push_back(phase_b[i].rtt_ms);
  }
  r.attempted = static_cast<long>(phase_a.size() + phase_b.size());
  const Tail wait_tail = tail_latency(queue_waits);
  emit_per_layer(r, all, counts, {}, median(rtt_b) / median(rtt_a) - 1.0, sampler.peak(),
                 median(queue_waits), wait_tail.value, &stats);
  // Where a repeat's time goes, apart from the fresh requests' searches.
  for (const char* cls : {"hot", "fresh"}) {
    const std::string name = cls;
    const TraceSummary part = summarize(
        r.spans, self,
        [&](long id) {
          return id >= 0 && in.pool[in.sequence[static_cast<std::size_t>(id)]].cls == name;
        },
        true);
    JsonObject stages;
    for (const char* stage : {"io.parse", "taskgraph.derive", "taskgraph.fingerprint",
                              "sched.cache_lookup", "sched.search", "sched.overlay",
                              "io.render", "net.queue_wait"}) {
      stages.num(stage, layer_total_ms(part, stage));
    }
    stages.num("engine.handle", layer_total_ms(part, "engine.handle"));
    r.details.object(name == "hot" ? "repeat_ms" : "fresh_ms", stages);
  }
  check_coverage(all);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"solve-cold", "serve-repeat"};
  return kNames;
}

RunResult run_workload(const RunOptions& options) {
  fs::create_directories(options.work_dir);
  RunResult r;
  if (options.workload == "solve-cold") {
    r = solve_cold(options);
  } else if (options.workload == "serve-repeat") {
    r = serve_repeat(options);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return r;
}

}  // namespace perfbench
