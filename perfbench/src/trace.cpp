#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "sched/registry.hpp"
#include "taskgraph/fingerprint.hpp"

namespace perfbench {

namespace sched = fppn::sched;

long Tracer::open(std::string name, long parent, long request, Clock::time_point start) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRecord{std::move(name), start, start, parent, request});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::close(long id, Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::rename(long id, std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].name = std::move(name);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

/// A registered strategy with a span around every schedule() call — how
/// per-strategy time is seen from outside the search: evaluate_candidates
/// takes the registry to instantiate candidates from.
class TracedStrategy final : public sched::SchedulerStrategy {
 public:
  TracedStrategy(std::unique_ptr<sched::SchedulerStrategy> inner, Tracer* tracer,
                 long parent, long request)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent), request_(request) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string description() const override { return inner_->description(); }
  [[nodiscard]] bool seedable() const override { return inner_->seedable(); }
  [[nodiscard]] sched::StrategyResult schedule(const fppn::TaskGraph& tg,
                                               const sched::StrategyOptions& opts) const override {
    const ScopedSpan span(tracer_, "sched.strategy." + inner_->name(), parent_, request_);
    return inner_->schedule(tg, opts);
  }

 private:
  std::unique_ptr<sched::SchedulerStrategy> inner_;
  Tracer* tracer_;
  long parent_;
  long request_;
};

/// The global registry's strategies, each wrapped in a TracedStrategy.
std::unique_ptr<sched::StrategyRegistry> traced_registry(Tracer* tracer, long parent,
                                                         long request) {
  auto registry = std::make_unique<sched::StrategyRegistry>();
  const sched::StrategyRegistry& global = sched::StrategyRegistry::global();
  for (const std::string& name : global.names()) {
    registry->add(name, [&global, name, tracer, parent, request] {
      return std::make_unique<TracedStrategy>(global.create(name), tracer, parent, request);
    });
  }
  return registry;
}

}  // namespace

StageOutcome traced_solve(Tracer* tracer, long parent, long request,
                          const std::string& text, int unfold,
                          const fppn::engine::SearchConfig& config,
                          sched::ScheduleCache* cache) {
  const ScopedSpan solve(tracer, "engine.solve", parent, request);
  std::optional<fppn::io::ParsedNetwork> parsed;
  {
    const ScopedSpan span(tracer, "io.parse", solve.id(), request);
    parsed = fppn::io::parse_network_string(text);
  }
  std::optional<fppn::DerivedTaskGraph> derived;
  {
    const ScopedSpan span(tracer, "taskgraph.derive", solve.id(), request);
    fppn::engine::SolveRequest derive_request;
    derive_request.unfold = unfold;
    derived = fppn::engine::derive_network(*parsed, derive_request);
  }
  const fppn::TaskGraph& tg = derived->graph;
  StageOutcome out;
  out.jobs = tg.job_count();
  {
    const ScopedSpan span(tracer, "taskgraph.fingerprint", solve.id(), request);
    out.fingerprint = fppn::fingerprint(tg);
  }

  sched::ParallelSearchOptions opts = config.search_options();
  opts.cache = cache;
  std::vector<sched::SearchCandidate> candidates;
  {
    const ScopedSpan span(tracer, "sched.enumerate", solve.id(), request);
    candidates = sched::enumerate_search_candidates(opts);
  }
  sched::CandidateEvaluation eval;
  {
    ScopedSpan span(tracer, "sched.search", solve.id(), request);
    const auto registry = traced_registry(tracer, span.id(), request);
    eval = sched::evaluate_candidates(tg, opts, candidates, *registry);
    if (eval.evaluated == 0) {
      span.rename("sched.cache_lookup");  // all-hit: lookup plus re-score
    }
  }

  // Winner selection and result assembly, as parallel_search does them.
  std::size_t best = 0;
  for (std::size_t i = 1; i < eval.results.size(); ++i) {
    if (sched::better_search_candidate(eval.results[i], candidates[i].seed,
                                       eval.results[best], candidates[best].seed)) {
      best = i;
    }
  }
  sched::ParallelSearchResult& result = out.search;
  result.best = std::move(eval.results[best]);
  result.seed = candidates[best].seed;
  result.candidates = candidates.size();
  result.evaluated = eval.evaluated;
  result.cache_hits = eval.cache_hits;
  result.workers_used = eval.workers_used;
  result.evals_full = eval.evals_full;
  result.evals_incremental = eval.evals_incremental;
  result.evals_spliced = eval.evals_spliced;
  result.visited_skips = eval.visited_skips;
  if (opts.warm_start && cache != nullptr) {
    const ScopedSpan span(tracer, "sched.overlay", solve.id(), request);
    sched::apply_cached_warm_start(tg, opts, result);
  }
  return out;
}

std::string render_entry(const sched::ParallelSearchResult& search,
                         std::uint64_t fingerprint,
                         const fppn::engine::SearchConfig& config) {
  const sched::ParallelSearchOptions opts = config.search_options();
  fppn::io::ScheduleEntry entry;
  entry.fingerprint = fingerprint;
  entry.strategy = search.best.strategy;
  entry.seed = search.seed;
  entry.processors = config.processors;
  entry.max_iterations = opts.max_iterations;
  entry.restarts = opts.restarts;
  entry.detail = search.best.detail;
  entry.schedule = search.best.schedule;
  return fppn::io::write_schedule_entry(entry);
}

std::string render_response(const sched::ParallelSearchResult& search,
                            std::uint64_t fingerprint,
                            const fppn::engine::SearchConfig& config) {
  char status[256];
  std::snprintf(status, sizeof(status),
                "fppn-serve ok fingerprint %016llx candidates %zu evaluated %zu "
                "cached %zu winner %s seed %llu feasible %d\n",
                static_cast<unsigned long long>(fingerprint), search.candidates,
                search.evaluated, search.cache_hits, search.best.strategy.c_str(),
                static_cast<unsigned long long>(search.seed), search.best.feasible ? 1 : 0);
  return std::string(status) + render_entry(search, fingerprint, config);
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const std::size_t c : children[i]) {
      const Clock::time_point a = std::max(spans[c].start, s.start);
      const Clock::time_point b = std::min(spans[c].end, s.end);
      if (a < b) {
        cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    out[i] = std::max(0.0, ms_between(s.start, s.end) - covered);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span file '" + path + "'");
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %ld, \"request\": %ld}\n",
                  i, JsonObject::quote(s.name).c_str(), ms_between(origin, s.start) * 1000.0,
                  ms_between(origin, s.end) * 1000.0, s.parent, s.request);
    out << line;
  }
}

}  // namespace perfbench
