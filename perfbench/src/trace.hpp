// The traced run's span recorder and the stage decomposition it times.
//
// Spans are recorded only from the benchmark's own code, around calls into
// each layer's public functions: io, taskgraph, sched, engine and net. A
// span is (name, start, end, parent, request id); spans stay in memory and
// are written out when the run ends. A layer's self time is its span's
// duration minus the part of that interval its child spans cover.
//
// traced_solve() replays what engine::Engine::solve does for one request
// (parse, derive, fingerprint, enumerate, evaluate, select, warm-start
// overlay) one public call at a time, so each stage gets its own span; the
// winner it returns must be bit-identical to Engine::solve's, which the
// workloads check.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/solve.hpp"
#include "sched/parallel_search.hpp"
#include "sched/schedule_cache.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  long parent = -1;   ///< index of the parent span, -1 for a request root
  long request = -1;  ///< request id shared by every span of one request
};

/// Thread-safe in-memory span store. Spans from search worker and solver
/// threads land here concurrently.
class Tracer {
 public:
  long open(std::string name, long parent, long request,
            Clock::time_point start = Clock::now());
  void close(long id, Clock::time_point end = Clock::now());
  void rename(long id, std::string name);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, long parent, long request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name), parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] long id() const { return id_; }
  void rename(std::string name) {
    if (tracer_ != nullptr) {
      tracer_->rename(id_, std::move(name));
    }
  }

 private:
  Tracer* tracer_;
  long id_;
};

/// What one decomposed solve produced.
struct StageOutcome {
  fppn::sched::ParallelSearchResult search;
  std::uint64_t fingerprint = 0;
  std::size_t jobs = 0;
};

/// Engine::solve for a network-text request, one stage per span, each a
/// child of `parent`. `cache` stands in for the cache the Engine would
/// attach (null = none); `config` supplies everything else.
StageOutcome traced_solve(Tracer* tracer, long parent, long request,
                          const std::string& text, int unfold,
                          const fppn::engine::SearchConfig& config,
                          fppn::sched::ScheduleCache* cache);

/// The "fppn-schedule v1" entry of a winner, exactly as SolveService
/// renders it.
std::string render_entry(const fppn::sched::ParallelSearchResult& search,
                         std::uint64_t fingerprint,
                         const fppn::engine::SearchConfig& config);

/// The full fppn-serve "ok" response (status line + entry), exactly as
/// SolveService::handle renders it.
std::string render_response(const fppn::sched::ParallelSearchResult& search,
                            std::uint64_t fingerprint,
                            const fppn::engine::SearchConfig& config);

/// Per-name aggregates over a span set: summed self time and duration.
struct LayerTotals {
  double self_ms = 0.0;
  double total_ms = 0.0;
};

/// Self time of every span (duration minus the union of its children).
std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans);

/// Aggregates by span name; `keep(request)` filters by request id.
template <class Keep>
std::map<std::string, LayerTotals> layer_totals(const std::vector<SpanRecord>& spans,
                                                const std::vector<double>& self_ms,
                                                Keep keep) {
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!keep(spans[i].request)) {
      continue;
    }
    LayerTotals& t = out[spans[i].name];
    t.self_ms += self_ms[i];
    t.total_ms += ms_between(spans[i].start, spans[i].end);
  }
  return out;
}

/// Writes the spans as one JSON object per line.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 Clock::time_point origin);

}  // namespace perfbench
