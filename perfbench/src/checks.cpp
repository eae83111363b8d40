#include "checks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "engine/solve.hpp"
#include "io/text_format.hpp"
#include "taskgraph/analysis.hpp"
#include "taskgraph/fingerprint.hpp"

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& why) {
  throw CheckFailure(what + ": " + why);
}

struct Score {
  bool feasible = false;
  std::size_t deadline_violations = 0;
  fppn::Time makespan;
};

Score score(const fppn::TaskGraph& tg, const fppn::StaticSchedule& schedule) {
  Score s;
  const fppn::FeasibilityReport report = schedule.check_feasibility(tg);
  s.feasible = report.feasible();
  for (const fppn::Violation& v : report.violations) {
    s.deadline_violations += v.kind == fppn::ViolationKind::kDeadline ? 1 : 0;
  }
  s.makespan = schedule.makespan(tg);
  return s;
}

}  // namespace

Reference make_reference(const Request& request, std::int64_t processors) {
  const fppn::io::ParsedNetwork parsed = fppn::io::parse_network_string(request.text);
  fppn::engine::SolveRequest derive_request;
  derive_request.unfold = request.unfold;
  Reference ref;
  ref.derived = fppn::engine::derive_network(parsed, derive_request);
  const fppn::TaskGraph& tg = ref.derived.graph;
  ref.fingerprint = fppn::fingerprint(tg);
  // Total WCET over M is left exact: times are rational, so rounding it up
  // to a whole millisecond would not be a valid bound.
  const double per_processor =
      tg.total_work().to_double_ms() / static_cast<double>(processors);
  ref.lower_bound_ms =
      std::max(fppn::critical_path_length(tg).to_double_ms(), per_processor);
  return ref;
}

double check_winner(const Reference& ref, const Reported& reported, const std::string& what) {
  const fppn::TaskGraph& tg = ref.derived.graph;
  if (reported.fingerprint != ref.fingerprint) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "fingerprint %016" PRIx64 " != expected %016" PRIx64,
                  reported.fingerprint, ref.fingerprint);
    fail(what, buf);
  }
  if (reported.schedule->job_count() != tg.job_count()) {
    fail(what, "winner schedules " + std::to_string(reported.schedule->job_count()) +
                   " jobs, graph has " + std::to_string(tg.job_count()));
  }
  const Score s = score(tg, *reported.schedule);
  if (s.feasible != reported.feasible) {
    fail(what, std::string("re-validated feasibility ") + (s.feasible ? "1" : "0") +
                   " != reported " + (reported.feasible ? "1" : "0"));
  }
  const double makespan = s.makespan.to_double_ms();
  if (reported.makespan_ms.has_value() && makespan != *reported.makespan_ms) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "re-validated makespan %.17g != reported %.17g",
                  makespan, *reported.makespan_ms);
    fail(what, buf);
  }
  if (!(ref.lower_bound_ms > 0.0) || makespan < ref.lower_bound_ms * (1.0 - 1e-12)) {
    fail(what, "makespan below the lower bound");
  }
  return makespan / ref.lower_bound_ms;
}

ServeAnswer parse_serve_response(const std::string& response, const std::string& what) {
  const std::size_t eol = response.find('\n');
  const std::string status = response.substr(0, eol);
  if (status.rfind("fppn-serve ok ", 0) != 0 || eol == std::string::npos) {
    fail(what, "status line is not ok: '" + status.substr(0, 120) + "'");
  }
  ServeAnswer answer;
  std::istringstream fields(status);
  std::string token;
  std::string fp_hex;
  int feasible = -1;
  while (fields >> token) {
    if (token == "fingerprint") {
      fields >> fp_hex;
    } else if (token == "feasible") {
      fields >> feasible;
    }
  }
  try {
    answer.fingerprint = fppn::parse_fingerprint_hex(fp_hex);
  } catch (const std::exception& e) {
    fail(what, std::string("bad status fingerprint: ") + e.what());
  }
  if (feasible != 0 && feasible != 1) {
    fail(what, "status line lacks a feasible flag");
  }
  answer.feasible = feasible == 1;
  answer.entry_text = response.substr(eol + 1);
  try {
    answer.entry = fppn::io::read_schedule_entry_string(answer.entry_text);
  } catch (const std::exception& e) {
    fail(what, std::string("entry does not parse: ") + e.what());
  }
  if (answer.entry.fingerprint != answer.fingerprint) {
    fail(what, "entry fingerprint differs from the status line");
  }
  return answer;
}

void check_match_or_beat(const Reference& ref, const fppn::io::ScheduleEntry& cold,
                         const std::string& cold_text, const fppn::io::ScheduleEntry& warm,
                         const std::string& warm_text, const std::string& what) {
  if (warm_text == cold_text) {
    return;
  }
  const fppn::TaskGraph& tg = ref.derived.graph;
  const Score c = score(tg, cold.schedule);
  const Score w = score(tg, warm.schedule);
  const bool beats =
      w.feasible != c.feasible
          ? w.feasible
          : (w.deadline_violations != c.deadline_violations
                 ? w.deadline_violations < c.deadline_violations
                 : w.makespan < c.makespan);
  if (!beats) {
    fail(what, "warm answer neither matches the cold winner nor beats it");
  }
}

void tamper_schedule(const fppn::TaskGraph& tg, fppn::StaticSchedule& schedule) {
  std::size_t last = 0;
  for (std::size_t j = 1; j < schedule.job_count(); ++j) {
    if (schedule.end(fppn::JobId{last}, tg) < schedule.end(fppn::JobId{j}, tg)) {
      last = j;
    }
  }
  const fppn::JobId job{last};
  schedule.place(job, schedule.placement(job).processor, tg.job(job).deadline);
}

}  // namespace perfbench
