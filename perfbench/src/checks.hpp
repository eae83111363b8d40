// Output checks. Each failure throws CheckFailure, which fails the run
// (non-zero exit, "correct": false) rather than becoming a metric.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "inputs.hpp"
#include "io/schedule_format.hpp"
#include "sched/static_schedule.hpp"
#include "taskgraph/derivation.hpp"

namespace perfbench {

class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The benchmark's own derivation of a request: parse and derive through
/// io and taskgraph, the fingerprint, and the makespan lower bound
/// max(critical path, total WCET / M) from taskgraph/analysis.
struct Reference {
  fppn::DerivedTaskGraph derived;
  std::uint64_t fingerprint = 0;
  double lower_bound_ms = 0.0;
};

Reference make_reference(const Request& request, std::int64_t processors);

/// A winner as the program reported it.
struct Reported {
  const fppn::StaticSchedule* schedule = nullptr;
  bool feasible = false;
  std::optional<double> makespan_ms;  ///< unset when not reported (the wire)
  std::uint64_t fingerprint = 0;
};

/// Re-validates `reported.schedule` with StaticSchedule::check_feasibility
/// against `ref`; its feasibility, makespan and fingerprint must equal the
/// reported ones. Returns the winner's makespan gap (makespan over the
/// lower bound).
double check_winner(const Reference& ref, const Reported& reported, const std::string& what);

/// One parsed "fppn-serve ok" response.
struct ServeAnswer {
  std::uint64_t fingerprint = 0;
  bool feasible = false;
  std::string entry_text;  ///< the schedule entry, verbatim
  fppn::io::ScheduleEntry entry;
};

/// Parses a response: the status line must be "fppn-serve ok ..." and the
/// entry must parse with io::read_schedule_entry_string.
ServeAnswer parse_serve_response(const std::string& response, const std::string& what);

/// A warm answer must equal the cold one bit for bit or strictly beat it
/// on (feasibility, deadline violations, makespan).
void check_match_or_beat(const Reference& ref, const fppn::io::ScheduleEntry& cold,
                         const std::string& cold_text, const fppn::io::ScheduleEntry& warm,
                         const std::string& warm_text, const std::string& what);

/// Deliberate corruption for the benchmark's own tests: "schedule" moves
/// the last-finishing job to start at its deadline; "fingerprint" flips
/// one bit of the reported fingerprint.
void tamper_schedule(const fppn::TaskGraph& tg, fppn::StaticSchedule& schedule);

}  // namespace perfbench
