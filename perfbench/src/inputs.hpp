// Seeded request generation for the workloads. Everything here is a pure
// function of (workload seed, size mode): the program under test only ever
// receives the generated `.fppn` bytes (plus, for solve-cold, the unfold
// factor a `fppn_tool schedule --unfold` run passes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Request {
  std::string text;    ///< `.fppn` network bytes
  int unfold = 1;      ///< derivation unfold factor (never on the wire)
  std::string cls;     ///< size or role class: small, large, hot, fresh
  std::string label;   ///< provenance, e.g. "pipeline-17/u40"
};

/// solve-cold: a fixed list mixing the small class (every gen family at
/// unfold 1) with the large class (the same families plus fig1 at unfolds
/// reaching about 300-1.4k jobs), interleaved so every prefix mixes both.
/// `fig1_text` is examples/fig1.fppn.
std::vector<Request> solve_cold_requests(std::uint64_t seed, bool small,
                                         const std::string& fig1_text);

/// serve-repeat: one distinct network per target job count,
/// each a disjoint union of 2-4 gen scenarios whose job count (fixed by the
/// lcm of the periods, since the wire has no unfold) lies within
/// `tolerance` of its target.
std::vector<Request> union_networks(std::uint64_t seed, const std::vector<std::size_t>& targets,
                                    double tolerance, const std::string& cls);

/// `count` job-count targets stratified over [lo, hi], in a fixed
/// scrambled order so a target's position (e.g. popularity rank) does not
/// follow its size.
std::vector<std::size_t> stratified_targets(std::size_t count, std::size_t lo, std::size_t hi);

/// serve-repeat's request sequence: `length` indices into the pool (hot
/// set first, then the fresh pool). Each is a Zipf(0.7)-drawn hot request
/// with probability 1 - fresh_share, else the next fresh one in order; no
/// fresh request repeats (once the pool is used up, every draw is hot).
std::vector<std::size_t> request_sequence(std::uint64_t seed, std::size_t length,
                                          std::size_t hot_count, std::size_t fresh_count,
                                          double fresh_share);

}  // namespace perfbench
