#include "inputs.hpp"

#include <cmath>
#include <stdexcept>

#include "gen/rng.hpp"
#include "gen/scenario.hpp"
#include "io/text_format.hpp"
#include "taskgraph/derivation.hpp"

namespace perfbench {

using fppn::Duration;
using fppn::Rational;
using fppn::gen::Family;
using fppn::gen::Rng;

namespace {

/// Jobs of one hyperperiod, from the spec alone (periodic processes only):
/// sum over processes of burst * H / T with H the lcm of the periods.
std::size_t spec_jobs(const fppn::gen::ScenarioSpec& spec) {
  Duration hyper = spec.processes.front().period;
  for (const auto& p : spec.processes) {
    hyper = Duration::lcm(hyper, p.period);
  }
  std::size_t jobs = 0;
  for (const auto& p : spec.processes) {
    const Rational per = hyper.value() / p.period.value();
    jobs += static_cast<std::size_t>(p.burst) * static_cast<std::size_t>(per.num());
  }
  return jobs;
}

/// Jobs of a network at unfold 1, by deriving it (every family, sporadic
/// servers included).
std::size_t derived_jobs(const fppn::gen::Scenario& s) {
  return fppn::derive_task_graph(s.net, s.wcets).graph.job_count();
}

/// Appends `part` to `into` with every name prefixed and indices shifted,
/// WCETs scaled by `wcet_scale` so the union keeps one component's load.
void append_component(fppn::gen::ScenarioSpec& into, const fppn::gen::ScenarioSpec& part,
                      const std::string& prefix, const Rational& wcet_scale) {
  const std::size_t offset = into.processes.size();
  for (fppn::gen::ProcessSpec p : part.processes) {
    p.name = prefix + p.name;
    p.wcet = Duration(p.wcet.value() * wcet_scale);
    into.processes.push_back(std::move(p));
  }
  for (fppn::gen::ChannelSpec c : part.channels) {
    c.name = prefix + c.name;
    c.writer += offset;
    c.reader += offset;
    into.channels.push_back(std::move(c));
  }
  for (fppn::gen::PrioritySpec p : part.priorities) {
    p.higher += offset;
    p.lower += offset;
    into.priorities.push_back(p);
  }
}

/// A Zipf(s) sampler over ranks 0..n-1, fed 64 random bits per draw.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    cdf_.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  [[nodiscard]] std::size_t draw(std::uint64_t random_bits) const {
    const double u = static_cast<double>(random_bits >> 11) * 0x1.0p-53;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      if (u < cdf_[k]) {
        return k;
      }
    }
    return cdf_.size() - 1;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<Request> solve_cold_requests(std::uint64_t seed, bool small,
                                         const std::string& fig1_text) {
  // Small class: every family at unfold 1 (3-28 jobs), where the
  // visited-set fires. Large class: every family plus fig1, unfolded to
  // stratified job-count targets across [300, 1400] so the list's cost is
  // set by its size ladder, not by which scenarios a seed happens to draw.
  const std::size_t small_per_family = small ? 1 : 6;
  const std::size_t large_per_source = small ? 1 : 16;
  const std::size_t min_jobs = small ? 40 : 300;
  const std::size_t max_jobs = small ? 120 : 1400;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);

  std::vector<Request> small_class;
  std::vector<Request> large_class;
  const std::vector<Family>& families = fppn::gen::all_families();
  for (const Family family : families) {
    for (std::size_t i = 0; i < small_per_family; ++i) {
      const auto s =
          fppn::gen::make_scenario(family, static_cast<std::uint64_t>(rng.range(1, 100000)));
      Request r;
      r.text = fppn::gen::scenario_text(s);
      r.cls = "small";
      r.label = s.name;
      small_class.push_back(std::move(r));
    }
  }
  for (std::size_t source = 0; source <= families.size(); ++source) {
    for (std::size_t slot = 0; slot < large_per_source; ++slot) {
      const double frac =
          (static_cast<double>(slot) + 0.5) / static_cast<double>(large_per_source);
      const double target = static_cast<double>(min_jobs) +
                            frac * static_cast<double>(max_jobs - min_jobs);
      Request r;
      r.cls = "large";
      std::size_t base = 0;
      if (source == families.size()) {
        r.text = fig1_text;
        r.label = "fig1";
        const auto parsed = fppn::io::parse_network_string(fig1_text);
        base = fppn::derive_task_graph(parsed.net, parsed.wcets).graph.job_count();
      } else {
        const auto s = fppn::gen::make_scenario(
            families[source], static_cast<std::uint64_t>(rng.range(1, 100000)));
        r.text = fppn::gen::scenario_text(s);
        r.label = s.name;
        base = derived_jobs(s);
      }
      r.unfold = std::max(1, static_cast<int>(std::lround(target / static_cast<double>(base))));
      r.label += "/u" + std::to_string(r.unfold);
      large_class.push_back(std::move(r));
    }
  }

  // Interleave: one small request after every few large ones, so each
  // stretch of the closed loop carries both classes in the list's ratio.
  std::vector<Request> list;
  list.reserve(small_class.size() + large_class.size());
  std::size_t s = 0;
  for (std::size_t l = 0; l < large_class.size(); ++l) {
    list.push_back(std::move(large_class[l]));
    while (s < small_class.size() &&
           s * large_class.size() < (l + 1) * small_class.size()) {
      list.push_back(std::move(small_class[s++]));
    }
  }
  while (s < small_class.size()) {
    list.push_back(std::move(small_class[s++]));
  }
  return list;
}

std::vector<Request> union_networks(std::uint64_t seed, const std::vector<std::size_t>& targets,
                                    double tolerance, const std::string& cls) {
  // Families whose periods are whole milliseconds and whose processes are
  // all periodic, so the union's job count follows from the spec.
  static const std::vector<Family> kParts = {Family::kPipeline, Family::kFanOut,
                                             Family::kDiamond, Family::kRandomDag,
                                             Family::kMultiRate};
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 23);
  std::vector<Request> out;
  for (const std::size_t target : targets) {
    const auto lo = static_cast<std::size_t>(static_cast<double>(target) * (1.0 - tolerance));
    const auto hi = static_cast<std::size_t>(static_cast<double>(target) * (1.0 + tolerance));
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > 20000) {
        throw std::runtime_error("union_networks: no union near " + std::to_string(target) +
                                 " jobs");
      }
      const std::int64_t parts = rng.range(2, 4);
      fppn::gen::ScenarioSpec spec;
      std::string label;
      for (std::int64_t k = 0; k < parts; ++k) {
        const Family family = rng.pick(kParts);
        const auto part = fppn::gen::make_scenario(
            family, static_cast<std::uint64_t>(rng.range(1, 100000)));
        append_component(spec, part.spec, "k" + std::to_string(k) + "_", Rational(1, parts));
        label += (k == 0 ? "" : "+") + part.name;
      }
      const std::size_t jobs = spec_jobs(spec);
      if (jobs < lo || jobs > hi) {
        continue;
      }
      const fppn::gen::BuiltScenario built = fppn::gen::build_scenario(spec);
      Request r;
      r.text = fppn::io::write_network(built.net, built.wcets);
      r.cls = cls;
      r.label = label;
      out.push_back(std::move(r));
      break;
    }
  }
  return out;
}

std::vector<std::size_t> stratified_targets(std::size_t count, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    // 7 is coprime with every count used here, so this permutes the strata.
    const std::size_t stratum = (i * 7 + 3) % count;
    const double frac = (static_cast<double>(stratum) + 0.5) / static_cast<double>(count);
    out.push_back(lo + static_cast<std::size_t>(frac * static_cast<double>(hi - lo)));
  }
  return out;
}

std::vector<std::size_t> request_sequence(std::uint64_t seed, std::size_t length,
                                          std::size_t hot_count, std::size_t fresh_count,
                                          double fresh_share) {
  Rng rng(seed * 0x94d049bb133111ebULL + 37);
  const Zipf zipf(hot_count, 0.7);
  std::vector<std::size_t> out;
  out.reserve(length);
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const double pick = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    if (next_fresh < fresh_count && pick < fresh_share) {
      out.push_back(hot_count + next_fresh++);
    } else {
      out.push_back(zipf.draw(rng.next()));
    }
  }
  return out;
}

}  // namespace perfbench
