// Shared helpers of the benchmark program: clocks, sample statistics and a
// minimal ordered JSON object writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample copy.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

inline double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Samples strictly above the nearest-rank percentile p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<std::size_t>(rank));
}

/// FNV-1a 64 — the digest of the generated request bytes.
class Digest {
 public:
  void add(const std::string& bytes) {
    for (const char c : bytes) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= 0x100000001b3ULL;
    }
    // Length-delimit so ("ab","c") and ("a","bc") differ.
    add_u64(bytes.size());
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xffU;
      state_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(state_));
    return buf;
  }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t hash_bytes(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// An insertion-ordered JSON object built from already-rendered values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& object(const std::string& key, const JsonObject& value) {
    return raw(key, value.render());
  }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
