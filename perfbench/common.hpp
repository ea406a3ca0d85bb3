#pragma once

// Shared plumbing of the benchmark program: command-line options, clocks,
// the seeded input generator, percentiles, peak memory, and the result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;       ///< scratch directory inside the checkout
  std::int64_t t0_ns = 0;    ///< CLOCK_MONOTONIC at launch (0 = unknown)
  int nproc = 4;             ///< cores the benchmark may load
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t monotonic_ns();

/// Seconds since the launcher stamped `t0_ns` (same clock as steady_clock
/// on Linux: CLOCK_MONOTONIC).
double seconds_since_launch(const Options& o);

/// splitmix64: the benchmark's own generator, independent of the program's
/// std::mt19937_64-based stats::Rng, so oracle draws never share a stream
/// with the kernels they check.
struct SplitMix {
  std::uint64_t s;
  explicit SplitMix(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);
std::uint64_t hash_str(const std::string& s);

/// Linear-interpolated percentile (q in [0,1]) of unsorted samples.
double percentile(std::vector<double> v, double q);

/// Print the per-round operation rates to stderr (diagnostics only).
void log_rates(const std::vector<double>& rates);

/// Peak resident set of this process plus the largest reaped child, MB.
double peak_rss_mb();

/// Accumulates correctness failures; the first few are printed to stderr.
struct Checker {
  std::size_t failures = 0;
  std::size_t checks = 0;
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures == 0; }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< printed in name order
  void set(const std::string& name, double v, const char* unit) {
    metrics[name] = Metric{v, unit};
  }
};

/// Print the result object as one JSON line on stdout.
void print_result(const Result& r);

/// Fresh sub-directory of the workdir (created; removed by the launcher).
std::string make_dir(const Options& o, const std::string& name);

}  // namespace perfbench
