#include "common.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since_launch(const Options& o) {
  return static_cast<double>(monotonic_ns() - o.t0_ns) * 1e-9;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix m(a ^ (b * 0x9e3779b97f4a7c15ull));
  return m.next();
}

std::uint64_t hash_str(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

void log_rates(const std::vector<double>& rates) {
  std::string line = "round rates (1/s):";
  for (double r : rates) line += " " + std::to_string(r);
  std::fprintf(stderr, "%s\n", line.c_str());
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

void Checker::expect(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  if (failures < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  ++failures;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ',';
    first = false;
    hlp::util::append_json_string(out, name);
    out += ":{\"value\":";
    hlp::util::append_json_double(out, m.value);
    out += ",\"unit\":";
    hlp::util::append_json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string make_dir(const Options& o, const std::string& name) {
  const std::string path = o.workdir + "/" + name;
  if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::runtime_error("cannot create " + path);
  return path;
}

}  // namespace perfbench
