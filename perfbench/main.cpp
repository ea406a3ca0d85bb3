// Benchmark program: runs one workload for a fixed time from a seed, checks
// every output against the reference oracle, and prints one JSON result
// line. Normally launched by run.py, which builds it first.
//
//   hlp_perfbench --workload campaign|serve|fit --seed N --seconds S
//                 --trace 0|1 --workdir DIR [--t0-ns NS] [--nproc N]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "sim/engine.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hlp_perfbench --workload campaign|serve|fit --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--t0-ns NS] "
               "[--nproc N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--workdir") o.workdir = v;
    else if (a == "--t0-ns") o.t0_ns = std::strtoll(v, nullptr, 10);
    else if (a == "--nproc") o.nproc = std::atoi(v);
    else return usage();
  }
  if (o.workdir.empty() || o.seconds <= 0.0 || o.nproc < 2 ||
      (o.workload != "campaign" && o.workload != "serve" &&
       o.workload != "fit"))
    return usage();
  if (o.t0_ns == 0) o.t0_ns = perfbench::monotonic_ns();  // launched by hand

  if (o.trace)  // host facts for the reference table in README.md
    std::fprintf(stderr, "host: nproc=%d simd=%s compiler=gcc-%s build=%s\n",
                 o.nproc, hlp::sim::to_string(hlp::sim::active_dispatch()),
                 __VERSION__, PERFBENCH_BUILD_TYPE);

  try {
    perfbench::Result r;
    if (o.trace) r = perfbench::run_trace(o);
    else if (o.workload == "campaign") r = perfbench::run_campaign(o);
    else if (o.workload == "serve") r = perfbench::run_serve(o);
    else r = perfbench::run_fit(o);
    perfbench::print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hlp_perfbench: %s\n", e.what());
    return 1;
  }
}
