#pragma once

// Reference oracle for the benchmark's correctness checks. It shares no code
// with the kernels it checks: its own load model, its own topological order,
// its own 64-lane gate evaluator and its own random stream.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "fsm/stg.hpp"
#include "netlist/generators.hpp"

namespace perfbench {

/// Designs with at most this many input bits are enumerated exactly.
inline constexpr int kExactInputBits = 20;

/// Expected switched capacitance per independent vector pair,
/// sum over gates of load * 2q(1-q), where q is the gate's probability of
/// being 1 when every input bit is 1 with probability p independently.
struct CapOracle {
  bool exact = false;
  /// Absolute tolerance owed to the oracle itself: 0 when exact, six
  /// standard errors of the Monte Carlo estimate otherwise.
  double slack = 0.0;
  double value = 0.0;
};

class NetOracle {
 public:
  /// Builds the oracle for `mod`: exhaustive enumeration when the design has
  /// at most kExactInputBits inputs, else a 2^20-pair uniform Monte Carlo run
  /// under a seed derived from the design text (never seen by the program).
  NetOracle(const hlp::netlist::Module& mod, const std::string& design);

  bool exact() const { return n_ > 0; }
  /// Oracle at per-bit input probability p. Non-exact oracles support only
  /// p = 0.5 (throws otherwise).
  CapOracle at(double p) const;

 private:
  int n_ = 0;  ///< input bits when exact, 0 when sampled
  std::vector<double> load_;
  /// cnt_[g][k]: input vectors of popcount k on which gate g evaluates to 1.
  std::vector<std::vector<std::uint64_t>> cnt_;
  double mc_mean_ = 0.0;
  double mc_se_ = 0.0;
};

/// Steady-state edge entropy (bits) of an STG under uniform i.i.d. input
/// symbols, estimated by a long seeded random walk, with six batch-means
/// standard errors of slack.
struct WalkOracle {
  double value = 0.0;
  double slack = 0.0;
};
WalkOracle markov_walk(const hlp::fsm::Stg& stg, std::uint64_t seed,
                       std::size_t steps = 4'000'000);

/// Latency bounds of any valid schedule: the delay-weighted critical path
/// and the delay-weighted operation count (every op run alone).
struct ScheduleBounds {
  int critical_path = 0;
  int serial = 0;
};
ScheduleBounds schedule_bounds(const hlp::cdfg::Cdfg& g);

/// Memo of oracles by design text, shared by every check of a run so each
/// design is enumerated once. Oracles are built on first use, after the
/// timed rounds, so their cost is in neither set-up nor throughput.
class OracleCache {
 public:
  const NetOracle& net(const std::string& design);
  const WalkOracle& walk(const std::string& fsm);
  ScheduleBounds schedule(const std::string& cdfg);

 private:
  std::map<std::string, NetOracle> nets_;
  std::map<std::string, WalkOracle> walks_;
};

/// |value - oracle| within the oracle's slack plus `rel` of its value.
bool near(double value, const CapOracle& o, double rel);

}  // namespace perfbench
