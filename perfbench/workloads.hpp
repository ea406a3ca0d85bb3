#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "jobs/jobs.hpp"
#include "model/characterize.hpp"
#include "oracle.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// One estimate the workloads request: kernel kind, design, Monte Carlo
/// accuracy. Campaign jobs and serve requests are both made from these.
struct Op {
  hlp::jobs::JobKind kind = hlp::jobs::JobKind::Symbolic;
  std::string design;
  double epsilon = 0.02;
  std::size_t max_pairs = 20000;
  std::size_t min_pairs = 30;
  std::size_t node_cap = 0;  ///< BDD node budget per attempt (0 = none)
};

/// The campaign corpus: a fixed mix of kinds and design sizes; the seed
/// picks the random-DAG and CDFG instances (the round only salts job ids,
/// and through them every Monte Carlo stream).
std::vector<Op> campaign_corpus(std::uint64_t seed);
std::vector<hlp::jobs::Job> campaign_jobs(const std::vector<Op>& corpus,
                                          std::uint64_t seed, int round);

/// Cold estimate mix of one serve round (fixed composition).
std::vector<Op> serve_cold_mix(std::uint64_t seed);

/// Characterization sweeps of one fit round: two families over a width grid
/// and an input-probability grid whose off-center points the seed and the
/// round jitter.
std::vector<hlp::model::SweepSpec> fit_sweeps(std::uint64_t seed, int round);
/// Macromodel training sweeps the serve workload fits during setup.
std::vector<hlp::model::SweepSpec> serve_model_sweeps();

/// Oracle check of one returned estimate. `detail` is the kernel's detail
/// text (static answers carry their bounds there).
void check_estimate(Checker& chk, OracleCache& oc, const Op& op, double value,
                    const std::string& detail, bool degraded,
                    const std::string& where);

/// Serialized estimate request for `op` under request seed `seed`; an
/// accuracy above 0 asks for the predicted tier.
std::string request_line(const Op& op, std::uint64_t seed, double accuracy = 0.0);

/// Blocking line-JSON client of one loopback connection.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  /// Send one request line, return the response line (no newline).
  std::string call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Server options of the serve workload: the daemon's defaults (symbolic
/// kernels isolated) with nproc/2 kernel workers beside nproc/2 clients.
hlp::serve::ServerOptions serve_options(const Options& o,
                                        const std::string& model_path);
/// Characterize and fit serve_model_sweeps(); returns the registry path.
std::string train_models(const Options& o, const std::string& dir);

Result run_campaign(const Options& o);
Result run_serve(const Options& o);
Result run_fit(const Options& o);
/// The traced run: the workload's operations one at a time, timed around
/// each layer's public functions.
Result run_trace(const Options& o);

}  // namespace perfbench
