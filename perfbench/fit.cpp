// `fit`: macromodel characterization over two design families x a width
// grid x an input-probability grid, then a stepwise fit per family.

#include <cmath>

#include "workloads.hpp"

namespace perfbench {

/// Held-out mean absolute percentage error each family's fit must stay under.
constexpr double kMapeBound = 0.05;

std::vector<hlp::model::SweepSpec> fit_sweeps(std::uint64_t seed, int round) {
  SplitMix r(mix(mix(seed, 0x666974ull), static_cast<std::uint64_t>(round)));
  std::vector<hlp::model::SweepSpec> v(2);
  v[0].family = "adder";       // 2w+1 input bits: w <= 9 enumerates exactly
  v[1].family = "comparator";  // 2w input bits
  // Widest first, so the heaviest points start early and no worker waits
  // long on a straggler at the end of a sweep.
  v[0].params = {9, 7, 5};
  v[1].params = {10, 8, 6};
  for (auto& s : v) {
    s.kind = hlp::jobs::JobKind::Symbolic;  // symbolic at p = 0.5
    // A fixed pair count for every off-center label (enough for epsilon at
    // every grid point), so each round prices the same amount of work.
    s.epsilon = 0.01;
    s.min_pairs = s.max_pairs = 16384;
    s.input_p = {0.5};
    // Off-center points per design, jittered per seed and round so every
    // round prices new points (new job ids, new Monte Carlo streams).
    for (double base : {0.2, 0.35, 0.65, 0.8})
      s.input_p.push_back(base + 0.04 * (r.real() - 0.5));
  }
  return v;
}

Result run_fit(const Options& o) {
  hlp::jobs::RunnerOptions ropts;
  ropts.workers = o.nproc;

  struct Fit {
    hlp::model::SweepSpec spec;
    hlp::model::Characterization ch;
    hlp::model::FitReport report;
  };
  std::vector<Fit> fits;
  std::vector<double> rates;  ///< grid points per second of each round

  Result out;
  out.set("setup_s", seconds_since_launch(o), "s");

  const Clock::time_point t0 = Clock::now();
  int round = 0;
  do {
    const Clock::time_point r0 = Clock::now();
    std::size_t points = 0;
    for (hlp::model::SweepSpec& s : fit_sweeps(o.seed, round)) {
      Fit f;
      f.ch = hlp::model::characterize(s, ropts);
      f.report = hlp::model::fit_macromodel(f.ch.rows, s.family, "symbolic");
      points += f.ch.campaign.results.size();
      f.spec = std::move(s);
      fits.push_back(std::move(f));
    }
    rates.push_back(static_cast<double>(points) / seconds_since(r0));
    ++round;
  } while (seconds_since(t0) < o.seconds);

  log_rates(rates);
  out.set("ops_per_s", percentile(rates, 0.5), "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  Checker chk;
  OracleCache oc;
  double worst = 0.0;  ///< largest biased-label error, in units of 3 epsilon
  for (const Fit& f : fits) {
    out.attempted += f.ch.campaign.results.size();
    out.failed += f.ch.campaign.results.size() - f.ch.rows.size();
    for (const hlp::model::Row& row : f.ch.rows) {
      const CapOracle orc = oc.net(row.design).at(row.input_p);
      const bool center = row.input_p == 0.5;
      if (!center)
        worst = std::max(worst, std::abs(row.power - orc.value) /
                                    (3.0 * f.spec.epsilon * orc.value));
      chk.expect(near(row.power, orc, center ? 1e-9 : 3.0 * f.spec.epsilon),
                 "fit label " + row.design + " p=" + std::to_string(row.input_p) +
                     " = " + std::to_string(row.power) + ", oracle " +
                     std::to_string(orc.value));
    }
    chk.expect(f.report.holdout_rows > 0 && f.report.holdout_mape < kMapeBound,
               "fit " + f.spec.family + " held-out MAPE " +
                   std::to_string(f.report.holdout_mape));
  }
  std::fprintf(stderr, "worst biased label error: %.3f of 3 epsilon\n", worst);
  out.correct = chk.ok();
  return out;
}

}  // namespace perfbench
