// `campaign`: batch estimation through jobs::Runner with a crash-safe ledger.

#include <cstdlib>
#include <cstring>

#include "jobs/ledger.hpp"
#include "workloads.hpp"

namespace perfbench {

using hlp::jobs::JobKind;

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Seed-picked instance argument in [lo, lo + span).
std::string pick(SplitMix& r, std::uint64_t lo, std::uint64_t span) {
  return std::to_string(lo + r.below(span));
}

}  // namespace

std::vector<Op> campaign_corpus(std::uint64_t seed) {
  SplitMix r(mix(seed, 0x63616d70ull));
  std::vector<Op> c;
  auto add = [&c](JobKind k, std::string d, double eps = 0.02,
                  std::size_t max_pairs = 20000) {
    c.push_back(Op{k, std::move(d), eps, max_pairs});
  };
  // Listed heaviest first (tens of ms down to about one), so the runner's
  // workers finish a round together instead of waiting on a late long job.
  add(JobKind::Symbolic, "mult:8");
  add(JobKind::Static, "comparator:10");
  add(JobKind::Static, "comparator:12");
  // A BDD node budget below what mult:8 needs: the first attempt trips it and
  // the retry runs the sampled fallback (a degraded answer).
  add(JobKind::Symbolic, "mult:8");
  c.back().node_cap = 20000;
  // Monte Carlo: tight epsilon so sampling, not elaboration, dominates. The
  // seed-picked DAG gets a looser one: its cost varies with the instance.
  add(JobKind::MonteCarlo, "random:32:1500:16:" + pick(r, 1, 1u << 30), 0.004,
      400000);
  add(JobKind::MonteCarlo, "mult:8", 0.001, 2000000);
  add(JobKind::Symbolic, "mult:7");
  // No seed-picked static design: a few random DAGs make static_estimate
  // return an infinite value (see CHANGES.md, FOUND).
  for (const char* d : {"alu:8", "mult:7", "alu:10"}) add(JobKind::Static, d);
  for (const char* d : {"adder:16", "alu:12", "comparator:16"})
    add(JobKind::MonteCarlo, d, 0.001, 2000000);
  for (const char* d : {"adder:16", "mult:6", "max:8"}) add(JobKind::Static, d);
  add(JobKind::Schedule, "expr:400:" + pick(r, 1, 1u << 30));
  add(JobKind::Schedule, "branching:40:10:" + pick(r, 1, 1u << 30));
  for (const char* d : {"fir:64", "poly:16", "horner:16", "opshare:16:8"})
    add(JobKind::Schedule, d);
  // Symbolic: all within exact-enumeration width, so values are checked
  // against the exhaustive oracle to 1e-9.
  for (const char* d : {"comparator:10", "adder:9", "max:9", "parity:20",
                        "alu:6", "mux:4"})
    add(JobKind::Symbolic, d);
  add(JobKind::Symbolic, "random:18:400:8:" + pick(r, 1, 1u << 30));
  add(JobKind::Symbolic, "random:20:600:10:" + pick(r, 1, 1u << 30));
  for (const char* d : {"traffic", "uart-rx", "dma", "elevator"})
    add(JobKind::Markov, d);
  return c;
}

std::vector<hlp::jobs::Job> campaign_jobs(const std::vector<Op>& corpus,
                                          std::uint64_t seed, int round) {
  std::vector<hlp::jobs::Job> jobs;
  jobs.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    hlp::jobs::Job j;
    j.id = "s" + std::to_string(seed) + "-r" + std::to_string(round) + "-" +
           std::to_string(i) + "-" + corpus[i].design;
    j.kind = corpus[i].kind;
    j.design = corpus[i].design;
    j.epsilon = corpus[i].epsilon;
    j.max_pairs = corpus[i].max_pairs;
    j.budget.node_cap = corpus[i].node_cap;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

void check_estimate(Checker& chk, OracleCache& oc, const Op& op, double value,
                    const std::string& detail, bool degraded,
                    const std::string& where) {
  const std::string what = where + " " + hlp::jobs::to_string(op.kind) + " " +
                           op.design + " value " + fmt(value);
  if (!std::isfinite(value)) {
    chk.expect(false, what + ": not finite");
    return;
  }
  switch (op.kind) {
    case JobKind::Symbolic: {
      const CapOracle o = oc.net(op.design).at(0.5);
      chk.expect(near(value, o, degraded ? 3.0 * op.epsilon : 1e-9),
                 what + " oracle " + fmt(o.value));
      return;
    }
    case JobKind::MonteCarlo: {
      const CapOracle o = oc.net(op.design).at(0.5);
      chk.expect(near(value, o, 3.0 * op.epsilon),
                 what + " oracle " + fmt(o.value));
      return;
    }
    case JobKind::Static: {
      const CapOracle o = oc.net(op.design).at(0.5);
      static const char kTag[] = "static-tier0, bounds [";
      if (detail.rfind(kTag, 0) != 0) {  // escalated to Monte Carlo
        chk.expect(near(value, o, 3.0 * op.epsilon),
                   what + " (escalated) oracle " + fmt(o.value));
        return;
      }
      char* end = nullptr;
      const double lo = std::strtod(detail.c_str() + std::strlen(kTag), &end);
      const double hi = std::strtod(end + 1, nullptr);
      // Bounds are printed with six decimals.
      const double tol = o.slack + 1e-6;
      chk.expect(lo - tol <= o.value && o.value <= hi + tol,
                 what + " bounds [" + fmt(lo) + ", " + fmt(hi) +
                     "] miss oracle " + fmt(o.value));
      chk.expect(lo - 1e-6 <= value && value <= hi + 1e-6,
                 what + " outside its own bounds");
      return;
    }
    case JobKind::Markov: {
      const WalkOracle& w = oc.walk(op.design);
      chk.expect(std::abs(value - w.value) <= w.slack,
                 what + " walk " + fmt(w.value) + " +- " + fmt(w.slack));
      return;
    }
    case JobKind::Schedule: {
      const ScheduleBounds b = oc.schedule(op.design);
      chk.expect(b.critical_path <= value && value <= b.serial,
                 what + " outside [" + std::to_string(b.critical_path) + ", " +
                     std::to_string(b.serial) + "]");
      return;
    }
    case JobKind::Custom:
      break;
  }
  chk.expect(false, what + ": unexpected kind");
}

Result run_campaign(const Options& o) {
  const std::string dir = make_dir(o, "campaign");
  // Four copies of each corpus job per round, side by side (distinct ids, so
  // distinct Monte Carlo streams): a round is long against any one job.
  std::vector<Op> corpus;
  for (const Op& op : campaign_corpus(o.seed))
    for (int copy = 0; copy < 4; ++copy) corpus.push_back(op);
  hlp::jobs::RunnerOptions ropts;
  ropts.workers = o.nproc;

  struct Round {
    std::vector<hlp::jobs::Job> jobs;
    hlp::jobs::CampaignResult res;
    std::string ledger;
  };
  std::vector<Round> rounds;
  std::vector<double> rates;  ///< jobs per second of each round

  Result out;
  out.set("setup_s", seconds_since_launch(o), "s");

  const Clock::time_point t0 = Clock::now();
  do {
    Round rd;
    const int r = static_cast<int>(rounds.size());
    rd.jobs = campaign_jobs(corpus, o.seed, r);
    rd.ledger = dir + "/ledger-" + std::to_string(r) + ".jsonl";
    ropts.ledger_path = rd.ledger;
    const Clock::time_point r0 = Clock::now();
    hlp::jobs::Runner runner(ropts);
    rd.res = runner.run(rd.jobs);
    rates.push_back(static_cast<double>(rd.jobs.size()) / seconds_since(r0));
    rounds.push_back(std::move(rd));
  } while (seconds_since(t0) < o.seconds);

  log_rates(rates);
  out.set("ops_per_s", percentile(rates, 0.5), "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  Checker chk;
  OracleCache oc;
  for (const Round& rd : rounds) {
    const hlp::jobs::LedgerScan scan = hlp::jobs::read_ledger(rd.ledger);
    std::map<std::string, const hlp::jobs::LedgerRecord*> done;
    for (const auto& rec : scan.records)
      if (rec.kind == hlp::jobs::RecordKind::Completed) done[rec.job] = &rec;
    chk.expect(scan.malformed_lines == 0, rd.ledger + ": malformed lines");
    for (std::size_t i = 0; i < rd.jobs.size(); ++i) {
      const hlp::jobs::JobResult& jr = rd.res.results.at(i);
      ++out.attempted;
      if (jr.status != hlp::jobs::JobStatus::Completed) {
        ++out.failed;
        std::fprintf(stderr, "job %s failed: %s %s\n", jr.id.c_str(),
                     hlp::jobs::to_string(jr.error), jr.detail.c_str());
        continue;
      }
      check_estimate(chk, oc, corpus[i], jr.value, jr.detail, jr.degraded,
                     jr.id);
      chk.expect(jr.degraded == (corpus[i].node_cap != 0),
                 jr.id + ": degraded flag does not match the node budget");
      auto it = done.find(jr.id);
      chk.expect(it != done.end() &&
                     std::memcmp(&it->second->value, &jr.value,
                                 sizeof(double)) == 0 &&
                     it->second->attempts == jr.attempts,
                 jr.id + ": ledger value differs from the in-memory result");
    }
  }
  out.correct = chk.ok();
  return out;
}

}  // namespace perfbench
