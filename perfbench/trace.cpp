// The traced run: the workload's operations replayed one at a time, with a
// clock around each layer's public functions. Timed runs never execute this
// file's code.

#include <sys/wait.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "bdd/bdd.hpp"
#include "bdd/netlist_bdd.hpp"
#include "analysis/estimate.hpp"
#include "core/sampling_power.hpp"
#include "core/scheduling_power.hpp"
#include "fsm/benchmarks.hpp"
#include "fsm/markov.hpp"
#include "jobs/ledger.hpp"
#include "model/artifact.hpp"
#include "model/features.hpp"
#include "model/registry.hpp"
#include "netlist/index.hpp"
#include "sandbox/sandbox.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using hlp::jobs::JobKind;

namespace {

/// Per-layer samples of one traced replay.
struct Samples {
  std::map<std::string, std::vector<double>> t;  ///< timings by metric
  std::map<std::string, double> n;               ///< counters by metric
  void add(const std::string& k, double v) { t[k].push_back(v); }
  double med(const std::string& k) const {
    auto it = t.find(k);
    return it == t.end() ? 0.0 : percentile(it->second, 0.5);
  }
};

class Stopwatch {
 public:
  Stopwatch() : t0_(Clock::now()) {}
  double us() const { return seconds_since(t0_) * 1e6; }
  double ms() const { return seconds_since(t0_) * 1e3; }

 private:
  Clock::time_point t0_;
};

/// A traced operation: a workload Op, the input probability of its vectors
/// (fit prices off-center points with biased Monte Carlo), its vector seed,
/// and the program's own kernel for it under that seed.
struct TraceOp {
  Op op;
  double input_p = 0.5;
  std::uint64_t seed = 0;
  std::function<hlp::jobs::AttemptOutcome()> kernel;
};

/// The workload's operations for one round, with one default operation of
/// every kernel kind the workload lacks, so every layer is measured.
std::vector<TraceOp> trace_ops(const Options& o) {
  std::vector<TraceOp> ops;
  if (o.workload == "campaign") {
    for (const Op& op : campaign_corpus(o.seed)) ops.push_back({op});
  } else if (o.workload == "serve") {
    for (const Op& op : serve_cold_mix(o.seed)) ops.push_back({op});
  } else {
    // The characterization's own label jobs: their callables are the
    // program's kernels, their ids fix the vector seeds.
    for (const hlp::model::SweepSpec& s : fit_sweeps(o.seed, 0)) {
      const std::vector<hlp::jobs::Job> jobs = hlp::model::sweep_jobs(s);
      for (std::size_t j = 0; j < jobs.size(); ++j) {  // design-major
        const double p = s.input_p[j % s.input_p.size()];
        TraceOp t{Op{p == 0.5 ? JobKind::Symbolic : JobKind::MonteCarlo,
                     jobs[j].design, s.epsilon, s.max_pairs, s.min_pairs},
                  p, hlp::jobs::job_seed(jobs[j].id)};
        t.kernel = [custom = jobs[j].custom] {
          return custom(hlp::exec::Budget{}, false, nullptr);
        };
        ops.push_back(std::move(t));
      }
    }
  }
  const std::pair<JobKind, const char*> defaults[] = {
      {JobKind::Symbolic, "adder:8"},  {JobKind::MonteCarlo, "alu:8"},
      {JobKind::Static, "comparator:8"}, {JobKind::Markov, "traffic"},
      {JobKind::Schedule, "fir:8"}};
  for (const auto& [kind, design] : defaults) {
    bool have = false;
    for (const TraceOp& t : ops) have |= t.op.kind == kind;
    if (!have) ops.push_back({Op{kind, design}});
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    TraceOp& t = ops[i];
    if (t.kernel) continue;
    t.seed = hlp::jobs::job_seed(t.op.design + "#" + std::to_string(i));
    hlp::jobs::KernelRequest rq;
    rq.kind = t.op.kind;
    rq.design = t.op.design;
    rq.seed = t.seed;
    rq.epsilon = t.op.epsilon;
    rq.min_pairs = t.op.min_pairs;
    rq.max_pairs = t.op.max_pairs;
    t.kernel = [rq] { return hlp::jobs::run_kernel(rq, {}); };
  }
  return ops;
}

/// Monte Carlo pricing of `mod` under vector seed `seed` and per-bit input
/// probability p, as the program's kernels draw their vectors.
double monte_carlo(const hlp::netlist::Module& mod, const Op& op, double p,
                   std::uint64_t seed, Samples* s) {
  const int width = mod.total_input_bits();
  hlp::stats::Rng rng(seed);
  std::function<std::uint64_t()> gen;
  if (p == 0.5)
    gen = [&rng, width] { return rng.uniform_bits(width); };
  else
    gen = [&rng, width, p] {
      std::uint64_t v = 0;
      for (int b = 0; b < width; ++b)
        if (rng.uniform_real() < p) v |= std::uint64_t{1} << b;
      return v;
    };
  Stopwatch sw;
  const auto out = hlp::core::monte_carlo_power_budgeted(
      mod, gen, {}, op.epsilon, 0.95, op.min_pairs, op.max_pairs);
  if (s) {
    const double ms = sw.ms();
    s->add("sim.mc_ms", ms);
    s->n["sim.mc_pairs"] += static_cast<double>(out.value.pairs);
    s->n["sim.gate_evals"] += 2.0 * static_cast<double>(out.value.pairs) *
                              static_cast<double>(mod.netlist.gate_count());
    s->n["sim.mc_total_ms"] += ms;
  }
  return out.value.mean_energy;
}

/// Replays `ops` one at a time through the layer functions the kernels
/// use: a replica of the kernel bodies in src/jobs/kernels.cpp and of the
/// biased label in src/model/characterize.cpp, so that a clock can sit
/// around each layer. run_trace checks every replayed value against the
/// program's own kernel. With `s` null nothing is timed (the untraced
/// baseline). Returns the computed values.
std::vector<double> replay(const std::vector<TraceOp>& ops, Samples* s) {
  std::vector<double> values;
  for (const TraceOp& t : ops) {
    const Op& op = t.op;
    double value = 0.0;
    if (op.kind == JobKind::Markov) {
      const hlp::fsm::Stg stg = hlp::fsm::controller_by_name(op.design);
      Stopwatch sw;
      const auto out = hlp::fsm::analyze_markov_budgeted(stg, {}, {}, 2000);
      if (s) {
        s->add("fsm.markov_ms", sw.ms());
        s->n["fsm.markov_iters"] += out.value.iterations;
      }
      value = out.value.edge_entropy();
    } else if (op.kind == JobKind::Schedule) {
      const hlp::cdfg::Cdfg g = hlp::jobs::make_cdfg(op.design);
      const std::map<hlp::cdfg::OpKind, int> limits{{hlp::cdfg::OpKind::Add, 1},
                                                    {hlp::cdfg::OpKind::Mul, 1}};
      Stopwatch sw;
      const auto out = hlp::core::activity_driven_schedule_budgeted(g, {}, limits);
      if (s) s->add("cdfg.schedule_ms", sw.ms());
      value = out.value.length;
    } else {
      Stopwatch sw_elab;
      const hlp::netlist::Module mod = hlp::jobs::make_module(op.design);
      if (s) s->add("netlist.elaborate_us", sw_elab.us());
      Stopwatch sw_ix;
      const hlp::netlist::NetlistIndex ix = hlp::netlist::build_index(mod.netlist);
      if (s) s->add("netlist.index_us", sw_ix.us());
      if (op.kind == JobKind::Symbolic) {
        Stopwatch sw;
        hlp::bdd::Manager mgr;
        const hlp::bdd::NetlistBdds bdds = hlp::bdd::build_bdds(mgr, mod.netlist);
        const std::vector<double> loads = mod.netlist.loads({});
        for (hlp::netlist::GateId g = 0; g < mod.netlist.gate_count(); ++g) {
          const double q = mgr.sat_fraction(bdds.fn[g]);
          value += loads[g] * 2.0 * q * (1.0 - q);
        }
        if (s) {
          s->add("bdd.build_ms", sw.ms());
          s->n["bdd.nodes"] += static_cast<double>(mgr.total_nodes());
        }
      } else if (op.kind == JobKind::MonteCarlo) {
        value = monte_carlo(mod, op, t.input_p, t.seed, s);
      } else {
        Stopwatch sw;
        const hlp::analysis::StaticEstimate est =
            hlp::analysis::static_estimate(mod.netlist, ix, {});
        if (s) s->add("analysis.static_ms", sw.ms());
        value = est.point;
        // Bounds too loose for epsilon: the kernel escalates to Monte Carlo
        // under the same seed.
        if ((est.upper - est.lower) / 2.0 > op.epsilon * std::max(est.point, 1e-12)) {
          if (s) s->n["analysis.escalations"] += 1;
          value = monte_carlo(mod, op, 0.5, t.seed, s);
        }
      }
    }
    values.push_back(value);
  }
  return values;
}

}  // namespace

Result run_trace(const Options& o) {
  const std::string dir = make_dir(o, "trace");
  const std::vector<TraceOp> ops = trace_ops(o);
  Samples s;
  Checker chk;
  OracleCache oc;
  Result out;

  // Kernel layers: a warm-up replay, then untraced and traced replays in
  // turn; the tracing overhead compares the faster of each kind.
  (void)replay(ops, nullptr);
  double untraced = 1e300, traced = 1e300;
  std::vector<double> values;
  for (int pass = 0; pass < 2; ++pass) {
    const Clock::time_point u0 = Clock::now();
    (void)replay(ops, nullptr);
    untraced = std::min(untraced, seconds_since(u0));
    s.n.clear();  // counters describe one replay; timings pool both
    const Clock::time_point t0 = Clock::now();
    values = replay(ops, &s);
    traced = std::min(traced, seconds_since(t0));
  }
  // The program's own kernel on each operation, timed beside the replica:
  // a change inside the kernels moves jobs.kernel_ms even where the replica
  // stays as it is, and a replica that no longer computes what the kernel
  // computes fails the bit-for-bit comparison.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TraceOp& t = ops[i];
    ++out.attempted;
    Stopwatch ksw;
    const hlp::jobs::AttemptOutcome k = t.kernel();
    s.add("jobs.kernel_ms", ksw.ms());
    const std::string where = "trace " + t.op.design;
    if (!k.ok) {
      chk.expect(false, where + ": kernel failed: " + k.detail);
      continue;
    }
    chk.expect(std::memcmp(&k.out.value, &values[i], sizeof(double)) == 0,
               where + ": replica value " + std::to_string(values[i]) +
                   " differs from the kernel's " + std::to_string(k.out.value));
    if (t.input_p != 0.5) {
      const CapOracle orc = oc.net(t.op.design).at(t.input_p);
      chk.expect(near(k.out.value, orc, 3.0 * t.op.epsilon), where + " biased");
    } else {
      check_estimate(chk, oc, t.op, k.out.value, k.out.detail, k.out.degraded,
                     "trace");
    }
  }

  // jobs: one sequential campaign over the operations, then ledger appends.
  {
    std::vector<Op> plain;
    for (const TraceOp& t : ops)
      if (t.input_p == 0.5) plain.push_back(t.op);
    hlp::jobs::RunnerOptions ropts;
    ropts.ledger_path = dir + "/campaign.jsonl";
    const hlp::jobs::CampaignResult res =
        hlp::jobs::Runner(ropts).run(campaign_jobs(plain, o.seed, 0));
    double attempts = 0;
    for (const auto& r : res.results) attempts += r.attempts;
    s.n["jobs.attempts"] = attempts;
    s.n["jobs.degraded"] = static_cast<double>(res.degraded);
    chk.expect(res.all_completed(), "trace campaign did not complete");

    hlp::jobs::LedgerWriter w(dir + "/ledger.jsonl");
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      hlp::jobs::LedgerRecord rec;
      rec.kind = hlp::jobs::RecordKind::Completed;
      rec.seq = i + 1;
      rec.job = res.results[i].id;
      rec.attempts = res.results[i].attempts;
      rec.value = res.results[i].value;
      Stopwatch sw;
      w.append(rec);
      s.add("jobs.ledger_commit_ms", sw.ms());
    }
  }

  // model: characterize + fit (timed), then features and predictions.
  const std::vector<hlp::model::SweepSpec> sweeps =
      o.workload == "fit" ? fit_sweeps(o.seed, 0) : serve_model_sweeps();
  std::vector<hlp::model::Macromodel> models;
  for (const hlp::model::SweepSpec& sw : sweeps) {
    hlp::jobs::RunnerOptions ropts;
    const hlp::model::Characterization ch = hlp::model::characterize(sw, ropts);
    Stopwatch fit_sw;
    hlp::model::FitReport rep = hlp::model::fit_macromodel(ch.rows, sw.family, "symbolic");
    s.add("model.fit_ms", fit_sw.ms());
    models.push_back(std::move(rep.model));
  }
  const std::string model_path = dir + "/models.hlpm";
  std::string err;
  if (!hlp::model::save_models_file(model_path, models, err))
    throw std::runtime_error("cannot save models: " + err);
  {
    hlp::model::ModelRegistry reg;
    for (const hlp::model::Macromodel& m : models) reg.insert(m);
    for (const TraceOp& t : ops) {
      if (t.op.kind == JobKind::Markov || t.op.kind == JobKind::Schedule) continue;
      Stopwatch fsw;
      const hlp::model::FeatureVector x = hlp::model::extract_features(t.op.design, t.input_p);
      s.add("model.features_us", fsw.us());
      (void)x;
    }
    for (const hlp::model::SweepSpec& sw : sweeps)
      for (int w = 3; w <= 13; ++w) {
        const std::string d = sw.family + ":" + std::to_string(w);
        const hlp::model::FeatureVector x = hlp::model::extract_features(d, 0.5);
        Stopwatch psw;
        const hlp::model::Prediction pr = reg.predict(sw.family, "symbolic", x, 0.95);
        s.add("model.predict_us", psw.us());
        (void)pr;
      }
  }

  // serve + sandbox: the operations as requests, one at a time, over a
  // loopback connection (cold, then hot) and straight into the Service (hot,
  // no socket), then the predicted requests of the serve workload.
  {
    Options so = o;
    hlp::serve::ServerOptions sopt = serve_options(so, model_path);
    sopt.service.workers = 1;
    hlp::serve::Server srv(sopt);
    srv.start();
    hlp::serve::Service& svc = srv.service();
    auto client = std::make_unique<LineClient>(srv.port());
    LineClient& c = *client;
    std::uint64_t seed = mix(o.seed, 0x74726163ull);
    // At least 110 cold requests, so serve.cold_p90_ms has ten samples above
    // it: the operations in passes under fresh request seeds (the seed is
    // part of the cache key, so every pass is cold again).
    std::size_t plain = 0;
    for (const TraceOp& t : ops) plain += t.input_p == 0.5;
    const std::size_t passes = (110 + plain - 1) / plain;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const TraceOp& t : ops) {
        if (t.input_p != 0.5) continue;
        const std::string l = request_line(t.op, ++seed);
        hlp::serve::Request rq;
        std::string perr;
        Stopwatch psw;
        const bool ok = hlp::serve::Request::parse(l, rq, perr);
        s.add("serve.parse_us", psw.us());
        chk.expect(ok, "trace parse " + l);
        (void)svc.keys(rq);  // first call memoizes the fingerprint
        Stopwatch ksw;
        (void)svc.keys(rq);
        s.add("serve.keys_us", ksw.us());
        Stopwatch csw;
        const std::string cold = c.call(l);
        s.add("serve.cold_ms", csw.ms());
        Stopwatch hsw;
        const std::string hot = c.call(l);
        s.add("serve.hot_us", hsw.us());
        Stopwatch dsw;
        const std::string direct = svc.handle_line(l);
        s.add("serve.handle_hot_us", dsw.us());
        chk.expect(hot == cold && direct == cold, "trace hot response differs for " + l);
      }
    }
    // Each predicted design twice under fresh seeds: the first request
    // warms the service's feature memo, as earlier rounds do in `serve`.
    for (int pass = 0; pass < 2; ++pass)
      for (const char* fam : {"adder:", "comparator:"})
        for (int w = 3; w <= 11; ++w) {
          const std::string l = request_line(Op{JobKind::Symbolic, fam + std::to_string(w)},
                                         ++seed, w == 4 ? 1e-9 : 0.5);
          Stopwatch psw;
          hlp::serve::ResponseView v;
          const bool ok = hlp::serve::parse_response(c.call(l), v) && v.ok;
          const double us = psw.us();
          chk.expect(ok, "trace predicted request " + l);
          if (pass == 1 && v.tier == "predicted") s.add("serve.predicted_us", us);
        }
    // Two connections ask for the same first-seen key at once: one leads
    // the kernel run, the other waits on it (single-flight).
    {
      const std::string l = request_line(Op{JobKind::Symbolic, "comparator:14"}, ++seed);
      LineClient other(srv.port());
      std::string a, b;
      std::thread t([&] { b = other.call(l); });
      a = c.call(l);
      t.join();
      chk.expect(a == b, "trace coalesced responses differ");
    }
    hlp::serve::ResponseView mv;
    chk.expect(hlp::serve::parse_response(svc.handle_line("{\"op\":\"metrics\"}"), mv),
               "trace metrics unparsable");
    s.n["serve.cache_hits"] = static_cast<double>(mv.hits);
    s.n["serve.cache_misses"] = static_cast<double>(mv.misses);
    s.n["serve.coalesced"] = static_cast<double>(mv.coalesced);
    const hlp::serve::ServiceHealth h = svc.health();
    s.n["sandbox.isolated"] = static_cast<double>(h.isolated);
    s.n["model.predicted"] = static_cast<double>(h.model_predicted);
    s.n["model.escalated"] = static_cast<double>(h.model_escalated + h.model_out_of_hull);
    for (int i = 0; i < 200; ++i) {
      Stopwatch rsw;
      chk.expect(c.call("{\"op\":\"ping\"}").find("\"ok\":true") != std::string::npos,
                 "trace ping");
      s.add("serve.ping_rtt_us", rsw.us());
    }
    client.reset();
    srv.shutdown();
  }
  for (const TraceOp& t : ops) {
    if (t.op.kind != JobKind::Symbolic || t.input_p != 0.5) continue;
    hlp::jobs::KernelRequest krq;
    krq.kind = JobKind::Symbolic;
    krq.design = t.op.design;
    Stopwatch isw;
    const hlp::jobs::AttemptOutcome a =
        hlp::sandbox::run_kernel_isolated(krq, {}, hlp::sandbox::Limits{});
    const double iso = isw.ms();
    Stopwatch rsw;
    const hlp::jobs::AttemptOutcome b = hlp::jobs::run_kernel(krq, {});
    s.add("sandbox.isolate_overhead_ms", iso - rsw.ms());
    chk.expect(a.ok && b.ok && a.out.value == b.out.value,
               "isolated and in-process kernels disagree on " + t.op.design);
  }

  errno = 0;
  chk.expect(::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD,
             "a sandbox child outlived the traced run");

  for (const char* k : {"netlist.elaborate_us", "netlist.index_us", "serve.parse_us",
                        "serve.keys_us", "serve.handle_hot_us", "serve.ping_rtt_us",
                        "model.predict_us", "model.features_us"})
    out.set(k, s.med(k), "us");
  // Client-observed latency per request class, one request at a time.
  out.set("serve.hot_p50_us", s.med("serve.hot_us"), "us");
  out.set("serve.predicted_p50_us", s.med("serve.predicted_us"), "us");
  out.set("serve.cold_p50_ms", s.med("serve.cold_ms"), "ms");
  out.set("serve.cold_p90_ms", percentile(s.t["serve.cold_ms"], 0.9), "ms");
  for (const char* k : {"jobs.kernel_ms", "bdd.build_ms", "sim.mc_ms", "analysis.static_ms",
                        "fsm.markov_ms", "cdfg.schedule_ms", "jobs.ledger_commit_ms",
                        "sandbox.isolate_overhead_ms", "model.fit_ms"})
    out.set(k, s.med(k), "ms");
  for (const char* k : {"bdd.nodes", "sim.mc_pairs", "analysis.escalations",
                        "fsm.markov_iters", "jobs.attempts", "jobs.degraded",
                        "serve.cache_hits", "serve.cache_misses", "serve.coalesced",
                        "sandbox.isolated", "model.predicted", "model.escalated"})
    out.set(k, s.n[k], "count");
  out.set("sim.gate_evals_per_s",
          s.n["sim.gate_evals"] / (s.n["sim.mc_total_ms"] * 1e-3), "1/s");
  out.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");
  out.correct = chk.ok();
  return out;
}

}  // namespace perfbench
