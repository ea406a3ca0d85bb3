#include "oracle.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "common.hpp"
#include "fsm/benchmarks.hpp"
#include "jobs/kernels.hpp"

namespace perfbench {

namespace nl = hlp::netlist;

namespace {

/// Kahn order over fanin edges, independent of Netlist::topo_order().
std::vector<nl::GateId> oracle_order(const nl::Netlist& net) {
  const std::size_t n = net.gate_count();
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<std::vector<nl::GateId>> users(n);
  for (nl::GateId g = 0; g < n; ++g) {
    const nl::Gate& gate = net.gate(g);
    if (gate.kind == nl::GateKind::Dff)
      throw std::invalid_argument("oracle: sequential designs are not covered");
    pending[g] = static_cast<std::uint32_t>(gate.fanins.size());
    for (nl::GateId f : gate.fanins) users[f].push_back(g);
  }
  std::vector<nl::GateId> order;
  order.reserve(n);
  for (nl::GateId g = 0; g < n; ++g)
    if (pending[g] == 0) order.push_back(g);
  for (std::size_t i = 0; i < order.size(); ++i)
    for (nl::GateId u : users[order[i]])
      if (--pending[u] == 0) order.push_back(u);
  if (order.size() != n) throw std::invalid_argument("oracle: cyclic netlist");
  return order;
}

/// The documented capacitance model (netlist.hpp CapacitanceModel defaults):
/// 1 per logic input pin, 0.5 output self load, 0.25 wire load per fanout,
/// plus any extra cap on the gate.
std::vector<double> oracle_loads(const nl::Netlist& net) {
  const std::size_t n = net.gate_count();
  std::vector<double> load(n, 0.0);
  std::vector<std::uint32_t> fanout(n, 0);
  for (nl::GateId g = 0; g < n; ++g)
    for (nl::GateId f : net.gate(g).fanins) {
      load[f] += 1.0;
      ++fanout[f];
    }
  for (nl::GateId g = 0; g < n; ++g)
    load[g] += 0.5 + 0.25 * static_cast<double>(fanout[g]) +
               net.gate(g).extra_cap;
  return load;
}

/// One 64-lane evaluation of every gate; input values must be preset.
void eval_lanes(const nl::Netlist& net, const std::vector<nl::GateId>& order,
                std::vector<std::uint64_t>& v) {
  for (nl::GateId g : order) {
    const nl::Gate& gate = net.gate(g);
    const auto& f = gate.fanins;
    std::uint64_t r = 0;
    switch (gate.kind) {
      case nl::GateKind::Input: continue;
      case nl::GateKind::Const0: r = 0; break;
      case nl::GateKind::Const1: r = ~0ull; break;
      case nl::GateKind::Buf: r = v[f[0]]; break;
      case nl::GateKind::Not: r = ~v[f[0]]; break;
      case nl::GateKind::And:
      case nl::GateKind::Nand:
        r = ~0ull;
        for (nl::GateId x : f) r &= v[x];
        if (gate.kind == nl::GateKind::Nand) r = ~r;
        break;
      case nl::GateKind::Or:
      case nl::GateKind::Nor:
        r = 0;
        for (nl::GateId x : f) r |= v[x];
        if (gate.kind == nl::GateKind::Nor) r = ~r;
        break;
      case nl::GateKind::Xor:
      case nl::GateKind::Xnor:
        r = 0;
        for (nl::GateId x : f) r ^= v[x];
        if (gate.kind == nl::GateKind::Xnor) r = ~r;
        break;
      case nl::GateKind::Mux:
        r = (v[f[0]] & v[f[2]]) | (~v[f[0]] & v[f[1]]);
        break;
      case nl::GateKind::Dff:
        throw std::invalid_argument("oracle: sequential designs are not covered");
    }
    v[g] = r;
  }
}

constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

}  // namespace

NetOracle::NetOracle(const nl::Module& mod, const std::string& design) {
  const nl::Netlist& net = mod.netlist;
  const std::vector<nl::GateId> order = oracle_order(net);
  load_ = oracle_loads(net);
  const auto inputs = net.inputs();
  const int bits = static_cast<int>(inputs.size());
  const std::size_t gates = net.gate_count();
  std::vector<std::uint64_t> v(gates, 0);

  if (bits <= kExactInputBits) {
    n_ = bits;
    const int lo = std::min(bits, 6);
    const std::uint64_t valid =
        lo == 6 ? ~0ull : ((std::uint64_t{1} << (1u << lo)) - 1);
    // Lanes grouped by the popcount of their low `lo` input bits.
    std::uint64_t lane_class[7] = {};
    for (unsigned lane = 0; lane < 64; ++lane)
      if ((valid >> lane) & 1u)
        lane_class[std::popcount(lane & ((1u << lo) - 1))] |=
            std::uint64_t{1} << lane;
    cnt_.assign(gates, std::vector<std::uint64_t>(bits + 1, 0));
    const std::uint64_t words = std::uint64_t{1} << (bits - lo);
    for (std::uint64_t w = 0; w < words; ++w) {
      for (int i = 0; i < bits; ++i)
        v[inputs[i]] = i < 6 ? kLanePattern[i] : (((w >> (i - 6)) & 1u) ? ~0ull : 0);
      eval_lanes(net, order, v);
      const int hi = std::popcount(w);
      for (nl::GateId g = 0; g < gates; ++g) {
        const std::uint64_t x = v[g];
        if (!x) continue;
        for (int j = 0; j <= lo; ++j)
          cnt_[g][hi + j] += static_cast<std::uint64_t>(std::popcount(x & lane_class[j]));
      }
    }
    return;
  }

  // Too wide to enumerate: 2^20 independent uniform vector pairs, in 64-pair
  // batches whose means give the standard error.
  SplitMix rng(mix(hash_str(design), 0x6f7261636c65ull));
  std::vector<std::uint64_t> a(gates, 0);
  const std::size_t batches = std::size_t{1} << 14;
  double mean = 0.0, m2 = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    for (nl::GateId in : inputs) {
      a[in] = rng.next();
      v[in] = rng.next();
    }
    eval_lanes(net, order, a);
    eval_lanes(net, order, v);
    double e = 0.0;
    for (nl::GateId g = 0; g < gates; ++g)
      e += load_[g] * static_cast<double>(std::popcount(a[g] ^ v[g]));
    e /= 64.0;
    const double d = e - mean;
    mean += d / static_cast<double>(b + 1);
    m2 += d * (e - mean);
  }
  mc_mean_ = mean;
  mc_se_ = std::sqrt(m2 / static_cast<double>(batches - 1) /
                     static_cast<double>(batches));
}

CapOracle NetOracle::at(double p) const {
  CapOracle o;
  if (!exact()) {
    if (p != 0.5)
      throw std::invalid_argument("oracle: sampled oracles cover p = 0.5 only");
    o.value = mc_mean_;
    o.slack = 6.0 * mc_se_;
    return o;
  }
  o.exact = true;
  std::vector<double> w(n_ + 1);
  for (int k = 0; k <= n_; ++k)
    w[k] = p == 0.5 ? std::ldexp(1.0, -n_)
                    : std::pow(p, k) * std::pow(1.0 - p, n_ - k);
  double e = 0.0;
  for (std::size_t g = 0; g < cnt_.size(); ++g) {
    double q = 0.0;
    if (p == 0.5) {
      std::uint64_t ones = 0;
      for (std::uint64_t c : cnt_[g]) ones += c;
      q = std::ldexp(static_cast<double>(ones), -n_);
    } else {
      for (int k = 0; k <= n_; ++k) q += static_cast<double>(cnt_[g][k]) * w[k];
    }
    e += load_[g] * 2.0 * q * (1.0 - q);
  }
  o.value = e;
  return o;
}

WalkOracle markov_walk(const hlp::fsm::Stg& stg, std::uint64_t seed,
                       std::size_t steps) {
  const std::size_t s = stg.num_states();
  const std::size_t symbols = stg.n_symbols();
  constexpr std::size_t kBatches = 40;
  const std::size_t per_batch = steps / kBatches;
  SplitMix rng(seed);
  hlp::fsm::StateId cur = 0;
  for (int i = 0; i < 10000; ++i) cur = stg.next(cur, rng.below(symbols));

  auto entropy = [](const std::vector<std::uint64_t>& c, double n) {
    double h = 0.0;
    for (std::uint64_t x : c)
      if (x) {
        const double p = static_cast<double>(x) / n;
        h -= p * std::log2(p);
      }
    return h;
  };
  std::vector<std::uint64_t> total(s * s, 0), batch(s * s, 0);
  double bmean = 0.0, bm2 = 0.0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::fill(batch.begin(), batch.end(), 0);
    for (std::size_t i = 0; i < per_batch; ++i) {
      const hlp::fsm::StateId nxt = stg.next(cur, rng.below(symbols));
      ++batch[cur * s + nxt];
      cur = nxt;
    }
    for (std::size_t k = 0; k < total.size(); ++k) total[k] += batch[k];
    const double h = entropy(batch, static_cast<double>(per_batch));
    const double d = h - bmean;
    bmean += d / static_cast<double>(b + 1);
    bm2 += d * (h - bmean);
  }
  const double n = static_cast<double>(per_batch * kBatches);
  std::size_t edges = 0;
  for (std::uint64_t x : total) edges += x ? 1 : 0;
  WalkOracle o;
  o.value = entropy(total, n);
  const double se = std::sqrt(bm2 / (kBatches - 1) / kBatches);
  // Plug-in entropy is biased low by about (edges - 1) / (2 n ln 2).
  o.slack = 6.0 * se + static_cast<double>(edges) / (n * std::log(2.0));
  return o;
}

ScheduleBounds schedule_bounds(const hlp::cdfg::Cdfg& g) {
  const hlp::cdfg::OpDelays d;
  std::vector<int> finish(g.size(), 0);
  ScheduleBounds b;
  for (hlp::cdfg::OpId id = 0; id < g.size(); ++id) {
    const hlp::cdfg::Op& op = g.op(id);
    int start = 0;
    for (hlp::cdfg::OpId p : op.preds) start = std::max(start, finish[p]);
    finish[id] = start + d.of(op.kind);
    b.critical_path = std::max(b.critical_path, finish[id]);
    b.serial += d.of(op.kind);
  }
  return b;
}

const NetOracle& OracleCache::net(const std::string& design) {
  auto it = nets_.find(design);
  if (it == nets_.end())
    it = nets_.emplace(design, NetOracle(hlp::jobs::make_module(design), design))
             .first;
  return it->second;
}

const WalkOracle& OracleCache::walk(const std::string& fsm) {
  auto it = walks_.find(fsm);
  if (it == walks_.end())
    it = walks_.emplace(fsm, markov_walk(hlp::fsm::controller_by_name(fsm),
                                         mix(hash_str(fsm), 0x77616c6bull)))
             .first;
  return it->second;
}

ScheduleBounds OracleCache::schedule(const std::string& cdfg) {
  return schedule_bounds(hlp::jobs::make_cdfg(cdfg));
}

bool near(double value, const CapOracle& o, double rel) {
  return std::abs(value - o.value) <= o.slack + rel * std::abs(o.value);
}

}  // namespace perfbench
