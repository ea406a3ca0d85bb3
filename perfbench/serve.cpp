// `serve`: an in-process serve::Server on loopback, driven by a closed loop
// of client connections replaying a seeded Zipf trace of hot, cold and
// predicted estimate requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "model/artifact.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using hlp::jobs::JobKind;

LineClient::LineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to the benchmark server failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::call(const std::string& line) {
  std::string msg = line;
  msg.push_back('\n');
  for (std::size_t off = 0; off < msg.size();) {
    const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send to the benchmark server failed");
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string out = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return out;
    }
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n <= 0) throw std::runtime_error("benchmark server closed the connection");
    buf_.append(tmp, static_cast<std::size_t>(n));
  }
}

std::string request_line(const Op& op, std::uint64_t seed, double accuracy) {
  hlp::serve::Request rq;
  rq.kind = op.kind;
  rq.design = op.design;
  rq.has_seed = true;
  rq.seed = seed;
  rq.epsilon = op.epsilon;
  rq.max_pairs = op.max_pairs;
  rq.has_accuracy = accuracy > 0.0;
  rq.accuracy = accuracy;
  return rq.serialize();
}

std::vector<Op> serve_cold_mix(std::uint64_t seed) {
  SplitMix r(mix(seed, 0x73727665ull));
  auto rnd = [&r](const char* prefix) {
    return std::string(prefix) + std::to_string(1 + r.below(1u << 30));
  };
  std::vector<Op> c;
  // Word-structured symbolic designs at widths 10-14 beside designs without
  // that structure. Widths 13 and 14 are the round's heavy requests. Width
  // 16 is left out: one adder:16 request (about 2 s) would be half of a
  // round's kernel time and tie the round's rate to one core's speed.
  for (const char* d : {"adder:14", "comparator:14", "adder:13",
                        "comparator:13", "adder:12", "comparator:12",
                        "adder:11", "comparator:11", "adder:10",
                        "comparator:10", "parity:24", "parity:40", "mult:6",
                        "mult:7"})
    c.push_back(Op{JobKind::Symbolic, d});
  c.push_back(Op{JobKind::Symbolic, rnd("random:18:300:8:")});
  c.push_back(Op{JobKind::Symbolic, rnd("random:24:400:8:")});
  for (const char* d : {"alu:12", "mult:8", "adder:16"})
    c.push_back(Op{JobKind::MonteCarlo, d, 0.01, 100000});
  c.push_back(Op{JobKind::MonteCarlo, rnd("random:32:1500:16:"), 0.01, 100000});
  for (const char* d : {"adder:16", "comparator:12", "parity:32", "alu:8",
                        "max:8", "mult:6"})
    c.push_back(Op{JobKind::Static, d});
  for (const char* d : {"traffic", "uart-rx", "dma", "elevator"})
    c.push_back(Op{JobKind::Markov, d});
  return c;
}

std::vector<hlp::model::SweepSpec> serve_model_sweeps() {
  std::vector<hlp::model::SweepSpec> v(2);
  v[0].family = "adder";
  v[1].family = "comparator";
  for (auto& s : v) {
    s.kind = JobKind::Symbolic;
    for (int w = 4; w <= 12; ++w) s.params.push_back(w);
    s.input_p = {0.5};
  }
  return v;
}

namespace {

enum class Cls : std::uint8_t { Cold, Hot, Predicted };

struct Item {
  Cls cls = Cls::Cold;
  Op op;
  std::string line;      ///< serialized request
  std::size_t key = 0;   ///< index into the key table (cold/hot)
  double accuracy = 0.0; ///< predicted requests only
};


/// Zipf(s) rank sampler over [0, n) by inverse CDF on the fly.
std::size_t zipf_rank(SplitMix& r, std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) total += 1.0 / std::pow(double(k), s);
  double u = r.real() * total;
  for (std::size_t k = 1; k <= n; ++k) {
    u -= 1.0 / std::pow(double(k), s);
    if (u <= 0.0) return k - 1;
  }
  return n - 1;
}

bool is_heavy(const Op& op) {
  return op.kind == JobKind::Symbolic &&
         (op.design == "adder:14" || op.design == "comparator:14" ||
          op.design == "adder:13" || op.design == "comparator:13");
}

}  // namespace

hlp::serve::ServerOptions serve_options(const Options& o,
                                        const std::string& model_path) {
  hlp::serve::ServerOptions so;
  so.service.workers = o.nproc / 2;  // the other half are client connections
  so.service.isolate = hlp::serve::IsolateMode::Symbolic;  // daemon default
  so.service.model_path = model_path;
  return so;
}

std::string train_models(const Options& o, const std::string& dir) {
  hlp::jobs::RunnerOptions ropts;
  ropts.workers = o.nproc;
  std::vector<hlp::model::Macromodel> models;
  for (const hlp::model::SweepSpec& s : serve_model_sweeps()) {
    const hlp::model::Characterization ch = hlp::model::characterize(s, ropts);
    if (!ch.complete()) throw std::runtime_error("model training campaign failed");
    models.push_back(
        hlp::model::fit_macromodel(ch.rows, s.family, "symbolic").model);
  }
  const std::string path = dir + "/models.hlpm";
  std::string err;
  if (!hlp::model::save_models_file(path, models, err))
    throw std::runtime_error("cannot save models: " + err);
  return path;
}

Result run_serve(const Options& o) {
  const std::string dir = make_dir(o, "serve");
  const std::string model_path = train_models(o, dir);
  hlp::serve::Server srv(serve_options(o, model_path));
  srv.start();
  if (srv.service().health().models_loaded == 0)
    throw std::runtime_error("server loaded no models");

  const int nclients = o.nproc - o.nproc / 2;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < nclients; ++i)
    clients.push_back(std::make_unique<LineClient>(srv.port()));

  SplitMix rng(mix(o.seed, 0x7472616365ull));
  const std::vector<Op> cold_mix = serve_cold_mix(o.seed);

  // Key table: every cold key with its request line and first response.
  struct Key {
    Op op;
    std::string line;
    std::string cold_response;
  };
  std::vector<Key> keys;
  std::vector<std::size_t> popularity;  ///< key indices, most popular first
  std::uint64_t admitted = 0;           ///< estimate requests sent

  auto add_key = [&](const Op& op, const std::string& response,
                     const std::string& line) {
    keys.push_back(Key{op, line, response});
    popularity.insert(popularity.begin() +
                          static_cast<std::ptrdiff_t>(rng.below(popularity.size() + 1)),
                      keys.size() - 1);
  };
  // Warm keys so the first round already has hot targets.
  for (const char* d : {"parity:16", "mux:3", "c17", "alu:4"}) {
    const Op op{JobKind::Static, d};
    const std::string line = request_line(op, rng.next());
    add_key(op, clients[0]->call(line), line);
    ++admitted;
  }

  Result out;
  out.set("setup_s", seconds_since_launch(o), "s");

  std::vector<Item> all_items;
  std::vector<std::string> all_done;
  std::vector<double> rates;  ///< requests per second of each round
  const Clock::time_point t0 = Clock::now();
  do {
    // Build the round. No measured traffic of this service exists, so the
    // make-up is an assumption, each count set by a stated requirement:
    // cold = the cold mix, one request per covered design (heavy requests
    // first, so the round does not end on a lone long request); predicted =
    // the fewest that reach every predicted-tier outcome; hot = the fewest
    // repeats that keep cache hits the majority of the round's requests.
    std::vector<Item> items;
    std::vector<Item> heavy;
    for (const Op& op : cold_mix) {
      Item it{Cls::Cold, op, request_line(op, rng.next())};
      (is_heavy(op) ? heavy : items).push_back(std::move(it));
    }
    // Predicted requests, per family: in-hull widths at a loose accuracy
    // (the model answers), an accuracy no interval can meet and a width
    // below the training hull (both escalate to the kernel).
    for (const char* fam : {"adder:", "comparator:"}) {
      auto predicted = [&](int w, double accuracy) {
        Item it;
        it.cls = Cls::Predicted;
        it.op = Op{JobKind::Symbolic, fam + std::to_string(w)};
        it.accuracy = accuracy;
        it.line = request_line(it.op, rng.next(), accuracy);
        items.push_back(std::move(it));
      };
      for (int w = 5; w <= 11; ++w) predicted(w, 0.5);
      predicted(4, 1e-9);
      predicted(3, 0.5);
    }
    // Hot repeats of earlier keys by Zipf's law (s = 1), also an
    // assumption. The skew only picks which key a hot request repeats: the
    // default 8 MB cache holds every key of a run, so every repeat hits.
    const std::size_t hot = items.size() + heavy.size() + 1;
    for (std::size_t h = 0; h < hot; ++h) {
      Item it;
      it.cls = Cls::Hot;
      it.key = popularity[zipf_rank(rng, popularity.size(), 1.0)];
      it.op = keys[it.key].op;
      it.line = keys[it.key].line;
      items.push_back(std::move(it));
    }
    rng.shuffle(items);
    rng.shuffle(heavy);
    items.insert(items.begin(), heavy.begin(), heavy.end());

    std::vector<std::string> done(items.size());
    const Clock::time_point r0 = Clock::now();
    std::atomic<std::size_t> next{0};
    std::atomic<bool> broken{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < nclients; ++c)
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i; (i = next.fetch_add(1)) < items.size();)
            done[i] = clients[c]->call(items[i].line);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %d: %s\n", c, e.what());
          broken = true;
        }
      });
    for (auto& t : threads) t.join();
    rates.push_back(static_cast<double>(items.size()) / seconds_since(r0));
    if (broken) throw std::runtime_error("client connection failed");
    admitted += items.size();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].cls == Cls::Cold) {
        add_key(items[i].op, done[i], items[i].line);
        items[i].key = keys.size() - 1;
      }
      all_items.push_back(std::move(items[i]));
      all_done.push_back(std::move(done[i]));
    }
  } while (seconds_since(t0) < o.seconds);

  log_rates(rates);
  out.set("ops_per_s", percentile(rates, 0.5), "1/s");

  hlp::serve::ResponseView mv;
  const std::string metrics_line = clients[0]->call("{\"op\":\"metrics\"}");
  const bool metrics_ok = hlp::serve::parse_response(metrics_line, mv);
  const hlp::serve::ServiceHealth health = srv.service().health();
  clients.clear();
  srv.shutdown();
  // Drained: every sandbox child must already be reaped.
  errno = 0;
  const bool no_children = ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Checks.
  Checker chk;
  OracleCache oc;
  std::uint64_t predicted = 0, escalated = 0;
  for (std::size_t i = 0; i < all_items.size(); ++i) {
    const Item& it = all_items[i];
    const std::string& resp = all_done[i];
    ++out.attempted;
    hlp::serve::ResponseView v;
    if (!hlp::serve::parse_response(resp, v) || !v.ok || !v.has_value) {
      ++out.failed;
      std::fprintf(stderr, "request %s failed: %s\n", it.line.c_str(), resp.c_str());
      continue;
    }
    const std::string where = "serve " + it.line;
    switch (it.cls) {
      case Cls::Hot:
        chk.expect(resp == keys[it.key].cold_response,
                   where + ": hot response differs from the cold one");
        break;
      case Cls::Cold:
        check_estimate(chk, oc, it.op, v.value, v.detail, v.degraded, where);
        break;
      case Cls::Predicted:
        if (v.tier == "predicted") {
          ++predicted;
          chk.expect(v.has_interval && it.accuracy == 0.5,
                     where + ": answered without an interval or despite accuracy");
          // A prediction whose interval misses the exact value is a failed
          // operation (the model's own fault), not a benchmark error.
          const CapOracle orc = oc.net(it.op.design).at(0.5);
          if (!(v.interval_lo - orc.slack <= orc.value &&
                orc.value <= v.interval_hi + orc.slack)) {
            ++out.failed;
            std::fprintf(stderr, "%s: interval [%.17g, %.17g] misses oracle %.17g\n",
                         where.c_str(), v.interval_lo, v.interval_hi, orc.value);
          }
        } else {
          ++escalated;
          chk.expect(v.tier == "exact", where + ": no tier on an accuracy request");
          check_estimate(chk, oc, it.op, v.value, v.detail, v.degraded, where);
        }
        break;
    }
  }
  chk.expect(no_children, "a sandbox child outlived the server drain");
  chk.expect(metrics_ok, "metrics response unparsable");
  chk.expect(mv.hits + mv.misses + mv.coalesced == admitted - predicted,
             "server hits+misses+coalesced " +
                 std::to_string(mv.hits + mv.misses + mv.coalesced) +
                 " != client count " + std::to_string(admitted - predicted));
  chk.expect(health.model_predicted == predicted,
             "server model-predicted differs from the client count");
  chk.expect(health.model_escalated + health.model_out_of_hull == escalated,
             "server model escalations differ from the client count");
  chk.expect(health.isolated > 0 && health.child_crashes == 0,
             "symbolic kernels did not all run in clean sandbox children");
  chk.expect(predicted > 0 && escalated > 0, "predicted tier not exercised");
  out.correct = chk.ok();
  return out;
}

}  // namespace perfbench
