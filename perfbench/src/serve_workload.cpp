// serve_warm and serve_cold: open-loop TCP load against a real fusecu_serve.
//
// Untraced run:
//   1. set-up, repeated: spawn the server, wait for its port file and a
//      probe response (setup_s is the median of them);
//   2. serve_warm only: prime every distinct shape once (cache misses);
//   3. warm-up at the fixed rate, outside the timed window;
//   4. kRounds rounds, each a slice of the timed window at the fixed rate
//      followed by one climb of the capacity ladder (Ladder), so both figures
//      sample the whole run and a host storm in one part of it leaves the
//      rest to measure the program:
//        latency_p50_us: the lower quartile of the p50s of the slices'
//        windows (util.hpp); the same for their p99s is printed, not
//        reported (see perfbench/README.md);
//        capacity_qps: the highest rung two climbs passed;
//   5. SIGTERM, reap, then compare every response with the in-process
//      answer for the same line.
// peak_rss_mb is the server's VmHWM right after the first timed slice.
// Traced run: steps 1-4 once, then an idle round-trip server, the server's
// own counters, and the in-process layer profiles (profile.hpp).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "net.hpp"
#include "profile.hpp"
#include "requests.hpp"
#include "serve/plan_service.hpp"
#include "server.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Round trips of the idle single-connection measurement.
constexpr int kRoundTrips = 2000;

/// The request stream of one serve workload; request j is global across
/// phases, so no line is ever sent twice.
class Stream {
 public:
  Stream(bool warm, std::uint64_t seed) : warm_(warm), warm_stream_(seed), cold_stream_(seed) {}

  bool warm() const { return warm_; }
  const std::vector<std::string>& prime_bodies() const { return warm_stream_.bodies(); }
  std::string prime_line(std::int64_t u) const {
    return request_line('p', u, prime_bodies()[static_cast<std::size_t>(u)]);
  }
  std::string line(std::int64_t j) {
    return warm_ ? request_line('w', j,
                                warm_stream_.bodies()[warm_stream_.shape_of(j)])
                 : request_line('c', j, cold_stream_.body(j));
  }
  std::size_t shape_of(std::int64_t j) { return warm_stream_.shape_of(j); }

 private:
  bool warm_;
  WarmStream warm_stream_;
  ColdStream cold_stream_;
};

/// One open-loop phase: requests [first, first + count) of the stream, or
/// the prime pass when first < 0.
struct Phase {
  std::string name;
  std::int64_t first = 0;
  PhaseResult result;
};

/// serve_stream answers for \p lines on \p service, as hashes of the bytes
/// after each response's id prefix.
std::vector<std::uint64_t> in_process_hashes(fusecu::PlanService& service,
                                             const std::vector<std::string>& lines) {
  std::stringstream in;
  for (const std::string& l : lines) in << l << '\n';
  std::stringstream out;
  service.serve_stream(in, out, "<bench>");
  std::vector<std::uint64_t> hashes;
  std::string response;
  while (std::getline(out, response)) {
    hashes.push_back(hash64(std::string_view(response).substr(id_prefix(response).size())));
  }
  return hashes;
}

std::int64_t count_for(double rate, double seconds) {
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(rate * seconds));
}

double us(double ns) { return ns / 1e3; }

/// Every response that came back, compared with the in-process answer;
/// returns the number of mismatches on responses the load generator took
/// for good (sheds, timeouts and misordered responses are counted by the
/// caller).
std::int64_t verify(Stream& stream, std::vector<Phase>& phases) {
  fusecu::ServeOptions options;
  options.threads = 4;
  std::int64_t wrong = 0;
  const auto compare = [&](const Phase& ph, std::int64_t i, std::uint64_t expected) {
    const std::size_t k = static_cast<std::size_t>(i);
    if (ph.result.latency_ns[k] < 0 || ph.result.suffix_hash[k] == expected) return;
    // A mismatching shed, timeout or misordered response is already counted.
    if (ph.result.bad[k] == 0) ++wrong;
  };
  if (stream.warm()) {
    // First pass: cold answers, planned one at a time in prime order (one
    // pool thread) like the server's prime pass; second pass: all cached.
    options.threads = 1;
    fusecu::PlanService service(options);
    std::vector<std::string> prime;
    for (std::size_t u = 0; u < stream.prime_bodies().size(); ++u) {
      prime.push_back(stream.prime_line(static_cast<std::int64_t>(u)));
    }
    const std::vector<std::uint64_t> cold = in_process_hashes(service, prime);
    const std::vector<std::uint64_t> warm = in_process_hashes(service, prime);
    for (const Phase& ph : phases) {
      for (std::int64_t i = 0; i < ph.result.count; ++i) {
        compare(ph, i, ph.first < 0 ? cold[static_cast<std::size_t>(i)]
                                    : warm[stream.shape_of(ph.first + i)]);
      }
    }
    return wrong;
  }
  // Cold: every line is new, so one fresh service answers them all.
  fusecu::PlanService service(options);
  for (const Phase& ph : phases) {
    constexpr std::int64_t kChunk = 8192;
    for (std::int64_t base = 0; base < ph.result.count; base += kChunk) {
      std::vector<std::string> lines;
      for (std::int64_t i = base; i < std::min(ph.result.count, base + kChunk); ++i) {
        lines.push_back(stream.line(ph.first + i));
      }
      const std::vector<std::uint64_t> expected = in_process_hashes(service, lines);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        compare(ph, base + static_cast<std::int64_t>(i), expected[i]);
      }
    }
  }
  return wrong;
}

/// Idle single-connection round trips on a separate server: each line is
/// sent once to warm the cache, then round trips cycle over them.
std::vector<std::int64_t> idle_round_trips(const Options& opts, Stream& stream,
                                           const std::string& probe, Tracer& tracer) {
  ServerProcess server(opts.bin_dir + "/fusecu_serve", opts.server_flags, opts.work_dir);
  server.wait_ready(probe);
  Connection conn(server.port());
  std::vector<std::string> lines;
  for (std::int64_t j = 0; j < 64; ++j) lines.push_back(stream.line(j));
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  for (const std::string& l : lines) conn.round_trip(l, deadline);
  std::vector<std::int64_t> rtt;
  for (int i = 0; i < kRoundTrips; ++i) {
    const std::int64_t start = now_ns();
    {
      Span s(tracer, "net.rtt");
      const std::string& line = lines[static_cast<std::size_t>(i) % lines.size()];
      const std::string response = conn.round_trip(line, deadline);
      if (response.find("\"ok\":true") == std::string::npos) {
        throw std::runtime_error("idle round trip failed: " + response);
      }
    }
    rtt.push_back(now_ns() - start);
  }
  server.stop();
  return rtt;
}

void print_phase(const Phase& ph) {
  const std::vector<std::int64_t> lat = ph.result.latencies_with_misses();
  std::printf("%-10s rate=%.0f/s samples=%lld p50=%.1fus p99=%.1fus late_p99=%.1fus shed=%lld "
              "expired=%lld errors=%lld lost=%lld misordered=%lld\n",
              ph.name.c_str(), ph.result.rate, static_cast<long long>(ph.result.count),
              us(quantile(lat, 0.5)), us(quantile(lat, 0.99)),
              us(quantile(ph.result.late_ns, 0.99)), static_cast<long long>(ph.result.shed),
              static_cast<long long>(ph.result.expired), static_cast<long long>(ph.result.errors),
              static_cast<long long>(ph.result.lost), static_cast<long long>(ph.result.misordered));
}

/// Latency windows: a phase's latencies are summarized per window of due
/// time, so a burst of host noise moves the windows it hits, not the whole
/// figure.  A window spans at least 100 ms and 1000 requests, so its p99
/// has 10 samples beyond it.
int windows_in(const PhaseResult& r, int at_most) {
  const double seconds = static_cast<double>(r.count) / r.rate;
  const int windows =
      static_cast<int>(std::min(seconds / 0.1, static_cast<double>(r.count) / 1000));
  return std::clamp(windows, 1, at_most);
}

/// A rung holds when nothing failed, the median window's p99 is under the
/// limit, and the last window's median is too (no growing backlog).
bool rung_passes(const PhaseResult& r, double p99_limit_us) {
  const int windows = windows_in(r, 5);
  return r.shed + r.expired + r.errors + r.lost + r.misordered == 0 &&
         median(r.window_quantiles_us(windows, 0.99)) <= p99_limit_us &&
         r.window_quantiles_us(windows, 0.5).back() <= p99_limit_us;
}

/// Rounds of an untraced run (one timed slice plus one ladder climb each)
/// and the time each rung is offered.
constexpr int kRounds = 10;
constexpr double kRungSeconds = 0.25;
/// A climb ends at this many failed rungs in a row.
constexpr int kFailsPerClimb = 2;
/// Time the rounds may take in all before climbing stops.  In a host storm
/// overloaded rungs drain slowly; this keeps such a run well inside its
/// time limit.
constexpr double kRoundsBudgetSeconds = 60.0;

/// The capacity ladder, climbed several times.  A host burst fails the
/// rungs it hits but cannot make a rung beyond what the program sustains
/// pass, so capacity is taken from the best climbs: it is the highest rung
/// passed twice, which a single lucky 250 ms rung cannot set.  Only when
/// no rung passed twice does the highest rung passed once stand in.
class Ladder {
 public:
  explicit Ladder(const std::vector<double>& rungs) : rungs_(rungs), passes_(rungs.size()) {}

  /// One climb, from two rungs below the highest rung passed so far up to
  /// kFailsPerClimb failed rungs in a row.  \p run_rung offers one rung's
  /// rate and reports whether it passed.
  template <typename RunRung>
  void climb(RunRung run_rung) {
    int failed_in_a_row = 0;
    for (int i = std::max(0, best_once_ - 2);
         i < static_cast<int>(rungs_.size()) && failed_in_a_row < kFailsPerClimb; ++i) {
      if (run_rung(rungs_[static_cast<std::size_t>(i)])) {
        if (++passes_[static_cast<std::size_t>(i)] == 2) best_twice_ = std::max(best_twice_, i);
        best_once_ = std::max(best_once_, i);
        failed_in_a_row = 0;
      } else {
        ++failed_in_a_row;
      }
    }
  }

  bool passed_twice() const { return best_twice_ >= 0; }
  /// The highest rung passed twice, else the highest passed once, else 0.
  double capacity() const {
    const int best = best_twice_ >= 0 ? best_twice_ : best_once_;
    return best < 0 ? 0.0 : rungs_[static_cast<std::size_t>(best)];
  }

 private:
  const std::vector<double>& rungs_;
  std::vector<int> passes_;
  int best_once_ = -1;
  int best_twice_ = -1;
};

/// The warm prime pass: every distinct shape once, one request at a time in
/// a fixed order, so the cache state each answer sees is deterministic.
Phase prime(std::uint16_t port, Stream& stream) {
  Connection conn(port);
  Phase ph{"prime", -1, {}};
  PhaseResult& r = ph.result;
  r.count = static_cast<std::int64_t>(stream.prime_bodies().size());
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  for (std::int64_t u = 0; u < r.count; ++u) {
    const std::string line = stream.prime_line(u);
    const std::int64_t start = now_ns();
    const std::string response = conn.round_trip(line, deadline);
    r.latency_ns.push_back(now_ns() - start);
    r.late_ns.push_back(0);
    const std::string prefix = id_prefix(line);
    const bool ordered = response.size() > prefix.size() &&
                         response.compare(0, prefix.size(), prefix) == 0 &&
                         response[prefix.size()] == ',';
    r.suffix_hash.push_back(ordered ? hash64(std::string_view(response).substr(prefix.size())) : 0);
    r.bad.push_back(ordered ? 0 : 1);
    r.misordered += ordered ? 0 : 1;
    ++r.answered;
  }
  print_phase(ph);
  return ph;
}

}  // namespace

Outcome serve_load(const Options& opts, bool warm, Tracer* tracer) {
  Stream stream(warm, opts.seed);
  const double rate = warm ? opts.warm_rate : opts.cold_rate;
  const std::vector<double>& ladder = warm ? opts.warm_ladder : opts.cold_ladder;
  const std::string binary = opts.bin_dir + "/fusecu_serve";
  const std::string probe = request_line('q', 0, probe_body());
  const double S = opts.seconds;
  Outcome out;

  // 1. Set-up.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  const int repeats = tracer ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    if (server) server->stop();
    server = std::make_unique<ServerProcess>(binary, opts.server_flags, opts.work_dir);
    setups.push_back(server->wait_ready(probe));
  }
  LoadGen gen(server->port(), kConnections);
  std::vector<Phase> phases;
  std::int64_t next = 0;
  const auto run_phase = [&](const std::string& name, double phase_rate, double seconds) {
    const std::int64_t first = next;
    const std::int64_t count = count_for(phase_rate, seconds);
    next += count;
    // Generated before the clock starts, so the generator only sends.
    std::vector<std::string> lines;
    lines.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) lines.push_back(stream.line(first + i));
    phases.push_back({name, first,
                      gen.run(phase_rate, count, [&](std::int64_t i) -> const std::string& {
                        return lines[static_cast<std::size_t>(i)];
                      })});
    print_phase(phases.back());
    return phases.size() - 1;
  };

  // 2-3. Prime, warm-up.
  if (warm) phases.push_back(prime(server->port(), stream));
  const std::size_t warmup = run_phase("warm-up", rate, 0.1 * S);

  // 4. Timed slices and ladder climbs in rounds; a traced run has one
  // slice and no ladder.
  const int rounds = tracer ? 1 : kRounds;
  const double slice_seconds = (tracer ? 0.2 * S : 0.4 * S) / rounds;
  const auto run_rung = [&](double rung) {
    return rung_passes(phases[run_phase("rung", rung, kRungSeconds)].result, opts.p99_limit_us);
  };
  std::vector<std::size_t> timed;
  double peak_rss_mb = 0.0;
  Ladder capacity_ladder(ladder);
  const std::int64_t rounds_end =
      now_ns() + static_cast<std::int64_t>(kRoundsBudgetSeconds * 1e9);
  for (int round = 0; round < rounds; ++round) {
    timed.push_back(run_phase("timed", rate, slice_seconds));
    // Peak memory of serving the workload at its fixed rate, before an
    // overloaded rung adds whatever backlog it happened to build.
    if (round == 0) peak_rss_mb = server->peak_rss_mb();
    if (!tracer && now_ns() < rounds_end) capacity_ladder.climb(run_rung);
  }
  // Should no rung have passed twice, climb on while the budget lasts.
  while (!tracer && !capacity_ladder.passed_twice() && now_ns() < rounds_end) {
    capacity_ladder.climb(run_rung);
  }
  const double capacity = capacity_ladder.capacity();
  const ServerReport report = server->stop();
  server.reset();

  // 5. Correctness of every response.  Sheds and server timeouts are the
  // server's answers under overload: they count as failed, not as wrong.
  std::int64_t failed = 0;
  std::int64_t broken = 0;  // lost, misordered, malformed or wrong: never acceptable
  for (const Phase& ph : phases) {
    out.attempted += ph.result.count;
    failed += ph.result.lost + ph.result.misordered + ph.result.shed + ph.result.expired +
              ph.result.errors;
    broken += ph.result.lost + ph.result.misordered + ph.result.errors;
  }
  const std::int64_t wrong = verify(stream, phases);
  out.failed = failed + wrong;
  out.correct = broken + wrong == 0 && report.exited_cleanly;
  const Phase& w = phases[warmup];
  std::printf("warm-up excluded from timing: %lld requests, %lld shed\n",
              static_cast<long long>(w.result.count), static_cast<long long>(w.result.shed));
  std::printf("server: responses=%lld shed=%lld deadline_expired=%lld hits=%lld misses=%lld "
              "evictions=%lld peak_rss=%.1fMB; wrong answers=%lld\n",
              static_cast<long long>(report.responses), static_cast<long long>(report.shed),
              static_cast<long long>(report.deadline_expired),
              static_cast<long long>(report.cache_hits),
              static_cast<long long>(report.cache_misses),
              static_cast<long long>(report.evictions), report.peak_rss_mb,
              static_cast<long long>(wrong));

  Metrics& m = out.metrics;
  if (!tracer) {
    std::vector<double> p50s;
    std::vector<double> p99s;
    std::vector<std::int64_t> all;
    for (std::size_t index : timed) {
      const PhaseResult& t = phases[index].result;
      const int windows = windows_in(t, 1000);
      for (double v : t.window_quantiles_us(windows, 0.5)) p50s.push_back(v);
      for (double v : t.window_quantiles_us(windows, 0.99)) p99s.push_back(v);
      const std::vector<std::int64_t> lat = t.latencies_with_misses();
      all.insert(all.end(), lat.begin(), lat.end());
    }
    std::printf("latency over %zu samples at %.0f/s in %zu windows: lower-quartile window "
                "p50 %.1fus p99 %.1fus (over all: p50 %.1fus p99 %.1fus); capacity %.0f/s (p99 "
                "limit %.0fus)\n",
                all.size(), rate, p50s.size(), lower_quartile(p50s),
                lower_quartile(p99s), us(quantile(all, 0.5)), us(quantile(all, 0.99)), capacity,
                opts.p99_limit_us);
    m["setup_s"] = {median(setups), "s"};
    m["latency_p50_us"] = {lower_quartile(p50s), "us"};
    m["capacity_per_s"] = {capacity, "1/s"};
    m["ok_frac"] = {1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                    "frac"};
    m["peak_rss_mb"] = {peak_rss_mb, "MB"};
    return out;
  }
  m["loadgen.late_p99_us"] = {us(quantile(phases[timed.front()].result.late_ns, 0.99)), "us"};
  m["net.shed"] = {static_cast<double>(report.shed), "count"};
  m["net.deadline_expired"] = {static_cast<double>(report.deadline_expired), "count"};
  m["pool.qdelay_p95_us"] = {report.qdelay_p95_us, "us"};
  const double lookups = static_cast<double>(report.cache_hits + report.cache_misses);
  m["serve.hit_ratio"] = {lookups > 0 ? static_cast<double>(report.cache_hits) / lookups : 0.0,
                          "frac"};
  m["serve.evictions"] = {static_cast<double>(report.evictions), "count"};
  m["serve.single_flight_shared"] = {static_cast<double>(report.single_flight_shared), "count"};
  m["net.rtt_p50_us"] = {us(median(idle_round_trips(opts, stream, probe, *tracer))), "us"};
  return out;
}

Outcome run_serve(const Options& opts, bool warm) {
  if (!opts.trace) return serve_load(opts, warm, nullptr);
  Tracer tracer(true);
  Outcome out = serve_load(opts, warm, &tracer);
  Metrics& m = out.metrics;
  std::vector<std::string> bodies;
  if (warm) {
    bodies = warm_bodies();
  } else {
    ColdStream cold(opts.seed);
    for (std::int64_t j = 0; j < 512; ++j) bodies.push_back(cold.body(j));
  }
  profile_request_path(bodies, tracer, m);
  const Attempts oracle = profile_oracles(opts.seed, tracer, m);
  finish_trace(tracer, oracle, opts.work_dir + "/trace-" + opts.workload + ".json", out);
  return out;
}

void finish_trace(const Tracer& tracer, const Attempts& oracle, const std::string& path,
                  Outcome& out) {
  Metrics& m = out.metrics;
  m["net.overhead_p50_us"] = {m["net.rtt_p50_us"].value - m["serve.line_warm_p50_us"].value,
                              "us"};
  out.attempted += oracle.attempted;
  out.failed += oracle.failed;
  out.correct = out.correct && oracle.consistent;
  add_self_time(tracer, m);
  std::ofstream trace_file(path);
  tracer.write_chrome_json(trace_file);
}

}  // namespace perfbench
