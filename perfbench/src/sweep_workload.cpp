// check_sweep: the in-process conformance sweep.
//
// Untraced run:
//   * set-up, repeated: spawn `fusecu_check --trials 0 --jobs 4` and time it
//     to exit, i.e. everything the tool does before its first trial
//     (setup_s is the median of them);
//   * a fixed set of single trials, one at a time (check_workload, every
//     phase), timed in several passes: latency_p50_us is the p50 over the
//     trials of each trial's fastest pass, so a host burst has to hit a
//     trial in every pass to move it (the p99 is printed);
//   * after each pass, back-to-back run_conformance sweeps at --jobs 4 over
//     seeds derived from --seed: capacity_per_s is the best sweep's trials
//     per second (a host burst only ever slows a sweep down);
//   * ok_frac counts failing trials; peak_rss_mb is this process's peak.
// A failing trial is the harness reporting an optimizer disagreement, which
// is its job: it counts as failed, but the run stays correct as long as
// every reported failure reproduces when the trial is checked again alone.
// Traced run: the oracle profile on this seed's trials, the request-path
// profile on their request bodies, and the net counters from a short
// serve_cold run.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "check/harness.hpp"
#include "profile.hpp"
#include "requests.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Trials per run_conformance sweep.
constexpr int kSweepTrials = 1000;
/// Single trials timed, and the passes over them.
constexpr int kSingleTrials = 8000;
constexpr int kSinglePasses = 4;

double time_check_setup(const std::string& binary, int jobs) {
  std::vector<std::string> args{binary, "--trials", "0", "--jobs", std::to_string(jobs)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  const std::int64_t start = now_ns();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  int status = 0;
  ::waitpid(pid, &status, 0);
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(binary + " --trials 0 failed");
  }
  return seconds;
}

/// A base seed of its own for each \p salt: distinct (seed, salt) pairs
/// do not share trial streams, so every --seed sweeps different trials.
std::uint64_t derive(std::uint64_t seed, int salt) { return fusecu::trial_seed(seed, salt); }

}  // namespace

bool failure_reproduces(const fusecu::Workload& w, const fusecu::CheckReport& report) {
  const fusecu::CheckReport again = fusecu::check_workload(w);
  return !again.ok() && again.failures.front().check == report.failures.front().check;
}

Outcome run_check_sweep(const Options& opts) {
  Outcome out;
  Metrics& m = out.metrics;
  const double S = opts.seconds;

  if (opts.trace) {
    // The sweep has no network layer: its net and serve-counter metrics
    // come from a short serve_cold load on the same seed.
    Tracer tracer(true);
    Options cold = opts;
    cold.seconds = 0.3 * S;
    out = serve_load(cold, false, &tracer);
    std::vector<std::string> bodies;
    for (int i = 0; bodies.size() < 512; ++i) {
      const std::string body = body_for_workload(fusecu::workload_for_trial(opts.seed, i));
      if (!body.empty()) bodies.push_back(body);
    }
    profile_request_path(bodies, tracer, out.metrics);
    const Attempts oracle = profile_oracles(opts.seed, tracer, out.metrics);
    finish_trace(tracer, oracle, opts.work_dir + "/trace-check_sweep.json", out);
    return out;
  }

  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setups.push_back(time_check_setup(opts.bin_dir + "/fusecu_check", kSweepJobs));
  }

  // Passes over the single trials, each followed by a share of the sweep
  // time, so both figures sample the whole run.
  std::vector<fusecu::Workload> trials;
  const std::uint64_t single_seed = derive(opts.seed, 0x5119e1);
  for (int i = 0; i < kSingleTrials; ++i) {
    trials.push_back(fusecu::workload_for_trial(single_seed, i));
  }
  std::vector<std::int64_t> trial_ns(trials.size(), INT64_MAX);
  std::vector<double> rates;
  for (int pass = 0; pass < kSinglePasses; ++pass) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const std::int64_t start = now_ns();
      const fusecu::CheckReport report = fusecu::check_workload(trials[i]);
      trial_ns[i] = std::min(trial_ns[i], now_ns() - start);
      ++out.attempted;
      if (!report.ok()) {
        std::cerr << "FAIL " << trials[i].to_string() << ": " << report.summary() << "\n";
        ++out.failed;
        out.correct = out.correct && failure_reproduces(trials[i], report);
      }
    }
    const std::int64_t sweep_end =
        now_ns() + static_cast<std::int64_t>(0.3 * S / kSinglePasses * 1e9);
    do {
      fusecu::HarnessOptions h;
      h.seed = derive(opts.seed, static_cast<int>(rates.size()));
      h.trials = kSweepTrials;
      h.jobs = kSweepJobs;
      h.shrink = false;
      const std::int64_t start = now_ns();
      const fusecu::HarnessResult r = fusecu::run_conformance(h, &std::cerr);
      rates.push_back(r.trials_run / (static_cast<double>(now_ns() - start) / 1e9));
      out.attempted += r.trials_run;
      out.failed += r.failed_trials;
      out.correct = out.correct && r.trials_run == kSweepTrials;
      for (const fusecu::TrialFailure& f : r.failures) {
        out.correct = out.correct && failure_reproduces(f.workload, f.report);
      }
    } while (now_ns() < sweep_end);
  }

  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  std::printf("sweeps: %zu x %d trials at --jobs %d; single trials: %zu, fastest of %d passes: "
              "p50 %.1fus p99 %.1fus\n",
              rates.size(), kSweepTrials, kSweepJobs, trials.size(), kSinglePasses,
              quantile(trial_ns, 0.5) / 1e3, quantile(trial_ns, 0.99) / 1e3);
  m["setup_s"] = {median(setups), "s"};
  m["latency_p50_us"] = {quantile(trial_ns, 0.5) / 1e3, "us"};
  m["capacity_per_s"] = {*std::max_element(rates.begin(), rates.end()), "1/s"};
  m["ok_frac"] = {1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                  "frac"};
  m["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
  return out;
}

}  // namespace perfbench
