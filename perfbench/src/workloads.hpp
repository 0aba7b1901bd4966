#pragma once

/// \file workloads.hpp
/// The three benchmark workloads and the run configuration they share.
///
/// Untraced runs produce the end-to-end metrics; traced runs (--trace 1)
/// produce the per-layer metrics from benchmark-side spans around calls
/// into each module's public functions (see profile.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "profile.hpp"
#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  std::string bin_dir;   ///< where fusecu_serve and fusecu_check were built
  std::string work_dir;  ///< scratch files of this run (port/stats files, traces)

  /// fusecu_serve flags (besides --listen/--port-file/--stats*).
  std::vector<std::string> server_flags;
  double warm_rate = 0.0;  ///< fixed offered rate of serve_warm, requests/s
  double cold_rate = 0.0;
  std::vector<double> warm_ladder;  ///< capacity ladder rungs, requests/s
  std::vector<double> cold_ladder;
  double p99_limit_us = 0.0;
};

/// Load-generator connections and run_conformance jobs: nproc (4) of the
/// machine the benchmark targets, so load plus server fit its cores.
constexpr int kConnections = 4;
constexpr int kSweepJobs = 4;

/// Set-ups timed per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 15;

/// What a run prints as its last line.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
};

Outcome run_serve(const Options& opts, bool warm);
Outcome run_check_sweep(const Options& opts);

/// True when re-checking \p w alone fails again on the same first check:
/// the harness's report of a failing trial is itself correct.
bool failure_reproduces(const fusecu::Workload& w, const fusecu::CheckReport& report);

/// The open-loop TCP part of a serve workload (serve_workload.cpp steps
/// 1-6).  With a tracer it sets up once, skips the ladder, and reports the
/// server's own counters and idle round trips instead of end-to-end
/// metrics.
Outcome serve_load(const Options& opts, bool warm, Tracer* tracer);

/// Shared end of a traced run: net.overhead_p50_us, the oracle attempts,
/// per-layer self time, and the trace written to \p path.
void finish_trace(const Tracer& tracer, const Attempts& oracle, const std::string& path,
                  Outcome& out);

}  // namespace perfbench
