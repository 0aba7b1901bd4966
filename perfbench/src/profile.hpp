#pragma once

/// \file profile.hpp
/// In-process per-layer profiles for traced runs.  Each opens benchmark-side
/// spans (tracer.hpp) around calls into the program's public functions and
/// turns the span durations into per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

/// The request path on \p bodies (request bodies, see requests.hpp):
///   serve.decode      parse_plan_request
///   serve.canonical   canonical_intra_key / canonical_fused_key
///   principles.optimize_intra, fusion.optimize_fused_pair (direct calls)
///   principles.construct > principles.candidates + dataflow.evaluate_access
///                     (the optimizer's steps, replayed from public calls)
///   fusion.candidates fused_principle_candidates
///   serve.line_cold / serve.plan_hit / serve.line_warm
///                     PlanService::plan_line_json on a miss, plan on a hit,
///                     plan_line_json on a hit, on a fresh service per pass
/// The same passes also run with the tracer off, and the ratio of the two
/// wall times is obs.trace_overhead_frac.  A fixed number of passes, so the
/// layers' self times stay proportional to their cost per call.
void profile_request_path(const std::vector<std::string>& bodies, Tracer& tracer,
                          Metrics& metrics);

/// Trials checked, trials that found a disagreement, and whether every
/// reported disagreement reproduced when re-checked alone.
struct Attempts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool consistent = true;
};

/// The oracles on a fixed number of conformance trials derived from \p seed:
/// search.exhaustive_*, sim.execute_tiled, check.trial (check_workload, all
/// phases, one at a time), check.serve_phase (the serve-identity phase
/// alone) and a run_conformance sweep of the same trials at kSweepJobs for
/// check.serve_phase_share.
Attempts profile_oracles(std::uint64_t seed, Tracer& tracer, Metrics& metrics);

/// <layer>.self_frac for every layer: its self time over all span time.
/// check.trial and check.serve_phase wrap whole check_workload calls whose
/// search, sim and serve work has no spans of its own, so they are left out.
void add_self_time(const Tracer& tracer, Metrics& metrics);

}  // namespace perfbench
