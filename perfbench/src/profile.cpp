#include "profile.hpp"

#include <algorithm>

#include "check/harness.hpp"
#include "dataflow/access_model.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/principle_optimizer.hpp"
#include "requests.hpp"
#include "search/exhaustive.hpp"
#include "serve/canonical.hpp"
#include "serve/plan_request.hpp"
#include "serve/plan_service.hpp"
#include "sim/tiled_executor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fusecu;

namespace {

/// Keeps a result alive so the call producing it is not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

struct CandidateCounts {
  std::int64_t intra_calls = 0;
  std::int64_t intra_candidates = 0;
  std::int64_t fused_calls = 0;
  std::int64_t fused_candidates = 0;
};

/// Decode, canonicalize and plan every body with direct optimizer calls
/// (no PlanService alive, so no interceptor answers from a cache).
void direct_pass(const std::vector<std::string>& lines, Tracer& t, CandidateCounts& counts) {
  for (const std::string& line : lines) {
    Span root(t, "serve.request");
    PlanRequest r;
    {
      Span s(t, "serve.decode");
      r = parse_plan_request(line);
    }
    if (r.kind == PlanRequest::Kind::kMatmul) {
      const TensorOp op = r.to_op();
      {
        Span s(t, "serve.canonical");
        keep(canonical_intra_key(op, r.buffer_elems));
      }
      {
        Span s(t, "principles.optimize_intra");
        keep(optimize_intra(op, r.buffer_elems));
      }
      Span construct(t, "principles.construct");
      std::vector<PrincipleCandidate> candidates;
      {
        Span s(t, "principles.candidates");
        candidates = principle_candidates(op, r.buffer_elems);
      }
      ++counts.intra_calls;
      counts.intra_candidates += static_cast<std::int64_t>(candidates.size());
      for (const PrincipleCandidate& c : candidates) {
        Span s(t, "dataflow.evaluate_access");
        keep(evaluate_access(op, c.dataflow));
      }
    } else {
      const FusedPair pair = r.to_pair();
      {
        Span s(t, "serve.canonical");
        keep(canonical_fused_key(pair, r.buffer_elems));
      }
      {
        Span s(t, "fusion.optimize_fused_pair");
        keep(optimize_fused_pair(pair, r.buffer_elems));
      }
      Span s(t, "fusion.candidates");
      const std::vector<FusedCandidate> candidates =
          fused_principle_candidates(pair, r.buffer_elems);
      ++counts.fused_calls;
      counts.fused_candidates += static_cast<std::int64_t>(candidates.size());
    }
  }
}

/// The same bodies through a fresh PlanService: a miss, a typed hit, then a
/// serialized hit on the spliced-suffix path (the first serialized hit,
/// which stores the suffix, is left out).
void service_pass(const std::vector<std::string>& lines, Tracer& t) {
  ServeOptions options;
  options.threads = 1;
  PlanService service(options);
  bool parse_error = false;
  for (const std::string& line : lines) {
    const PlanRequest request = parse_plan_request(line);
    Span root(t, "serve.request");
    {
      Span s(t, "serve.line_cold");
      keep(service.plan_line_json(line, "<bench>", 1, 0, &parse_error));
    }
    {
      Span s(t, "serve.plan_hit");
      keep(service.plan(request));
    }
    keep(service.plan_line_json(line, "<bench>", 1, 0, &parse_error));
    {
      Span s(t, "serve.line_warm");
      keep(service.plan_line_json(line, "<bench>", 1, 0, &parse_error));
    }
  }
}

double p(const std::vector<std::int64_t>& ns, double q, double scale) {
  return quantile(ns, q) / scale;
}

}  // namespace

void profile_request_path(const std::vector<std::string>& bodies, Tracer& tracer,
                          Metrics& metrics) {
  constexpr int kPasses = 15;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    lines.push_back(request_line('x', i, bodies[i]));
  }
  Tracer off(false);
  CandidateCounts counts;
  std::vector<double> off_s;
  std::vector<double> on_s;
  // Alternate untraced and traced passes over identical work.
  for (int pass = 0; pass < kPasses; ++pass) {
    for (Tracer* t : {&off, &tracer}) {
      CandidateCounts scratch;
      const std::int64_t start = now_ns();
      direct_pass(lines, *t, t == &tracer ? counts : scratch);
      service_pass(lines, *t);
      (t == &tracer ? on_s : off_s).push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
  }
  metrics["obs.trace_overhead_frac"] = {median(on_s) / median(off_s) - 1.0, "frac"};

  const auto d = [&](const char* name) { return tracer.durations(name); };
  metrics["serve.decode_p50_ns"] = {p(d("serve.decode"), 0.5, 1.0), "ns"};
  metrics["serve.canonical_p50_ns"] = {p(d("serve.canonical"), 0.5, 1.0), "ns"};
  metrics["serve.plan_hit_p50_us"] = {p(d("serve.plan_hit"), 0.5, 1e3), "us"};
  metrics["serve.line_warm_p50_us"] = {p(d("serve.line_warm"), 0.5, 1e3), "us"};
  metrics["serve.line_cold_p50_us"] = {p(d("serve.line_cold"), 0.5, 1e3), "us"};
  const std::vector<std::int64_t> intra = d("principles.optimize_intra");
  metrics["principles.optimize_intra_p50_us"] = {p(intra, 0.5, 1e3), "us"};
  metrics["principles.optimize_intra_p99_us"] = {p(intra, 0.99, 1e3), "us"};
  metrics["principles.candidates_p50_us"] = {p(d("principles.candidates"), 0.5, 1e3), "us"};
  metrics["principles.candidates_per_call"] = {
      counts.intra_calls > 0 ? static_cast<double>(counts.intra_candidates) /
                                   static_cast<double>(counts.intra_calls)
                             : 0.0,
      "count"};
  metrics["dataflow.evaluate_access_p50_ns"] = {p(d("dataflow.evaluate_access"), 0.5, 1.0),
                                                "ns"};
  metrics["fusion.optimize_fused_pair_p50_us"] = {p(d("fusion.optimize_fused_pair"), 0.5, 1e3),
                                                  "us"};
  metrics["fusion.candidates_per_call"] = {
      counts.fused_calls > 0 ? static_cast<double>(counts.fused_candidates) /
                                   static_cast<double>(counts.fused_calls)
                             : 0.0,
      "count"};
}

Attempts profile_oracles(std::uint64_t seed, Tracer& tracer, Metrics& metrics) {
  // The sweep runs the same trials in parallel as run_conformance does.
  constexpr int kTrials = 400;
  const std::uint64_t sweep_seed = seed ^ 0x0a11ce5ull;
  HarnessOptions sweep;
  sweep.seed = sweep_seed;
  sweep.trials = kTrials;
  sweep.jobs = kSweepJobs;
  sweep.shrink = false;
  const std::int64_t sweep_start = now_ns();
  const HarnessResult swept = run_conformance(sweep);
  const double sweep_s = static_cast<double>(now_ns() - sweep_start) / 1e9;

  CheckOptions serve_only;
  serve_only.phase = CheckPhase::kServeOnly;
  Attempts attempts{kTrials, swept.failed_trials, swept.trials_run == kTrials};
  for (const TrialFailure& f : swept.failures) {
    attempts.consistent = attempts.consistent && failure_reproduces(f.workload, f.report);
  }
  for (int trial = 0; trial < kTrials; ++trial) {
    const Workload w = workload_for_trial(sweep_seed, trial);
    CheckReport report;
    {
      Span s(tracer, "check.trial");
      report = check_workload(w);
    }
    ++attempts.attempted;
    if (!report.ok()) {
      ++attempts.failed;
      attempts.consistent = attempts.consistent && failure_reproduces(w, report);
    }
    {
      Span s(tracer, "check.serve_phase");
      keep(check_workload(w, serve_only));
    }
    Span root(tracer, "check.oracles");
    if (w.kind == WorkloadKind::kIntra) {
      const TensorOp op = w.intra_op();
      {
        Span s(tracer, "search.exhaustive_intra");
        keep(exhaustive_intra(op, w.bs));
      }
      // The executor runs array-sized tiles, as the conformance check does.
      constexpr Index kArray = 8;
      Dataflow df;
      df.loop_order = {0, 1, 2};
      Index visits = 1;
      for (int dim = 0; dim < 3; ++dim) {
        df.tile.push_back(std::min(op.extent(dim), kArray));
        visits *= df.trips(op, dim);
      }
      if (visits <= 2000) {
        const Matrix a(op.extent(0), op.extent(1), 1.0);
        const Matrix b(op.extent(1), op.extent(2), 0.5);
        ComputeUnit cu(kArray);
        Span s(tracer, "sim.execute_tiled");
        keep(execute_tiled(op, df, a, b, cu));
      }
    } else if (w.kind == WorkloadKind::kFused) {
      Span s(tracer, "search.exhaustive_fused");
      keep(exhaustive_fused(w.fused_pair(), w.bs));
    }
  }
  const auto d = [&](const char* name) { return tracer.durations(name); };
  // The share of the parallel sweep's wall time the serial serve phase of
  // the same trials takes.
  double serve_phase_s = 0.0;
  for (std::int64_t ns : d("check.serve_phase")) serve_phase_s += static_cast<double>(ns) / 1e9;
  metrics["check.serve_phase_share"] = {serve_phase_s / sweep_s, "frac"};
  metrics["search.exhaustive_intra_p50_ms"] = {p(d("search.exhaustive_intra"), 0.5, 1e6), "ms"};
  metrics["search.exhaustive_fused_p50_ms"] = {p(d("search.exhaustive_fused"), 0.5, 1e6), "ms"};
  metrics["sim.execute_tiled_p50_ms"] = {p(d("sim.execute_tiled"), 0.5, 1e6), "ms"};
  const std::vector<std::int64_t> trials = d("check.trial");
  metrics["check.trial_p50_ms"] = {p(trials, 0.5, 1e6), "ms"};
  metrics["check.trial_p99_ms"] = {p(trials, 0.99, 1e6), "ms"};
  return attempts;
}

void add_self_time(const Tracer& tracer, Metrics& metrics) {
  const std::map<std::string, std::int64_t> self =
      tracer.self_ns_by_layer({"check.trial", "check.serve_phase"});
  double total = 0.0;
  for (const auto& [layer, ns] : self) total += static_cast<double>(ns);
  for (const char* layer :
       {"net", "serve", "principles", "dataflow", "fusion", "search", "sim", "check"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
    metrics[std::string(layer) + ".self_frac"] = {total > 0.0 ? ns / total : 0.0, "frac"};
  }
}

}  // namespace perfbench
