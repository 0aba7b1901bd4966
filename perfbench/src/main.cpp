// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload serve_warm|serve_cold|check_sweep --seed N
//                    --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//                    --server-flags "FLAGS" --warm-rate R --cold-rate R
//                    --warm-ladder R1,R2,... --cold-ladder R1,R2,...
//                    --p99-limit-us US
//
// Human-readable progress lines go to stdout; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.  Exit status 0
// when every answer was correct, 1 when any was wrong, lost or reordered,
// 2 on a usage or set-up error (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string part; std::getline(ss, part, sep);) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

std::vector<double> parse_rates(const std::string& text) {
  std::vector<double> out;
  for (const std::string& part : split(text, ',')) out.push_back(std::stod(part));
  return out;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto need = [&](const char* name) -> const std::string& {
    const auto it = args.find(name);
    if (it == args.end()) {
      std::cerr << "perfbench_runner: missing --" << name << "\n";
      std::exit(2);
    }
    return it->second;
  };
  try {
    Options opts;
    opts.workload = need("workload");
    opts.seed = std::stoull(need("seed"));
    opts.seconds = std::stod(need("seconds"));
    opts.trace = need("trace") == "1";
    opts.bin_dir = need("bin-dir");
    opts.work_dir = need("work-dir");
    opts.server_flags = split(need("server-flags"), ' ');
    opts.warm_rate = std::stod(need("warm-rate"));
    opts.cold_rate = std::stod(need("cold-rate"));
    opts.warm_ladder = parse_rates(need("warm-ladder"));
    opts.cold_ladder = parse_rates(need("cold-ladder"));
    opts.p99_limit_us = std::stod(need("p99-limit-us"));
    if (opts.seconds <= 0 || opts.warm_ladder.empty() || opts.cold_ladder.empty()) {
      std::cerr << "perfbench_runner: --seconds and both ladders must be positive\n";
      return 2;
    }

    Outcome out;
    if (opts.workload == "serve_warm") {
      out = run_serve(opts, true);
    } else if (opts.workload == "serve_cold") {
      out = run_serve(opts, false);
    } else if (opts.workload == "check_sweep") {
      out = run_check_sweep(opts);
    } else {
      std::cerr << "perfbench_runner: unknown workload " << opts.workload << "\n";
      return 2;
    }
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
}
