// The benchmark's own tests: each workload is what BENCHMARK.json says it is.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "requests.hpp"
#include "serve/plan_service.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

std::vector<std::string> serve(fusecu::PlanService& service,
                               const std::vector<std::string>& lines) {
  std::stringstream in;
  for (const std::string& l : lines) in << l << '\n';
  std::stringstream out;
  service.serve_stream(in, out, "<test>");
  std::vector<std::string> responses;
  for (std::string r; std::getline(out, r);) responses.push_back(r);
  return responses;
}

std::vector<std::string> warm_lines(std::uint64_t seed, int n) {
  WarmStream stream(seed);
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    lines.push_back(request_line('w', i, stream.bodies()[stream.shape_of(i)]));
  }
  return lines;
}

std::vector<std::string> cold_lines(std::uint64_t seed, int n) {
  ColdStream stream(seed);
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) lines.push_back(request_line('c', i, stream.body(i)));
  return lines;
}

TEST(Workloads, SameSeedSameRequestBytes) {
  EXPECT_EQ(warm_lines(7, 2000), warm_lines(7, 2000));
  EXPECT_EQ(cold_lines(7, 2000), cold_lines(7, 2000));
  EXPECT_NE(warm_lines(7, 2000), warm_lines(8, 2000));
  EXPECT_NE(cold_lines(7, 2000), cold_lines(8, 2000));
}

TEST(Workloads, ColdNeverRepeatsACanonicalKey) {
  ColdStream stream(3);
  std::unordered_set<std::string> seen;
  int fused = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string& body = stream.body(i);
    fused += body.find("fused_pair") != std::string::npos ? 1 : 0;
    for (const std::string& id : cache_identities(body)) {
      EXPECT_TRUE(seen.insert(id).second) << "request " << i << " repeats " << id;
    }
  }
  EXPECT_EQ(fused, 5000);  // every fourth request is a fused pair
}

TEST(Workloads, ColdMissesEveryRequest) {
  const std::vector<std::string> lines = cold_lines(11, 4000);
  fusecu::PlanService service;
  const std::vector<std::string> responses = serve(service, lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    EXPECT_NE(r.find("\"cached\":false"), std::string::npos) << r;
  }
  // Fused planning looks up its operators' plans twice, so a few internal
  // lookups hit; the requests themselves never do.
  const fusecu::CacheStats all = service.stats().combined();
  EXPECT_LT(static_cast<double>(all.hits) / static_cast<double>(all.hits + all.misses), 0.01);
}

TEST(Workloads, WarmHitsAfterWarmUp) {
  WarmStream stream(5);
  std::vector<std::string> prime;
  for (std::size_t u = 0; u < stream.bodies().size(); ++u) {
    prime.push_back(request_line('p', u, stream.bodies()[u]));
  }
  fusecu::ServeOptions options;
  options.cache_bytes = 1 << 20;  // the benchmark's --cache-mb 1
  fusecu::PlanService service(options);
  for (const std::string& r : serve(service, prime)) {
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
  }
  const fusecu::CacheStats before = service.stats().combined();
  const std::vector<std::string> responses = serve(service, warm_lines(5, 20000));
  const fusecu::CacheStats after = service.stats().combined();
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("\"cached\":true"), std::string::npos) << r;
  }
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  EXPECT_GE(hits / (hits + misses), 0.99);
  EXPECT_EQ(after.evictions, 0);
}

TEST(Workloads, WarmShapesComeFromTableTwo) {
  const std::vector<std::string> bodies = warm_bodies();
  std::set<std::string> ops;
  for (const std::string& b : bodies) ops.insert(b.substr(0, b.find(",\"m\"")));
  EXPECT_EQ(ops.size(), 2u);  // matmul and fused_pair
  EXPECT_GT(bodies.size(), 100u);
}

TEST(Tracer, SelfTimeSplitsNestedSpans) {
  Tracer tracer(true);
  {
    Span root(tracer, "serve.request");
    Span child(tracer, "principles.optimize_intra");
  }
  const std::int64_t root = tracer.durations("serve.request").at(0);
  const std::int64_t child = tracer.durations("principles.optimize_intra").at(0);
  const auto self = tracer.self_ns_by_layer();
  EXPECT_EQ(self.at("principles"), child);
  EXPECT_EQ(self.at("serve"), root - child);
}

}  // namespace
}  // namespace perfbench
