#pragma once

/// \file requests.hpp
/// Seeded request streams for the serve workloads.  A request line is
/// `{"id":"<id>"` followed by a body (`,"op":...}`); the body is the shape,
/// the id only labels one send of it.
///
///  * serve_warm draws each request uniformly (seeded) from the Table II
///    layer shapes — every matmul of table2_models() lowered by
///    lower_layer(), plus the fused pair of every two-op chain — at four
///    buffer sizes, deduplicated by canonical plan-cache key.
///  * serve_cold draws every request as a new shape from check/gen: regime-
///    biased buffer sizes over all four buffer classes, every fourth request
///    a fused pair, and no canonical key ever repeated.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/gen.hpp"
#include "common/rng.hpp"

namespace perfbench {

/// `{"id":"<tag><n>"` + body.
std::string request_line(char tag, std::int64_t n, const std::string& body);

/// The `{"id":"<id>"` prefix every response to \p line must start with.
std::string id_prefix(const std::string& line);

/// Canonical plan-cache identities a request body touches: the canonical
/// key text plus the transpose slot for a matmul ("i|<key>|<slot>"); for a
/// fused pair its fused key ("f|<key>") and the intra identities of its two
/// operators, which fused planning looks up too.  Bodies that share an
/// identity are answered from one cache entry.
std::vector<std::string> cache_identities(const std::string& body);

/// The readiness probe: a 1x1x1 matmul no workload stream ever contains.
std::string probe_body();

/// The deduplicated Table II request shapes, in a fixed order.
std::vector<std::string> warm_bodies();

/// serve_warm: request i is warm_bodies()[pick(i)], pick drawn from \p seed.
class WarmStream {
 public:
  explicit WarmStream(std::uint64_t seed);
  const std::vector<std::string>& bodies() const { return bodies_; }
  /// Index into bodies() of request \p i (generated on demand, cached).
  std::size_t shape_of(std::int64_t i);

 private:
  std::vector<std::string> bodies_;
  fusecu::Rng rng_;
  std::vector<std::uint32_t> picks_;
};

/// serve_cold: request i is a never-repeated check/gen shape.
class ColdStream {
 public:
  /// Extent cap for generated shapes (Table II-sized operators).
  static constexpr fusecu::Index kMaxExtent = 4096;

  explicit ColdStream(std::uint64_t seed);
  /// Body of request \p i (generated on demand, cached).
  const std::string& body(std::int64_t i);
  std::int64_t generated() const { return static_cast<std::int64_t>(bodies_.size()); }

 private:
  fusecu::Rng rng_;
  fusecu::GenLimits limits_;
  std::vector<std::string> bodies_;
  std::unordered_set<std::string> seen_;
};

/// Adds \p body's identities to \p seen and returns true when none was
/// there yet.
bool claim_identities(std::unordered_set<std::string>& seen, const std::string& body);

/// Request body for a conformance workload (intra -> matmul, fused ->
/// fused_pair); empty for chains, which the wire format does not carry.
std::string body_for_workload(const fusecu::Workload& w);

}  // namespace perfbench
