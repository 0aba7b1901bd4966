#pragma once

/// \file tracer.hpp
/// The benchmark's own span recorder.  Spans are opened around calls into
/// the program's public functions (never inside the program), nest on one
/// thread, are held in memory and written out as a Chrome trace when the
/// run ends.  A span's layer is its name up to the first '.', e.g.
/// "principles.candidates" belongs to layer "principles"; a layer's self
/// time is the time its spans cover minus the part covered by their child
/// spans.  When disabled, a Span costs one branch.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
    int parent = -1;
    std::uint64_t trace = 0;    ///< id shared by the spans of one request
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  int open(const char* name);
  void close(int index);

  /// Durations (ns) of every closed span called \p name.
  std::vector<std::int64_t> durations(const std::string& name) const;
  /// Self time per layer, in ns, leaving out the spans named in \p skip.
  std::map<std::string, std::int64_t> self_ns_by_layer(
      const std::vector<std::string>& skip = {}) const;
  /// Chrome trace-event JSON ({"traceEvents":[...]}) of the first spans.
  void write_chrome_json(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> stack_;
  std::uint64_t next_trace_ = 1;
};

/// RAII span on a Tracer; inert when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

}  // namespace perfbench
