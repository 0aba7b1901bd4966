#include "tracer.hpp"

#include <algorithm>

namespace perfbench {

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

int Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.trace = r.parent >= 0 ? records_[static_cast<std::size_t>(r.parent)].trace : next_trace_++;
  const int index = static_cast<int>(records_.size());
  records_.push_back(r);
  stack_.push_back(index);
  records_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end_ns = end;
  stack_.pop_back();
  if (r.parent >= 0) records_[static_cast<std::size_t>(r.parent)].child_ns += end - r.start_ns;
}

std::vector<std::int64_t> Tracer::durations(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const Record& r : records_) {
    if (r.end_ns != 0 && name == r.name) out.push_back(r.end_ns - r.start_ns);
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::self_ns_by_layer(
    const std::vector<std::string>& skip) const {
  std::map<std::string, std::int64_t> out;
  for (const Record& r : records_) {
    if (r.end_ns == 0 || std::find(skip.begin(), skip.end(), r.name) != skip.end()) continue;
    out[layer_of(r.name)] += (r.end_ns - r.start_ns) - r.child_ns;
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  // A traced run records a few hundred thousand spans; the first ones are
  // enough to look at and keep the file at a few megabytes.
  constexpr std::size_t kMaxWritten = 50000;
  os << "{\"traceEvents\":[";
  const std::int64_t epoch = records_.empty() ? 0 : records_.front().start_ns;
  bool first = true;
  for (std::size_t i = 0; i < std::min(records_.size(), kMaxWritten); ++i) {
    const Record& r = records_[i];
    if (r.end_ns == 0) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << r.name << "\",\"cat\":\"" << layer_of(r.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.start_ns - epoch) / 1000.0
       << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1000.0
       << ",\"args\":{\"trace\":" << r.trace << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
