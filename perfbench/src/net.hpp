#pragma once

/// \file net.hpp
/// The benchmark's TCP client side: a plain blocking-style connection for
/// probes and idle round trips, and the open-loop load generator.
///
/// The generator runs on one thread over a fixed set of connections.
/// Request i is due at start + i / rate and goes out on connection
/// i % connections whether or not earlier responses came back, so a slow
/// server grows queueing delay instead of slowing the offered load.  Every
/// latency is measured from the request's due time, and the generator's own
/// lateness (send - due) is recorded per request.  Waits use epoll_pwait2
/// with nanosecond timeouts and a 1 us timer slack, so the generator paces
/// to within tens of microseconds without spinning a core.
///
/// Responses on a connection must come back in request order: each one is
/// matched against the FIFO of that connection's in-flight requests and
/// must start with the same `{"id":"..."` prefix.  The rest of the line is
/// hashed so the caller can compare it with the in-process answer.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send \p line plus '\n' and wait for one response line (without its
  /// newline).  Throws when the deadline (now_ns clock) passes or the peer
  /// closes.
  std::string round_trip(const std::string& line, std::int64_t deadline_ns);

 private:
  int fd_ = -1;
  std::string inbuf_;
};

/// Outcome of one open-loop phase; vectors are indexed by request.
struct PhaseResult {
  double rate = 0.0;
  std::int64_t count = 0;
  std::int64_t answered = 0;
  std::int64_t lost = 0;        ///< never answered before the drain deadline
  std::int64_t misordered = 0;  ///< response id did not match the FIFO head
  std::int64_t shed = 0;        ///< ok=false "overloaded" responses
  std::int64_t expired = 0;     ///< ok=false server timeouts (deadline, watchdog)
  std::int64_t errors = 0;      ///< other ok=false responses
  std::vector<std::int64_t> latency_ns;     ///< receive - due; -1 when lost
  std::vector<std::int64_t> late_ns;        ///< send - due
  std::vector<std::uint64_t> suffix_hash;   ///< hash of the bytes after the id
  std::vector<std::uint8_t> bad;            ///< 1: misordered, lost or ok=false
  double seconds = 0.0;                     ///< first due to last response

  /// Per-request latencies with every bad request as a +infinity stand-in:
  /// a failed, shed or lost request misses every limit.
  std::vector<std::int64_t> latencies_with_misses() const;

  /// Quantile \p q of the latencies with misses, taken separately over
  /// \p windows consecutive equal slices of the phase (equal spans of due
  /// time), in microseconds.
  std::vector<double> window_quantiles_us(int windows, double q) const;
};

class LoadGen {
 public:
  LoadGen(std::uint16_t port, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Send \p count requests at \p rate per second; \p line_of(i) is request
  /// i's line without newline.  Returns once every request is answered or
  /// \p drain_ns passed after the last due time.
  PhaseResult run(double rate, std::int64_t count,
                  const std::function<const std::string&(std::int64_t)>& line_of,
                  std::int64_t drain_ns = 5'000'000'000);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool want_write = false;
    bool closed = false;
    struct Pending {
      std::int64_t index;
      std::string prefix;
    };
    std::deque<Pending> inflight;
  };

  void flush(Conn& c);
  void read_responses(Conn& c, PhaseResult& result, std::int64_t due0, double interval_ns);
  void set_write_interest(Conn& c, bool on);

  int epfd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
