#pragma once

/// \file server.hpp
/// One fusecu_serve child process: spawned with the benchmark's fixed
/// flags on an ephemeral loopback port, ready once its port file holds a
/// port and a probe request got its response, stopped by SIGTERM (the
/// server's graceful drain) and reaped with its resource usage.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Counters the server prints on stderr and in its stats file.
struct ServerReport {
  double peak_rss_mb = 0.0;
  std::int64_t responses = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_expired = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t evictions = 0;
  std::int64_t single_flight_shared = 0;
  double qdelay_p95_us = 0.0;
  bool exited_cleanly = false;
};

class ServerProcess {
 public:
  /// Spawn \p binary with \p flags; files go to \p work_dir.
  ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                const std::string& work_dir);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Block until the port file names a port and \p probe_line is answered
  /// on a fresh connection; returns seconds since spawn.  Throws on timeout
  /// or if the child exits.
  double wait_ready(const std::string& probe_line);

  std::uint16_t port() const { return port_; }

  /// The running server's peak resident set so far (VmHWM), in MB.
  double peak_rss_mb() const;

  /// SIGTERM, reap, parse the drain and stats output.
  ServerReport stop();

 private:
  pid_t pid_ = -1;
  std::int64_t spawn_ns_ = 0;
  std::uint16_t port_ = 0;
  std::string port_file_;
  std::string stats_file_;
  std::string stderr_file_;
};

}  // namespace perfbench
