#include "server.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net.hpp"
#include "util.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Integer following \p key in \p text (e.g. key "shed "), or 0.
std::int64_t int_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.rfind(key);
  if (at == std::string::npos) return 0;
  return std::strtoll(text.c_str() + at + key.size(), nullptr, 10);
}

double double_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.rfind(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                             const std::string& work_dir)
    : port_file_(work_dir + "/port"),
      stats_file_(work_dir + "/stats"),
      stderr_file_(work_dir + "/stderr") {
  ::unlink(port_file_.c_str());
  std::vector<std::string> args{binary, "--listen", "127.0.0.1:0", "--port-file", port_file_,
                                "--stats", "--stats-interval", "1", "--stats-out", stats_file_};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_file_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  spawn_ns_ = now_ns();
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double ServerProcess::wait_ready(const std::string& probe_line) {
  const std::int64_t deadline = spawn_ns_ + 20'000'000'000;
  while (port_ == 0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before listening: " + read_file(stderr_file_));
    }
    // The port file is complete once it ends in a newline.
    const std::string text = read_file(port_file_);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoi(text));
      break;
    }
    if (now_ns() > deadline) throw std::runtime_error("server wrote no port file");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Connection probe(port_);
  probe.round_trip(probe_line, deadline);
  return static_cast<double>(now_ns() - spawn_ns_) / 1e9;
}

double ServerProcess::peak_rss_mb() const {
  return static_cast<double>(int_after(read_file("/proc/" + std::to_string(pid_) + "/status"),
                                       "VmHWM:")) /
         1024.0;
}

ServerReport ServerProcess::stop() {
  ServerReport report;
  if (pid_ <= 0) return report;
  ::kill(pid_, SIGTERM);
  int status = 0;
  struct rusage usage {};
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  pid_t got = 0;
  while ((got = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (got == 0) {
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  report.exited_cleanly = got == 0 ? false : (WIFEXITED(status) && WEXITSTATUS(status) == 0);
  report.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // "drained: N responses over C connections; shed S, parse errors P,
  //  deadline expired D, ..." and "served N requests; cache hits H, misses
  //  M, evictions E, entries X; single-flight shared F".
  const std::string err = read_file(stderr_file_);
  report.responses = int_after(err, "drained: ");
  report.shed = int_after(err, "; shed ");
  report.deadline_expired = int_after(err, "deadline expired ");
  report.cache_hits = int_after(err, "cache hits ");
  report.cache_misses = int_after(err, ", misses ");
  report.evictions = int_after(err, ", evictions ");
  report.single_flight_shared = int_after(err, "single-flight shared ");
  // The stats lines are cumulative in their percentiles; the last one
  // covers the whole run.
  report.qdelay_p95_us = double_after(read_file(stats_file_), "qdelay_p95_us=");
  return report;
}

}  // namespace perfbench
