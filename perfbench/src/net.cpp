#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util.hpp"

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Wait up to \p timeout_ns (0 = poll) on \p epfd.
int wait_events(int epfd, epoll_event* events, int max, std::int64_t timeout_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int n = ::epoll_pwait2(epfd, events, max, &ts, nullptr);
  if (n < 0 && errno != EINTR) {
    throw std::runtime_error(std::string("epoll: ") + std::strerror(errno));
  }
  return n < 0 ? 0 : n;
}

}  // namespace

Connection::Connection(std::uint16_t port) : fd_(connect_loopback(port)) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Connection::round_trip(const std::string& line, std::int64_t deadline_ns) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    if (now_ns() > deadline_ns) throw std::runtime_error("send timed out");
  }
  char buf[65536];
  for (;;) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string response = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      return response;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno != EAGAIN && errno != EINTR) {
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    const std::int64_t left_ns = deadline_ns - now_ns();
    if (left_ns <= 0) throw std::runtime_error("no response before the deadline");
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(left_ns / 1'000'000 + 1, 1000)));
  }
}

std::vector<std::int64_t> PhaseResult::latencies_with_misses() const {
  std::vector<std::int64_t> out;
  out.reserve(latency_ns.size());
  for (std::size_t i = 0; i < latency_ns.size(); ++i) {
    out.push_back(bad[i] != 0 || latency_ns[i] < 0 ? std::numeric_limits<std::int64_t>::max()
                                                   : latency_ns[i]);
  }
  return out;
}

std::vector<double> PhaseResult::window_quantiles_us(int windows, double q) const {
  std::vector<double> out = window_quantiles(latencies_with_misses(), windows, q);
  for (double& v : out) v /= 1e3;
  return out;
}

LoadGen::LoadGen(std::uint16_t port, int connections) {
  // Nanosecond timeouts are only as precise as the thread's timer slack
  // (50 us by default).
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error(std::string("epoll_create1: ") + std::strerror(errno));
  conns_.resize(static_cast<std::size_t>(connections));
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    conns_[i].fd = connect_loopback(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

void LoadGen::set_write_interest(Conn& c, bool on) {
  if (c.want_write == on) return;
  c.want_write = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size() && !c.closed) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && errno == EAGAIN) {
      break;
    } else {
      c.closed = true;
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  set_write_interest(c, !c.out.empty() && !c.closed);
}

void LoadGen::read_responses(Conn& c, PhaseResult& result, std::int64_t due0,
                             double interval_ns) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      c.closed = true;
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      if (errno != EAGAIN) c.closed = true;
      break;
    }
  }
  const std::int64_t now = now_ns();
  std::size_t start = 0;
  for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
    const std::string_view line(c.in.data() + start, nl - start);
    if (c.inflight.empty()) {
      ++result.misordered;  // a response nobody asked for
      continue;
    }
    const Conn::Pending p = std::move(c.inflight.front());
    c.inflight.pop_front();
    const std::size_t i = static_cast<std::size_t>(p.index);
    ++result.answered;
    result.latency_ns[i] = now - (due0 + static_cast<std::int64_t>(static_cast<double>(p.index) *
                                                                   interval_ns));
    if (line.size() <= p.prefix.size() || line.compare(0, p.prefix.size(), p.prefix) != 0 ||
        line[p.prefix.size()] != ',') {
      ++result.misordered;
      result.bad[i] = 1;
      continue;
    }
    const std::string_view suffix = line.substr(p.prefix.size());
    result.suffix_hash[i] = hash64(suffix);
    if (suffix.find("\"ok\":false") != std::string_view::npos) {
      result.bad[i] = 1;
      if (suffix.find("overloaded") != std::string_view::npos) {
        ++result.shed;
      } else if (suffix.find("deadline exceeded") != std::string_view::npos ||
                 suffix.find("timed_out") != std::string_view::npos) {
        ++result.expired;
      } else {
        ++result.errors;
      }
    }
  }
  c.in.erase(0, start);
}

PhaseResult LoadGen::run(double rate, std::int64_t count,
                         const std::function<const std::string&(std::int64_t)>& line_of,
                         std::int64_t drain_ns) {
  PhaseResult result;
  result.rate = rate;
  result.count = count;
  result.latency_ns.assign(static_cast<std::size_t>(count), -1);
  result.late_ns.assign(static_cast<std::size_t>(count), 0);
  result.suffix_hash.assign(static_cast<std::size_t>(count), 0);
  result.bad.assign(static_cast<std::size_t>(count), 0);
  const double interval_ns = 1e9 / rate;
  // Start slightly in the future so request 0 is not born late.
  const std::int64_t due0 = now_ns() + 100'000;
  const auto due = [&](std::int64_t i) {
    return due0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  const std::int64_t last_due = count > 0 ? due(count - 1) : due0;
  epoll_event events[16];
  std::int64_t next = 0;
  std::int64_t now = now_ns();
  for (;;) {
    // Send everything that is due, then flush each touched connection once.
    bool any = false;
    while (next < count && due(next) <= now) {
      Conn& c = conns_[static_cast<std::size_t>(next % static_cast<std::int64_t>(conns_.size()))];
      const std::string& line = line_of(next);
      c.inflight.push_back({next, line.substr(0, line.find(','))});
      c.out += line;
      c.out += '\n';
      result.late_ns[static_cast<std::size_t>(next)] = now - due(next);
      ++next;
      any = true;
    }
    if (any) {
      for (Conn& c : conns_) {
        if (!c.out.empty()) flush(c);
      }
    }
    if (next == count && result.answered >= count) break;
    now = now_ns();
    if (next == count && now > last_due + drain_ns) break;
    bool dead = false;
    for (const Conn& c : conns_) dead = dead || c.closed;
    if (dead && next == count) break;

    const std::int64_t timeout = next < count ? std::max<std::int64_t>(0, due(next) - now)
                                              : 1'000'000;
    const int n = wait_events(epfd_, events, 16, timeout);
    for (int e = 0; e < n; ++e) {
      Conn& c = conns_[events[e].data.u64];
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        read_responses(c, result, due0, interval_ns);
      }
      if (events[e].events & EPOLLOUT) flush(c);
    }
    now = now_ns();
  }
  for (Conn& c : conns_) {
    result.lost += static_cast<std::int64_t>(c.inflight.size());
    for (const Conn::Pending& p : c.inflight) result.bad[static_cast<std::size_t>(p.index)] = 1;
    c.inflight.clear();
  }
  result.seconds = static_cast<double>(now_ns() - due0) / 1e9;
  return result;
}

}  // namespace perfbench
