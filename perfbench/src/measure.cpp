#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "perfbench.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

cpu_set_t current_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
  return set;
}

/// The CPUs the process started with: captured by the first CpuScope, before
/// any scope changes them.
const cpu_set_t& start_cpus() {
  static const cpu_set_t set = current_cpus();
  return set;
}

bool set_cpus(const cpu_set_t& set) {
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// 1-based nearest rank of the pct-th percentile in a sample of n.
size_t nearest_rank(size_t n, unsigned pct) {
  const size_t r = (static_cast<size_t>(pct) * n + 99) / 100;
  return std::max<size_t>(r, 1);
}

}  // namespace

CpuScope::CpuScope(unsigned cpus) : prev_(sizeof(cpu_set_t)) {
  const cpu_set_t& all = start_cpus();
  const cpu_set_t prev = current_cpus();
  std::memcpy(prev_.data(), &prev, sizeof prev);
  const auto have = static_cast<unsigned>(CPU_COUNT(&all));
  if (cpus == 0 || cpus >= have) {
    cpus_ = set_cpus(all) ? have : static_cast<unsigned>(CPU_COUNT(&prev));
    return;
  }
  cpu_set_t some;
  CPU_ZERO(&some);
  unsigned taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < cpus; --c)
    if (CPU_ISSET(c, &all)) {
      CPU_SET(c, &some);
      ++taken;
    }
  cpus_ = set_cpus(some) ? cpus : static_cast<unsigned>(CPU_COUNT(&prev));
}

CpuScope::~CpuScope() {
  cpu_set_t prev;
  std::memcpy(&prev, prev_.data(), sizeof prev);
  set_cpus(prev);
}

namespace {

bool write_all(int fd, const void* p, size_t n) {
  const auto* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, b, n);
    if (k <= 0) return false;
    b += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* p, size_t n) {
  auto* b = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::read(fd, b, n);
    if (k <= 0) return false;
    b += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

}  // namespace

HostSpeed::HostSpeed() {
  int to[2];
  int from[2];
  if (::pipe(to) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(from) != 0) {
    ::close(to[0]);
    ::close(to[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, to[0], 0);
  posix_spawn_file_actions_adddup2(&fa, from[1], 1);
  for (int fd : {to[0], to[1], from[0], from[1]}) posix_spawn_file_actions_addclose(&fa, fd);
  char exe[] = "/proc/self/exe";
  char flag[] = "--reference";
  char* argv[] = {exe, flag, nullptr};
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, exe, &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(to[0]);
  ::close(from[1]);
  to_helper_ = to[1];
  from_helper_ = from[0];
  if (rc != 0) {
    ::close(to_helper_);
    ::close(from_helper_);
    throw std::runtime_error("could not start the reference helper");
  }
  pid_ = pid;
}

HostSpeed::~HostSpeed() {
  ::close(to_helper_);  // end of input: the helper returns
  ::close(from_helper_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double HostSpeed::sample() {
  const char go = 1;
  double us[kRepeats] = {};
  for (double& u : us)
    if (!write_all(to_helper_, &go, 1) || !read_all(from_helper_, &u, sizeof u))
      throw std::runtime_error("the reference helper stopped");
  std::sort(std::begin(us), std::end(us));
  return us[kRepeats / 2];
}

int reference_helper() {
  std::vector<uint32_t> data;
  uint32_t x = 0x9E3779B9u;
  for (int i = 0; i < 16384; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    data.push_back(x);
  }
  uint64_t sink = 0;
  char go = 0;
  while (read_all(0, &go, 1)) {
    const int64_t t0 = now_ns();
    std::unordered_map<uint32_t, uint32_t> m;
    for (uint32_t i = 0; i < 8192; ++i) m[data[i]] = i;
    for (uint32_t v : data)
      if (const auto it = m.find(v); it != m.end()) sink += it->second;
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    if (!write_all(1, &us, sizeof us)) break;
  }
  // The exit status depends on every probe, so none is optimized away; the
  // status itself is not read.
  return sink == 1 ? 1 : 0;
}

double percentile(std::vector<double> v, unsigned pct) {
  if (v.empty()) return 0.0;
  const size_t r = std::min(nearest_rank(v.size(), pct), v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(r - 1), v.end());
  return v[r - 1];
}

size_t samples_beyond(size_t n, unsigned pct) {
  if (n == 0) return 0;
  return n - std::min(nearest_rank(n, pct), n);
}

bool tail_supported(size_t n, unsigned pct) { return samples_beyond(n, pct) >= 10; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
