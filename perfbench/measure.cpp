#include "measure.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<double> Samples::percentile(double q) const {
  const std::size_t n = values_.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));  // 1-based nearest rank
  const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = q < 0.5 ? k - 1 : n - k;
  if (beyond < 10) return std::nullopt;
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   sorted.end());
  return sorted[k - 1];
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

ThreadClock read_thread_clock(int tid) {
  ThreadClock c;
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    unsigned long long run_ns = 0, wait_ns = 0;
    if (in >> run_ns >> wait_ns) {
      c.cpu_us = static_cast<double>(run_ns) / 1e3;
      c.runq_us = static_cast<double>(wait_ns) / 1e3;
    }
  }
  {
    std::ifstream in(base + "/stat");
    std::string line;
    std::getline(in, line);
    // Fields after the parenthesised command name: state is field 3,
    // utime 14, stime 15 (1-based, per proc(5)).
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 15) {
          c.sys_us = std::strtod(field.c_str(), nullptr) * 1e6 /
                     static_cast<double>(::sysconf(_SC_CLK_TCK));
        }
      }
    }
  }
  return c;
}

ThreadClock read_other_threads(int tid) {
  ThreadClock total;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return total;
  while (const dirent* entry = ::readdir(dir)) {
    const int other = std::atoi(entry->d_name);
    if (other <= 0 || other == tid) continue;
    const ThreadClock c = read_thread_clock(other);
    total.cpu_us += c.cpu_us;
    total.sys_us += c.sys_us;
    total.runq_us += c.runq_us;
  }
  ::closedir(dir);
  return total;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

namespace {
int cpu_rotation = 0;
}  // namespace

void rotate_cpus(int offset) { cpu_rotation = offset; }

void pin_to_cpu(int rank_from_top) {
  // The process's allowed set, captured before the first pin narrows the
  // calling thread's own mask.
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.empty()) return;
  const auto n = static_cast<int>(allowed.size());
  const int cpu = allowed[static_cast<std::size_t>(
      n - 1 - ((rank_from_top + cpu_rotation) % n))];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

double SpanLog::sum_us(const std::string& name, u64 lo, u64 hi) const {
  double total = 0;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    const u64 a = std::max(s.start_ns, lo);
    const u64 b = std::min(s.end_ns, hi);
    if (b > a) total += static_cast<double>(b - a) / 1e3;
  }
  return total;
}

namespace {

/// The role a slice of `thread` is booked to.
const char* role_of(const std::string& thread) {
  if (thread == "systemc" || thread == "channel") return "board.comm";
  if (thread == "idle" || thread.rfind("idle/", 0) == 0) return "board.idle";
  if (thread == "firmware") return "iss";
  return "board.app";
}

}  // namespace

void SliceTracker::attach(vhp::rtos::Kernel& kernel) {
  kernel.set_switch_trace([this, &kernel](const vhp::rtos::Thread& next) {
    on_dispatch(kernel, next);
  });
}

void SliceTracker::on_dispatch(const vhp::rtos::Kernel& kernel,
                               const vhp::rtos::Thread& next) {
  const u64 now = now_ns();
  if (role_ != nullptr &&
      (owns_thread_ || std::strcmp(role_, "board.idle") != 0)) {
    log_.add(role_, start_ns_, now, -1, quantum_);
  }
  auto it = roles_.find(&next);
  if (it == roles_.end()) {
    it = roles_.emplace(&next, role_of(next.name())).first;
  }
  role_ = it->second;
  start_ns_ = now;
  quantum_ = kernel.stats().grants;
}

void RepResult::add_thread(const std::string& role, const ThreadClock& begin,
                           const ThreadClock& end) {
  totals["host." + role + ".cpu_us"] += end.cpu_us - begin.cpu_us;
  totals["host." + role + ".sys_us"] += end.sys_us - begin.sys_us;
  totals["host." + role + ".runq_us"] += end.runq_us - begin.runq_us;
}

std::string digest_hash(const std::map<std::string, u64>& d) {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [key, value] : d) mix(key + "=" + std::to_string(value) + ";");
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
