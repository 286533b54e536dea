// Shared plumbing of the perfbench workloads: process accounting (CPU,
// RSS, threads), the open-loop clock, and PhaseResult, the raw numbers
// one measured phase of a workload produces.
#pragma once

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path of the traced phase
};

// ----- process accounting ------------------------------------------------

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

inline CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Threads this process runs now (the "Threads:" line of /proc).
inline int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

/// The CPUs the process started on (read once, before any pinning).
inline const cpu_set_t& initial_cpus() {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    (void)sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return initial;
}

/// CPUs this process may run on, as `nproc` reports them.
inline int usable_cpus() { return CPU_COUNT(&initial_cpus()); }

/// Peak of live_threads() over the samples taken.
class ThreadWatch {
 public:
  void sample() { peak_ = std::max(peak_, live_threads()); }
  [[nodiscard]] int peak() const { return peak_; }

 private:
  int peak_ = 0;
};

/// Sleeps of the open-loop generators wake within ~1 us of their
/// target instead of the default 50 us timer slack.
inline void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1000UL); }

inline void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t now = now_ns();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// ----- one measured phase ------------------------------------------------

/// Value of a workload's register writes: the origin in the high bits,
/// the origin's write counter below, so a read can be checked against
/// what was really written.
inline std::int64_t encode_value(std::size_t origin, std::uint64_t counter) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(origin + 1) << 40) |
                                   counter);
}
inline std::size_t value_origin(std::int64_t v) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(v) >> 40) - 1;
}
inline std::uint64_t value_counter(std::int64_t v) {
  return static_cast<std::uint64_t>(v) & ((std::uint64_t{1} << 40) - 1);
}

struct PhaseResult {
  double setup_s = 0.0;  ///< median of repeated set-ups
  double wall_s = 0.0;   ///< measured phase, first due op to last completion
  /// Duration of each unit op: an update() call, or an audit pass.
  std::vector<double> op_us;
  double updates = 0.0;       ///< updates completed in the phase
  double cpu_ops = 0.0;       ///< denominator of cpu_us_per_op
  CpuTimes cpu;               ///< process CPU spent in the phase
  double rss_mb = 0.0;

  // Workload-specific end-to-end numbers (empty / 0 where n/a).
  std::vector<double> get_us;
  std::vector<double> visible_ms;
  double wire_bytes = 0.0;
  double scenarios = 0.0;

  // Open-loop generator: each update's latency from its due time, and
  // how late the generator issued it.
  double offered_ops_per_s = 0.0;
  std::vector<double> due_us;
  std::vector<double> lag_us;

  int threads_peak = 0;
  /// Failed ops found by the correctness checks, per op class.
  OpTally tally;
  /// Failed checks that are not ops (drain, byte attribution, frames);
  /// each counts as one more failure.
  std::vector<std::string> problems;
  /// Why ops in `tally` failed, for the report.
  std::vector<std::string> notes;
  /// Per-layer counts the workload derives itself (names as reported).
  std::map<std::string, double> layer;

  void fail(std::string what) { problems.push_back(std::move(what)); }
  void note(std::string what) { notes.push_back(std::move(what)); }
};

}  // namespace perfbench
