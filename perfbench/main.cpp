// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out trace.json]
//
// --trace 0 measures the workload once with no spans recorded and
// reports the end-to-end metrics. --trace 1 measures it untraced, then
// again with a span around every call into a layer, and reports the
// per-layer metrics (from the traced phase), the workload-specific
// end-to-end numbers (from the untraced phase) and the tracing
// overhead (traced minus untraced) of every end-to-end number. A
// human-readable report goes first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "audit_workload.hpp"
#include "frontend_workload.hpp"
#include "harness.hpp"
#include "udp_workload.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Workload {
  const char* name;
  int threads;  ///< threads it runs, the main thread included
};

/// Spans written to the Chrome trace (about 130 bytes each); the
/// per-layer metrics use every span recorded.
constexpr std::size_t kMaxTraceSpans = 1'000'000;

constexpr Workload kWorkloads[] = {
    {"udp_clean", udp::kThreads},
    {"udp_lossy", udp::kThreads},
    {"frontend_mixed", frontend::kThreads},
    {"audit_fuzz", auditfz::kThreads},
};

PhaseResult run_workload(const Options& opt) {
  if (opt.workload == "udp_clean") return run_udp(opt, /*lossy=*/false);
  if (opt.workload == "udp_lossy") return run_udp(opt, /*lossy=*/true);
  if (opt.workload == "frontend_mixed") return run_frontend(opt);
  return run_audit(opt);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The end-to-end metrics every workload reports (BENCHMARK.json).
std::vector<Metric> end_to_end(const PhaseResult& r) {
  std::vector<double> ops = r.op_us;
  const Summary op = summarize(ops);
  return {
      {"setup_s", r.setup_s, "s"},
      {"update_ops_per_s", per(r.updates, r.wall_s), "1/s"},
      {"op_p50_us", op.p50, "us"},
      {"cpu_us_per_op", per((r.cpu.user_s + r.cpu.sys_s) * 1e6, r.cpu_ops), "us"},
      {"peak_rss_mb", r.rss_mb, "MB"},
  };
}

/// End-to-end numbers that apply to some workloads only (0 elsewhere)
/// or whose run-to-run spread is too wide to bound: reported, not
/// bounded.
std::vector<Metric> unbounded(const PhaseResult& r) {
  std::vector<double> gets = r.get_us;
  std::vector<double> vis = r.visible_ms;
  std::vector<double> due = r.due_us;
  return {
      {"update_p50_us", summarize(due).p50, "us"},
      {"update_p99_us", windowed_tail(r.due_us), "us"},
      {"op_tail_us", windowed_tail(r.op_us), "us"},
      {"get_ops_per_s", per(static_cast<double>(r.get_us.size()), r.wall_s), "1/s"},
      {"get_p50_us", summarize(gets).p50, "us"},
      {"get_p99_us", windowed_tail(r.get_us), "us"},
      {"visible_p50_ms", summarize(vis).p50, "ms"},
      {"visible_p99_ms", windowed_tail(r.visible_ms), "ms"},
      {"wire_bytes_per_update", per(r.wire_bytes, r.updates), "B/op"},
      {"audit_scenarios_per_s", per(r.scenarios, r.wall_s), "1/s"},
      {"failed_op_share", r.tally.failed_share(), "ratio"},
  };
}

/// The samples behind the timings: their count and the level the tail
/// rule picked for them.
std::vector<Metric> sample_sizes(const PhaseResult& r) {
  return {
      {"op_samples", static_cast<double>(r.op_us.size()), "count"},
      {"op_tail_pct", tail_level(r.op_us.size()), "pct"},
      {"update_tail_pct", r.due_us.empty() ? 0.0 : tail_level(r.due_us.size()), "pct"},
      {"get_tail_pct", r.get_us.empty() ? 0.0 : tail_level(r.get_us.size()), "pct"},
      {"visible_tail_pct",
       r.visible_ms.empty() ? 0.0 : tail_level(r.visible_ms.size()), "pct"},
  };
}

/// Every end-to-end number of a phase, bounded ones first.
std::vector<Metric> all_end_to_end(const PhaseResult& r) {
  std::vector<Metric> all = end_to_end(r);
  const std::vector<Metric> more = unbounded(r);
  all.insert(all.end(), more.begin(), more.end());
  return all;
}

/// Per-layer metrics of a traced phase: the workload's own counts plus
/// what the spans give.
std::vector<Metric> per_layer(const PhaseResult& t) {
  auto spans = SpanRecorder::global().durations();
  const auto self = SpanRecorder::global().self_ns_by_layer();
  const auto p50 = [&](const char* name) {
    return summarize(spans[name]).p50;
  };
  const auto tail = [&](const char* name) {
    return summarize(spans[name]).tail;
  };
  const auto mean_ms = [&](const char* name) {
    const auto& v = spans[name];
    double s = 0;
    for (const double d : v) s += d;
    return per(s, static_cast<double>(v.size())) / 1e6;
  };
  const auto layer = [&](const char* name) {
    const auto it = t.layer.find(name);
    return it == t.layer.end() ? 0.0 : it->second;
  };
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / 1e9;
  };
  std::vector<double> lag = t.lag_us;
  return {
      {"store.update_ns.p50", p50("store.update"), "ns"},
      {"store.update_ns.p99", tail("store.update"), "ns"},
      {"store.ring_cas_per_update", layer("store.ring_cas_per_update"), "ratio"},
      {"store.get_ns.p50", p50("store.get"), "ns"},
      {"store.get_ns.p99", tail("store.get"), "ns"},
      {"store.get_zero_copy_share", layer("store.get_zero_copy_share"), "ratio"},
      {"store.get_ryw_fallback_share", layer("store.get_ryw_fallback_share"), "ratio"},
      {"store.flush_ns.p50", p50("store.flush"), "ns"},
      {"store.flush_ns.p99", tail("store.flush"), "ns"},
      {"store.entries_per_flush", layer("store.entries_per_flush"), "ratio"},
      {"store.poll_ns.p99", tail("store.poll"), "ns"},
      {"store.envelopes_per_poll", layer("store.envelopes_per_poll"), "ratio"},
      {"store.log_entries_resident", layer("store.log_entries_resident"), "count"},
      {"store.self_s", self_s("store"), "s"},
      {"net.send_ns.p50", p50("net.send"), "ns"},
      {"net.send_ns.p99", tail("net.send"), "ns"},
      {"net.datagrams_per_update", layer("net.datagrams_per_update"), "ratio"},
      {"net.bytes.batch", layer("net.bytes.batch"), "B/op"},
      {"net.bytes.heartbeat", layer("net.bytes.heartbeat"), "B/op"},
      {"net.bytes.ae", layer("net.bytes.ae"), "B/op"},
      {"net.bytes.sync", layer("net.bytes.sync"), "B/op"},
      {"net.host_loss_share", layer("net.host_loss_share"), "ratio"},
      {"net.frames_rejected", layer("net.frames_rejected"), "count"},
      {"net.self_s", self_s("net"), "s"},
      {"wire.encode_ns_per_envelope", layer("wire.encode_ns_per_envelope"), "ns"},
      {"wire.decode_ns_per_envelope", layer("wire.decode_ns_per_envelope"), "ns"},
      {"wire.bytes_per_entry", layer("wire.bytes_per_entry"), "B"},
      {"wire.self_s", self_s("wire"), "s"},
      {"recovery.stream_gaps", layer("recovery.stream_gaps"), "count"},
      {"recovery.ae_rounds_completed", layer("recovery.ae_rounds_completed"), "count"},
      {"recovery.ae_round_ns.p99", tail("recovery.ae_round"), "ns"},
      {"recovery.repair_bytes_per_update", layer("recovery.repair_bytes_per_update"), "B/op"},
      {"recovery.drain_s", layer("recovery.drain_s"), "s"},
      {"recovery.self_s", self_s("recovery"), "s"},
      {"runtime.sim_ms_per_scenario", mean_ms("runtime.sim"), "ms"},
      {"runtime.self_s", self_s("runtime"), "s"},
      {"audit.certify_ms_per_scenario", mean_ms("audit.certify"), "ms"},
      {"audit.shrink_ms_per_mutant", mean_ms("audit.shrink"), "ms"},
      {"audit.shrink_replays", layer("audit.shrink_replays"), "count"},
      {"audit.ops_per_scenario", layer("audit.ops_per_scenario"), "count"},
      {"audit.self_s", self_s("audit"), "s"},
      {"proc.user_cpu_s", t.cpu.user_s, "s"},
      {"proc.sys_cpu_s", t.cpu.sys_s, "s"},
      {"proc.threads", static_cast<double>(t.threads_peak), "count"},
      {"proc.nproc", static_cast<double>(usable_cpus()), "count"},
      {"gen.offered_ops_per_s", t.offered_ops_per_s, "1/s"},
      {"gen.lag_p50_us", summarize(lag).p50, "us"},
      {"gen.lag_p99_us", windowed_tail(t.lag_us), "us"},
      {"gen.self_s", self_s("gen"), "s"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
}

void print_overhead(const std::vector<Metric>& untraced,
                    const std::vector<Metric>& traced) {
  std::cout << "tracing overhead (traced - untraced)\n";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::printf("  %-36s %18.6f %18.6f %18.6f %s\n", untraced[i].name.c_str(),
                untraced[i].value, traced[i].value,
                traced[i].value - untraced[i].value, untraced[i].unit.c_str());
  }
  std::fflush(stdout);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Failures of a phase; also enforces the thread budget.
std::uint64_t check(PhaseResult& r, const char* phase, int nproc) {
  if (r.threads_peak > nproc) {
    r.fail("ran " + std::to_string(r.threads_peak) + " threads on " +
           std::to_string(nproc) + " CPUs");
  }
  for (const std::string& p : r.problems) {
    std::cerr << "perfbench: " << phase << " check failed: " << p << "\n";
  }
  for (const std::string& n : r.notes) {
    std::cerr << "perfbench: " << phase << " ops failed: " << n << "\n";
  }
  return r.tally.failed + r.problems.size();
}

int usage() {
  std::cerr << "usage: perfbench --workload udp_clean|udp_lossy|frontend_mixed|"
               "audit_fuzz --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n";
  return 2;
}

/// Parses the flags into `opt`; false on anything malformed.
bool parse(int argc, char** argv, Options* opt) {
  if (argc % 2 != 1) return false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt->workload = value;
      } else if (flag == "--seed") {
        opt->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        opt->trace = value == "1";
      } else if (flag == "--trace-out") {
        opt->trace_out = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {  // stoull/stod: not a number
    return false;
  }
  return opt->seconds > 0 && opt->seconds <= 120;
}

int run(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return usage();
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (opt.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage();

  // Thread budget: a workload that would run more threads than there
  // are CPUs measures the scheduler, not the store.
  const int nproc = usable_cpus();
  std::cout << "perfbench " << w->name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " nproc=" << nproc << " threads=" << w->threads << "\n";
  if (w->threads > nproc) {
    std::cerr << "perfbench: " << w->name << " needs " << w->threads
              << " threads but only " << nproc << " CPUs are usable; refusing\n";
    return 3;
  }

  PhaseResult u = run_workload(opt);
  std::uint64_t failed = check(u, "untraced", nproc);
  std::uint64_t attempted = u.tally.attempted + u.problems.size();
  const std::vector<Metric> e2e_u = end_to_end(u);
  const std::vector<Metric> more_u = unbounded(u);
  const std::vector<Metric> sizes_u = sample_sizes(u);
  print_table("end-to-end, bounded (untraced)", e2e_u);
  print_table("end-to-end, unbounded (untraced)", more_u);
  print_table("samples", sizes_u);
  if (!opt.trace) {
    print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed, e2e_u);
    return failed == 0 ? 0 : 1;
  }

  SpanRecorder::global().start();
  PhaseResult t = run_workload(opt);
  SpanRecorder::global().stop();
  failed += check(t, "traced", nproc);
  attempted += t.tally.attempted + t.problems.size();
  std::vector<Metric> layers = per_layer(t);
  print_table("per layer (traced)", layers);
  const std::vector<Metric> all_u = all_end_to_end(u);
  const std::vector<Metric> all_t = all_end_to_end(t);
  print_overhead(all_u, all_t);
  for (const Metric& m : more_u) layers.push_back({"e2e." + m.name, m.value, m.unit});
  for (const Metric& m : sizes_u) layers.push_back({"e2e." + m.name, m.value, m.unit});
  for (std::size_t i = 0; i < all_u.size(); ++i) {
    layers.push_back({"overhead." + all_u[i].name, all_t[i].value - all_u[i].value,
                      all_u[i].unit});
  }
  if (!opt.trace_out.empty() &&
      !SpanRecorder::global().write_chrome(opt.trace_out, kMaxTraceSpans)) {
    std::cerr << "perfbench: could not write " << opt.trace_out << "\n";
    ++failed;
  }
  print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed, layers);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
