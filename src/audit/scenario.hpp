// Replayable audit scenarios: one JSON value that pins down an entire
// simulated run — workload shape, store knobs, the full fault schedule
// (crashes, restarts, partitions with their mode), the seed, and the
// injected-bug flag. Because the run executes under the deterministic
// DES, a spec is a *proof-carrying artifact*: ucaudit writes the spec
// next to a refuted history, and replaying the spec re-derives the
// refutation bit-for-bit. The schedule shrinker (audit/shrink.hpp)
// works on this type: every candidate is itself a replayable spec.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adt/register.hpp"
#include "audit/auditor.hpp"
#include "faults/fault_spec.hpp"
#include "runtime/store_harness.hpp"
#include "util/json.hpp"

namespace ucw::audit {

/// The serializable twin of StoreRunConfig (plus the bug switch),
/// restricted to the int64 LWW register the history format speaks.
struct ScenarioSpec {
  std::size_t n_processes = 3;
  std::uint64_t seed = 1;
  std::size_t n_keys = 16;
  double skew = 0.8;
  /// Per-process op counts (the shrinker trims these individually).
  std::vector<std::size_t> ops_per_process{};
  double update_ratio = 0.9;
  double mean_latency_us = 500.0;
  double mean_think_us = 120.0;
  double flush_period_us = 1'000.0;
  std::size_t batch_window = 4;
  std::size_t shard_count = 8;
  bool gc = true;
  /// The injected consistency bug — a mutation-corpus wire name
  /// (src/faults/fault_spec.hpp); "none" is the clean store. The
  /// refutation target of the audit/fuzz pipeline.
  std::string fault = "none";
  std::vector<CrashPlan> crashes{};
  std::vector<RestartPlan> restarts{};
  std::vector<PartitionPlan> partitions{};

  [[nodiscard]] std::size_t total_ops() const {
    std::size_t n = 0;
    for (const std::size_t o : ops_per_process) n += o;
    return n;
  }

  /// Fault events in the schedule (what the shrinker minimizes besides
  /// the op counts).
  [[nodiscard]] std::size_t fault_events() const {
    return crashes.size() + restarts.size() + partitions.size();
  }

  [[nodiscard]] StoreRunConfig to_run_config() const {
    StoreRunConfig cfg;
    cfg.n_processes = n_processes;
    cfg.seed = seed;
    cfg.latency = LatencyModel::exponential(mean_latency_us);
    cfg.fifo_links = true;
    cfg.n_keys = n_keys;
    cfg.skew = skew;
    cfg.ops_per_process_override = ops_per_process;
    cfg.ops_per_process =
        ops_per_process.empty() ? 50 : ops_per_process.front();
    cfg.update_ratio = update_ratio;
    cfg.think_time = LatencyModel::exponential(mean_think_us);
    cfg.flush_period = flush_period_us;
    cfg.store.batch_window = batch_window;
    cfg.store.shard_count = shard_count;
    cfg.store.gc = gc;
    Fault f = Fault::kNone;
    (void)fault_from_name(fault, &f);  // validated at from_json/parse time
    cfg.store.fault = FaultSpec{f};
    cfg.crashes = crashes;
    cfg.restarts = restarts;
    cfg.partitions = partitions;
    cfg.record_history = true;
    // Mutant runs can livelock recovery (a retry loop whose repair the
    // fault suppresses forever); the ceiling is 10x the schedule's own
    // span (never under 250000 virtual µs), so it only ever bites on a
    // broken store — which then final-reads its diverged states and
    // gets refuted instead of spinning the DES unboundedly.
    cfg.sim_horizon = std::max(250'000.0, 10.0 * schedule_span_us());
    return cfg;
  }

  /// Virtual time the schedule needs before it can quiesce: the longest
  /// process's ops at the mean think time, the last crash or partition
  /// change, and each restart plus its resumed ops.
  [[nodiscard]] double schedule_span_us() const {
    std::size_t max_ops = 0;
    for (const std::size_t o : ops_per_process) max_ops = std::max(max_ops, o);
    double span = static_cast<double>(max_ops) * mean_think_us;
    for (const CrashPlan& c : crashes) span = std::max(span, c.at);
    for (const PartitionPlan& p : partitions) span = std::max(span, p.at);
    for (const RestartPlan& r : restarts) {
      span = std::max(
          span, r.at + static_cast<double>(r.resume_ops) * mean_think_us);
    }
    return span;
  }

  // GCC 12 reports spurious -Wmaybe-uninitialized deep in std::variant
  // when temporaries move into the Object map; nothing here reads an
  // uninitialized value.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  [[nodiscard]] JsonValue to_json() const {
    JsonValue::Object o;
    o.emplace("format", JsonValue(std::string("ucw-scenario-v1")));
    o.emplace("n_processes", JsonValue(static_cast<double>(n_processes)));
    o.emplace("seed", JsonValue(static_cast<double>(seed)));
    o.emplace("n_keys", JsonValue(static_cast<double>(n_keys)));
    o.emplace("skew", JsonValue(skew));
    JsonValue::Array ops;
    for (const std::size_t n : ops_per_process) {
      ops.push_back(JsonValue(static_cast<double>(n)));
    }
    o.emplace("ops_per_process", JsonValue(std::move(ops)));
    o.emplace("update_ratio", JsonValue(update_ratio));
    o.emplace("mean_latency_us", JsonValue(mean_latency_us));
    o.emplace("mean_think_us", JsonValue(mean_think_us));
    o.emplace("flush_period_us", JsonValue(flush_period_us));
    o.emplace("batch_window",
                   JsonValue(static_cast<double>(batch_window)));
    o.emplace("shard_count", JsonValue(static_cast<double>(shard_count)));
    o.emplace("gc", JsonValue(gc));
    o.emplace("fault", JsonValue(fault));
    JsonValue::Array cr;
    for (const CrashPlan& c : crashes) {
      JsonValue::Object e;
      e.emplace("pid", JsonValue(static_cast<double>(c.pid)));
      e.emplace("at", JsonValue(c.at));
      cr.push_back(JsonValue(std::move(e)));
    }
    o.emplace("crashes", JsonValue(std::move(cr)));
    JsonValue::Array rs;
    for (const RestartPlan& r : restarts) {
      JsonValue::Object e;
      e.emplace("pid", JsonValue(static_cast<double>(r.pid)));
      e.emplace("at", JsonValue(r.at));
      e.emplace("resume_ops",
                     JsonValue(static_cast<double>(r.resume_ops)));
      rs.push_back(JsonValue(std::move(e)));
    }
    o.emplace("restarts", JsonValue(std::move(rs)));
    JsonValue::Array ps;
    for (const PartitionPlan& p : partitions) {
      JsonValue::Object e;
      e.emplace("at", JsonValue(p.at));
      JsonValue::Array g;
      for (const std::size_t gi : p.group_of) {
        g.push_back(JsonValue(static_cast<double>(gi)));
      }
      e.emplace("group_of", JsonValue(std::move(g)));
      e.emplace("anti_entropy", JsonValue(p.anti_entropy));
      e.emplace("ae_delay", JsonValue(p.ae_delay));
      e.emplace("escalation_grace", JsonValue(p.escalation_grace));
      ps.push_back(JsonValue(std::move(e)));
    }
    o.emplace("partitions", JsonValue(std::move(ps)));
    return JsonValue(std::move(o));
  }
#pragma GCC diagnostic pop

  static bool from_json(const JsonValue& v, ScenarioSpec* out,
                        std::string* err = nullptr) {
    if (!v.is_object()) {
      if (err) *err = "scenario must be a JSON object";
      return false;
    }
    ScenarioSpec s;
    s.n_processes = static_cast<std::size_t>(
        v["n_processes"].as_int(static_cast<std::int64_t>(s.n_processes)));
    s.seed = static_cast<std::uint64_t>(
        v["seed"].as_int(static_cast<std::int64_t>(s.seed)));
    s.n_keys = static_cast<std::size_t>(
        v["n_keys"].as_int(static_cast<std::int64_t>(s.n_keys)));
    s.skew = v["skew"].as_double(s.skew);
    s.ops_per_process.clear();
    if (v["ops_per_process"].is_array()) {
      for (const JsonValue& e : v["ops_per_process"].as_array()) {
        s.ops_per_process.push_back(static_cast<std::size_t>(e.as_int(0)));
      }
    }
    s.update_ratio = v["update_ratio"].as_double(s.update_ratio);
    s.mean_latency_us = v["mean_latency_us"].as_double(s.mean_latency_us);
    s.mean_think_us = v["mean_think_us"].as_double(s.mean_think_us);
    s.flush_period_us = v["flush_period_us"].as_double(s.flush_period_us);
    s.batch_window = static_cast<std::size_t>(
        v["batch_window"].as_int(static_cast<std::int64_t>(s.batch_window)));
    s.shard_count = static_cast<std::size_t>(
        v["shard_count"].as_int(static_cast<std::int64_t>(s.shard_count)));
    s.gc = v["gc"].as_bool(s.gc);
    if (v["fault"].is_string()) {
      s.fault = v["fault"].as_string();
    } else if (v["fold_acks_across_gaps"].as_bool(false)) {
      // Legacy specs (pre-corpus) carried the one injected bug as a bool.
      s.fault = "fold_acks_across_gaps";
    }
    Fault parsed_fault = Fault::kNone;
    if (!fault_from_name(s.fault, &parsed_fault)) {
      if (err) *err = "unknown fault name: " + s.fault;
      return false;
    }
    if (v["crashes"].is_array()) {
      for (const JsonValue& e : v["crashes"].as_array()) {
        CrashPlan c;
        c.pid = static_cast<ProcessId>(e["pid"].as_int(0));
        c.at = e["at"].as_double(0.0);
        s.crashes.push_back(c);
      }
    }
    if (v["restarts"].is_array()) {
      for (const JsonValue& e : v["restarts"].as_array()) {
        RestartPlan r;
        r.pid = static_cast<ProcessId>(e["pid"].as_int(0));
        r.at = e["at"].as_double(0.0);
        r.resume_ops = static_cast<std::size_t>(e["resume_ops"].as_int(0));
        s.restarts.push_back(r);
      }
    }
    if (v["partitions"].is_array()) {
      for (const JsonValue& e : v["partitions"].as_array()) {
        PartitionPlan p;
        p.at = e["at"].as_double(0.0);
        if (e["group_of"].is_array()) {
          for (const JsonValue& g : e["group_of"].as_array()) {
            p.group_of.push_back(static_cast<std::size_t>(g.as_int(0)));
          }
        }
        p.anti_entropy = e["anti_entropy"].as_bool(true);
        p.ae_delay = e["ae_delay"].as_double(1.0);
        p.escalation_grace = e["escalation_grace"].as_double(0.0);
        s.partitions.push_back(p);
      }
    }
    if (s.n_processes == 0) {
      if (err) *err = "n_processes must be positive";
      return false;
    }
    for (const PartitionPlan& p : s.partitions) {
      if (p.group_of.size() != s.n_processes) {
        if (err) *err = "partition group_of size != n_processes";
        return false;
      }
    }
    *out = std::move(s);
    return true;
  }
};

/// Shaping knobs for the random scenario generator. The defaults
/// reproduce the legacy generator draw-for-draw; the extra flags steer
/// a schedule toward the code path a corpus mutant lives on (the fuzz
/// driver sets them from FaultInfo) without perturbing the base draws —
/// a given seed's schedule is the legacy one, possibly with a forced
/// crash appended or the cuts widened to three groups.
struct ScenarioShape {
  std::size_t n_processes = 3;
  std::size_t ops_per_process = 120;
  /// Corpus mutant wire name ("none" = clean store).
  std::string fault = "none";
  /// Guarantee a crash/restart in the schedule (recovery-path mutants
  /// need a catch-up session to bite).
  bool force_crash_restart = false;
  /// Cut into three groups instead of two (relay/echo mutants need a
  /// third party whose content must transit a representative).
  bool three_way = false;
};

/// A randomized partition/crash schedule over the run window — the
/// CI smoke's scenario generator. Deterministic in `seed`; the returned
/// spec replays (and shrinks) like any hand-written one.
inline ScenarioSpec random_fault_scenario(std::uint64_t seed,
                                          const ScenarioShape& shape) {
  const std::size_t n_processes = shape.n_processes;
  const std::size_t ops_per_process = shape.ops_per_process;
  ScenarioSpec s;
  s.n_processes = n_processes;
  s.seed = seed;
  s.ops_per_process.assign(n_processes, ops_per_process);
  s.fault = shape.fault;
  Rng rng = Rng(seed).fork("fault-schedule");
  // Ops are spaced ~mean_think_us apart per process; faults land inside
  // the active window so they actually interleave with traffic.
  const double horizon =
      static_cast<double>(ops_per_process) * s.mean_think_us;
  // 1-3 partition episodes: cut, then heal after a sub-window. Groups
  // split the cluster in two at a random boundary (three contiguous
  // groups when the shape asks — the boundary draw is consumed either
  // way, so a seed's schedule differs only in the cut's group map).
  const int episodes = static_cast<int>(rng.uniform_int(1, 3));
  double t = rng.uniform_real(0.1, 0.3) * horizon;
  for (int i = 0; i < episodes && t < horizon; ++i) {
    std::vector<std::size_t> cut(n_processes, 0);
    const std::size_t boundary = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n_processes) - 1));
    if (shape.three_way && n_processes >= 3) {
      for (std::size_t p = 0; p < n_processes; ++p) {
        cut[p] = p * 3 / n_processes;
      }
    } else {
      for (std::size_t p = boundary; p < n_processes; ++p) cut[p] = 1;
    }
    PartitionPlan split;
    split.at = t;
    split.group_of = cut;
    // Half the episodes escalate (hold a grace window, then drop);
    // the rest drop at the cut.
    split.escalation_grace =
        rng.chance(0.5) ? rng.uniform_real(0.5, 2.0) * s.flush_period_us
                        : 0.0;
    s.partitions.push_back(split);
    t += rng.uniform_real(0.15, 0.35) * horizon;
    PartitionPlan heal;
    heal.at = t;
    heal.group_of.assign(n_processes, 0);
    s.partitions.push_back(heal);
    t += rng.uniform_real(0.1, 0.25) * horizon;
  }
  // Optional crash/restart of one process, clear of the last heal
  // (mandatory under force_crash_restart; the coin is tossed first
  // either way so the base schedule of a seed never shifts).
  bool want_crash = n_processes >= 3 && rng.chance(0.5);
  want_crash = want_crash ||
               (shape.force_crash_restart && n_processes >= 2);
  if (want_crash) {
    const ProcessId victim =
        static_cast<ProcessId>(rng.uniform_int(0, n_processes - 1));
    CrashPlan crash;
    crash.pid = victim;
    crash.at = rng.uniform_real(0.3, 0.6) * horizon;
    s.crashes.push_back(crash);
    RestartPlan restart;
    restart.pid = victim;
    restart.at = crash.at + rng.uniform_real(0.2, 0.4) * horizon;
    restart.resume_ops = ops_per_process / 4;
    s.restarts.push_back(restart);
  }
  return s;
}

/// Legacy signature (pre-corpus): `inject_bug` selects the original
/// fold-acks-across-gaps bug.
inline ScenarioSpec random_fault_scenario(std::uint64_t seed,
                                          std::size_t n_processes = 3,
                                          std::size_t ops_per_process = 120,
                                          bool inject_bug = false) {
  ScenarioShape shape;
  shape.n_processes = n_processes;
  shape.ops_per_process = ops_per_process;
  shape.fault = inject_bug ? "fold_acks_across_gaps" : "none";
  return random_fault_scenario(seed, shape);
}

struct ScenarioResult {
  bool converged = false;
  AuditReport audit;
  HistoryFile history;
  std::uint64_t total_updates = 0;
  double duration_us = 0.0;
};

/// Runs the spec under the DES, records the full op history, audits it
/// in-process, and (optionally) writes the JSONL next to any DOT
/// witnesses. Deterministic: same spec → same history → same verdict.
inline ScenarioResult run_scenario(const ScenarioSpec& spec,
                                   const std::string& history_out = {},
                                   const AuditOptions& opt = {}) {
  using Reg = RegisterAdt<std::int64_t>;
  StoreRunConfig cfg = spec.to_run_config();
  cfg.history_out = history_out;
  auto out = run_store_simulation<Reg>(
      Reg{}, cfg, [](Rng& rng) {
        return RegWrite<std::int64_t>{rng.uniform_int(1, 1'000'000)};
      });
  ScenarioResult r;
  r.converged = out.converged;
  r.history = std::move(out.history);
  r.audit = audit_history(r.history, opt);
  r.total_updates = out.total_updates;
  r.duration_us = out.duration;
  return r;
}

}  // namespace ucw::audit
