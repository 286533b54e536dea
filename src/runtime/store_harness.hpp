// End-to-end simulation harness for the UCStore.
//
// The multi-key sibling of run_uc_simulation: builds a scheduler +
// envelope network + N SimUcStores, drives a zipfian keyed workload with
// per-process think times, ticks a periodic flush (the "per-tick batch
// envelope" — which is also the recovery tick: stability acks, GC folds,
// catch-up retries), optionally injects crashes, *restarts* (the crashed
// process rejoins with empty state and catches up from a live donor via
// snapshot shipping), and duplicate delivery, quiesces (final flush +
// drain, with extra rounds so multi-round catch-up retries settle), and
// checks per-key convergence across the surviving stores — including the
// rejoined ones, which must agree with replicas that never crashed. The
// store benchmarks, the property tests, and the reworked KV example all
// run on this engine.
//
// Partitions: PartitionPlans script drop-mode topology changes. At each
// plan the network is re-cut (an all-zero map is a heal), and for every
// pair of processes the change *reconnects*, the harness schedules
// anti-entropy pulls: each process runs one anti_entropy_round against
// the lowest-pid live representative of each group it just regained —
// the representative holds everything its side produced (intra-group
// traffic kept flowing), so one delta exchange per (process, regained
// group) reconciles the whole split. A run whose last plan leaves the
// network split is healed (plus one AE sweep) before the quiesce
// barrier, so the convergence check always speaks for a connected
// cluster.
#pragma once

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "audit/recorder.hpp"
#include "history/jsonl.hpp"
#include "net/scheduler.hpp"
#include "net/sim_network.hpp"
#include "obs/report.hpp"
#include "obs/trace_export.hpp"
#include "runtime/keyspace.hpp"
#include "runtime/sim_harness.hpp"
#include "store/all.hpp"

namespace ucw {

/// Crash-recover rejoin: at `at`, the (crashed) process comes back with
/// empty state, requests a sync from the lowest-pid live donor, and —
/// once its clock is re-based by the first snapshot — resumes issuing
/// `resume_ops` further operations. The restart waits for the old
/// incarnation's in-flight messages to drain (the failure-detector
/// assumption restart soundness needs), retrying on the flush period.
struct RestartPlan {
  ProcessId pid = 0;
  SimTime at = 0.0;
  std::size_t resume_ops = 0;
};

/// Drop-mode topology change at `at`: processes with equal group ids
/// can talk, cross-group messages are dropped. All-zero = heal. An
/// asymmetric heal is two plans: {0,0,1} merging {A,B} first, then
/// all-zero bringing C back. With `anti_entropy` (default), every
/// newly-reconnected process pair triggers the representative AE pull
/// described in the header comment, `ae_delay` after the cut.
struct PartitionPlan {
  SimTime at = 0.0;
  std::vector<std::size_t> group_of{};
  bool anti_entropy = true;
  SimTime ae_delay = 1.0;
  /// 0 = drop mode (messages lost at the cut). Positive = hold→drop
  /// escalation: cross-group messages buffer for this much virtual time
  /// from their send, then drop if the split still holds — a heal
  /// inside the window costs only delay (see SimNetwork).
  SimTime escalation_grace = 0.0;
};

struct StoreRunConfig {
  std::size_t n_processes = 4;
  std::uint64_t seed = 1;
  LatencyModel latency = LatencyModel::exponential(1000.0);
  bool fifo_links = false;
  double duplicate_probability = 0.0;
  /// Keyspace: zipfian over n_keys with the given skew (0 = uniform).
  std::size_t n_keys = 64;
  double skew = 0.99;
  std::size_t ops_per_process = 100;
  /// When non-empty, per-process op counts overriding ops_per_process —
  /// the schedule shrinker's handle for trimming one process's workload
  /// at a time. Size must be n_processes when set.
  std::vector<std::size_t> ops_per_process_override{};
  double update_ratio = 0.9;  ///< else a keyed query is issued
  LatencyModel think_time = LatencyModel::exponential(200.0);
  StoreConfig store{};
  /// Virtual µs between flush ticks; 0 disables the tick (batches then
  /// ship only when the window fills or at quiescence).
  SimTime flush_period = 1'000.0;
  std::vector<CrashPlan> crashes{};
  std::vector<RestartPlan> restarts{};
  std::vector<PartitionPlan> partitions{};
  SimTime drain_margin = 1.0;
  /// Hard virtual-time ceiling on the whole run; 0 = unbounded. A
  /// *correct* store quiesces long before any sane ceiling, but a
  /// fault-injected one (src/faults/) can livelock recovery — e.g. an
  /// anti-entropy retry loop whose repair the mutant suppresses forever
  /// — and an event-driven run() would never drain. The audit/fuzz
  /// pipeline sets this so a livelocked mutant run still terminates,
  /// final-reads its diverged states, and gets refuted.
  SimTime sim_horizon = 0.0;
  /// Chrome trace_event JSON path; non-empty turns tracing on (one
  /// tracer per process on the virtual-time axis — a restart keeps
  /// appending to the same pid's tracks, so one trace holds the whole
  /// crash/recover timeline) and writes the file at the end of the run.
  std::string trace_out{};
  /// Metrics-snapshot JSON path ({"processes":[…],"net":{…}}); also
  /// turns the derived convergence metrics on.
  std::string metrics_out{};
  /// Op-history JSONL path for the audit pipeline; non-empty turns
  /// recording on (int64-register-like ADTs only — see
  /// history/jsonl.hpp). Every client-visible op plus one post-
  /// quiescence "final read" per (alive process, key) is captured.
  std::string history_out{};
  /// Record the history in memory (StoreRunOutput::history) without
  /// writing a file — what run_scenario audits in-process.
  bool record_history = false;
  /// Recorder ring capacity per process; overflow drops the newest
  /// records and is reported (the auditor then refuses to certify).
  std::size_t history_capacity = std::size_t{1} << 20;
};

template <UqAdt A>
struct StoreRunOutput {
  NetworkStats net;
  std::vector<StoreStats> store_stats;        ///< per process
  /// Per process, per shard engine — exposes the per-engine view
  /// (published views, GC folds, resident log) the aggregate StoreStats
  /// rows flatten away.
  std::vector<std::vector<ShardStats>> shard_stats;
  std::uint64_t total_updates = 0;
  std::uint64_t total_queries = 0;
  std::size_t keys_touched = 0;               ///< union across alive stores
  bool converged = false;                     ///< per-key, alive stores
  /// Final per-key states of the lowest-pid surviving store (the values
  /// everyone converged on when `converged`).
  std::map<std::string, typename A::State> final_states;
  /// Keys on which some pair of alive stores disagreed (empty when
  /// `converged`; the debugging handle for the tests and benches).
  std::vector<std::string> diverged_keys;
  SimTime duration = 0.0;
  /// Resident log entries summed over alive stores at the end — with GC
  /// on, the unstable window; without, the whole history per replica.
  std::uint64_t log_entries_resident = 0;
  /// Full observability report (per-process stats + derived convergence
  /// metrics + network totals) — feed to obs::print_observability.
  obs::Report report;
  /// Recorded op history (populated when history_out/record_history is
  /// set and the ADT is int64-register-like; empty otherwise).
  HistoryFile history;
};

/// Runs one multi-key simulation. `gen` draws the next update for a
/// process: gen(rng) -> A::Update; the key is drawn zipfian per op.
template <UqAdt A, typename GenFn>
[[nodiscard]] StoreRunOutput<A> run_store_simulation(
    A adt, const StoreRunConfig& cfg, GenFn gen) {
  using Store = SimUcStore<A>;
  using Envelope = typename Store::Envelope;

  UCW_CHECK_MSG(!cfg.store.gc || cfg.fifo_links,
                "store-level stability tracking requires FIFO links");
  UCW_CHECK_MSG(cfg.restarts.empty() || cfg.fifo_links,
                "catch-up stream guarding requires FIFO links");
  UCW_CHECK_MSG(cfg.partitions.empty() || cfg.fifo_links,
                "partition coverage tracking requires FIFO links");

  SimScheduler scheduler;
  typename SimNetwork<Envelope>::Config net_cfg;
  net_cfg.n_processes = cfg.n_processes;
  net_cfg.latency = cfg.latency;
  net_cfg.fifo_links = cfg.fifo_links;
  net_cfg.duplicate_probability = cfg.duplicate_probability;
  net_cfg.seed = cfg.seed;
  SimNetwork<Envelope> net(scheduler, net_cfg);

  // Tracers live here, outside the stores, so a crash-restarted
  // incarnation keeps appending to the same pid's tracks and one trace
  // holds the whole timeline. The clock is the scheduler's virtual time
  // (already in µs), so spans line up with CrashPlan/PartitionPlan `at`s.
  const bool obs_on = cfg.store.tracing || !cfg.trace_out.empty() ||
                      !cfg.metrics_out.empty();
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  if (obs_on) {
    std::vector<obs::Tracer*> raw(cfg.n_processes, nullptr);
    for (ProcessId p = 0; p < cfg.n_processes; ++p) {
      tracers.push_back(std::make_unique<obs::Tracer>(
          static_cast<std::uint32_t>(p), /*tracks=*/1,
          /*ring_capacity_pow2=*/std::size_t{1} << 14,
          +[](void* s) { return static_cast<SimScheduler*>(s)->now(); },
          &scheduler));
      raw[p] = tracers.back().get();
    }
    net.set_tracers(std::move(raw));
  }
  auto store_config_for = [&](ProcessId p) {
    StoreConfig sc = cfg.store;
    if (obs_on) {
      sc.tracing = true;
      sc.tracer = tracers[p].get();
    }
    return sc;
  };

  // Op-history recorders (audit pipeline): like the tracers they live
  // here, outside the stores, so a restarted incarnation appends to the
  // same process's history — one recorded history spans the whole
  // crash/recover timeline. Sim stores are single-owner: one ring each.
  const bool record_on = cfg.record_history || !cfg.history_out.empty();
  std::vector<std::unique_ptr<audit::OpRecorder<A, std::string>>> recorders;
  if (record_on) {
    for (ProcessId p = 0; p < cfg.n_processes; ++p) {
      recorders.push_back(std::make_unique<audit::OpRecorder<A, std::string>>(
          p, /*threads=*/1, cfg.history_capacity,
          +[](void* s) { return static_cast<SimScheduler*>(s)->now(); },
          &scheduler));
    }
  }

  std::vector<std::unique_ptr<Store>> stores;
  stores.reserve(cfg.n_processes);
  for (ProcessId p = 0; p < cfg.n_processes; ++p) {
    stores.push_back(std::make_unique<Store>(adt, p, net, store_config_for(p)));
    if (record_on) stores[p]->set_recorder(recorders[p].get());
  }

  ZipfianKeys keyspace(cfg.n_keys, cfg.skew);
  Rng root(cfg.seed);
  StoreRunOutput<A> out;

  // Per-process operation schedules (heap-anchored closures, same
  // pattern as run_uc_simulation).
  std::vector<std::shared_ptr<std::function<void(std::size_t)>>> issuers;
  for (ProcessId p = 0; p < cfg.n_processes; ++p) {
    auto rng = std::make_shared<Rng>(root.fork(p + 1));
    auto issue = std::make_shared<std::function<void(std::size_t)>>();
    *issue = [&, p, rng, issue](std::size_t remaining) {
      if (remaining == 0 || net.crashed(p)) return;
      if (stores[p]->bootstrapping()) {
        // A rejoining store may not stamp updates until the first
        // snapshot re-bases its clock; try again next think time.
        scheduler.after(cfg.think_time.sample(*rng),
                        [issue, remaining] { (*issue)(remaining); });
        return;
      }
      const std::string key = keyspace.sample(*rng);
      if (rng->chance(cfg.update_ratio)) {
        ++out.total_updates;
        (void)stores[p]->update(key, gen(*rng));
      } else {
        ++out.total_queries;
        (void)stores[p]->query(key, typename A::QueryIn{});
      }
      scheduler.after(cfg.think_time.sample(*rng),
                      [issue, remaining] { (*issue)(remaining - 1); });
    };
    issuers.push_back(issue);
    const std::size_t n_ops = cfg.ops_per_process_override.empty()
                                  ? cfg.ops_per_process
                                  : cfg.ops_per_process_override.at(p);
    scheduler.after(cfg.think_time.sample(*rng),
                    [issue, n = n_ops] { (*issue)(n); });
  }

  for (const CrashPlan& crash : cfg.crashes) {
    scheduler.at(crash.at, [&net, pid = crash.pid] { net.crash(pid); });
  }

  // Crash-recover rejoins: wait for the old incarnation to drain, then
  // bring the pid back with a fresh (empty) store and start catch-up.
  const SimTime retry_period =
      cfg.flush_period > 0.0 ? cfg.flush_period : 500.0;
  std::vector<std::shared_ptr<std::function<void()>>> restarters;
  for (const RestartPlan& plan : cfg.restarts) {
    UCW_CHECK(plan.pid < cfg.n_processes);
    auto fn = std::make_shared<std::function<void()>>();
    auto tries = std::make_shared<std::size_t>(0);
    *fn = [&, plan, fn, tries, retry_period] {
      if (!net.can_restart(plan.pid)) {
        // A plan that never becomes restartable (pid never crashed, or
        // an in-flight horizon that outlives the run) must fail loudly
        // rather than keep the scheduler alive forever.
        UCW_CHECK_MSG(++*tries < 100'000,
                      "RestartPlan never became restartable: pair it "
                      "with a CrashPlan for the same pid");
        scheduler.after(retry_period, [fn] { (*fn)(); });
        return;
      }
      net.restart(plan.pid);
      stores[plan.pid] =
          std::make_unique<Store>(stores[plan.pid]->adt(), plan.pid, net,
                                  store_config_for(plan.pid));
      if (!recorders.empty()) {
        stores[plan.pid]->set_recorder(recorders[plan.pid].get());
      }
      ProcessId donor = plan.pid;
      for (ProcessId q = 0; q < cfg.n_processes; ++q) {
        if (q != plan.pid && !net.crashed(q)) {
          donor = q;
          break;
        }
      }
      if (donor != plan.pid) {
        (void)stores[plan.pid]->request_sync(donor);
      }
      if (plan.resume_ops > 0) {
        scheduler.after(cfg.think_time.sample(root),
                        [issue = issuers[plan.pid], n = plan.resume_ops] {
                          (*issue)(n);
                        });
      }
    };
    restarters.push_back(fn);
    scheduler.at(plan.at, [fn] { (*fn)(); });
  }

  // Scripted drop-mode topology changes. `groups` tracks the applied
  // topology so each plan can tell which pairs it *reconnects*; those
  // get the representative anti-entropy pulls (one per process per
  // regained former group), scheduled ae_delay after the cut.
  auto groups =
      std::make_shared<std::vector<std::size_t>>(cfg.n_processes, 0);
  auto apply_topology = [&net, &scheduler, &stores, groups, n = cfg.n_processes](
                            const std::vector<std::size_t>& group_of,
                            bool anti_entropy, SimTime ae_delay,
                            SimTime escalation_grace) {
    UCW_CHECK_MSG(group_of.size() == n,
                  "PartitionPlan group map size != n_processes");
    const std::vector<std::size_t> before = *groups;
    *groups = group_of;
    if (escalation_grace > 0.0) {
      net.partition_escalating(group_of, escalation_grace);
    } else {
      net.partition(group_of);
    }
    if (!anti_entropy) return;
    for (ProcessId p = 0; p < n; ++p) {
      if (net.crashed(p)) continue;
      // Lowest-pid live representative of each former group p regained.
      std::map<std::size_t, ProcessId> reps;
      for (ProcessId q = 0; q < n; ++q) {
        if (q == p || net.crashed(q)) continue;
        const bool was_connected = before[p] == before[q];
        const bool now_connected = group_of[p] == group_of[q];
        if (was_connected || !now_connected) continue;
        if (reps.count(before[q]) == 0) reps.emplace(before[q], q);
      }
      for (const auto& [g, rep] : reps) {
        (void)g;
        scheduler.after(ae_delay, [&stores, p, rep] {
          // One-directional pull: every process initiates its own, so
          // reciprocation would only double the traffic. Refused (and
          // skipped) while p is mid-catch-up — the session's own retry
          // machinery recovers it across the heal.
          (void)stores[p]->anti_entropy_round(rep, /*reciprocate=*/false);
        });
      }
    }
  };
  for (const PartitionPlan& plan : cfg.partitions) {
    scheduler.at(plan.at, [&apply_topology, plan] {
      apply_topology(plan.group_of, plan.anti_entropy, plan.ae_delay,
                     plan.escalation_grace);
    });
  }

  // Periodic flush tick: every store ships its pending batch and runs
  // its recovery housekeeping. The chain stays alive while anything
  // else is scheduled (workload, deliveries, pending restarts).
  auto tick = std::make_shared<std::function<void()>>();
  if (cfg.flush_period > 0.0) {
    *tick = [&, tick]() {
      for (ProcessId p = 0; p < cfg.n_processes; ++p) {
        (void)stores[p]->flush();
      }
      if (scheduler.pending() > 0) scheduler.after(cfg.flush_period, *tick);
    };
    scheduler.after(cfg.flush_period, *tick);
  }

  // Event-driven run, optionally under the sim_horizon ceiling: events
  // past the horizon stay queued, so even a livelocked recovery loop
  // terminates and falls through to the final reads. The clock is not
  // pushed to the horizon when the queue drains early — the quiesce
  // flushes and heal-time anti-entropy pulls scheduled after a drained
  // run must still land inside it and be delivered.
  const auto bounded_run = [&scheduler, &cfg] {
    if (cfg.sim_horizon > 0.0) {
      (void)scheduler.run_through(cfg.sim_horizon);
    } else {
      scheduler.run();
    }
  };
  bounded_run();
  // A run whose last plan left the network split must not fail the
  // convergence check for a partition that simply never healed: heal
  // it (with the anti-entropy sweep) before quiescing, mirroring what
  // any real operator of a partitionable deployment eventually gets.
  if (net.partitioned() || net.escalating()) {
    apply_topology(std::vector<std::size_t>(cfg.n_processes, 0),
                   /*anti_entropy=*/true, /*ae_delay=*/1.0,
                   /*escalation_grace=*/0.0);
    bounded_run();
  }
  // Quiescence: ship any trailing partial batches, then drain. Enough
  // rounds that even a *stalled* catch-up (lost request — e.g. the
  // donor crashed right after the restart) reaches its retry: the stall
  // fires after sync_patience_ticks housekeeping ticks, and the
  // request/serve/install exchange needs a few more. A gap retry needs
  // only one round (by now the donor holds everything). Extra rounds
  // are cheap no-ops.
  const int quiesce_rounds =
      static_cast<int>(cfg.store.sync_patience_ticks) + 4;
  for (int round = 0; round < quiesce_rounds; ++round) {
    for (auto& s : stores) (void)s->flush();
    bounded_run();
  }
  scheduler.run_until(scheduler.now() + cfg.drain_margin);
  for (auto& i : issuers) *i = nullptr;
  for (auto& r : restarters) *r = nullptr;
  *tick = nullptr;

  // Per-key convergence across the surviving stores.
  std::set<std::string> keys;
  std::vector<ProcessId> alive;
  for (ProcessId p = 0; p < cfg.n_processes; ++p) {
    if (net.crashed(p)) continue;
    alive.push_back(p);
    for (auto& k : stores[p]->keys()) keys.insert(k);
  }
  out.converged = !alive.empty();
  for (const std::string& k : keys) {
    if (alive.empty()) break;
    // These reads double as the history's ω-observations: one final
    // read per (alive process, key), recorded even (especially) when
    // the replicas disagree — the auditor refutes from the divergence.
    const typename A::State s0 = stores[alive.front()]->state_of(k);
    bool key_diverged = false;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const typename A::State si =
          i == 0 ? s0 : stores[alive[i]]->state_of(k);
      if (record_on) {
        recorders[alive[i]]->record_final_read(
            k, stores[alive[i]]->adt().output(si, typename A::QueryIn{}));
      }
      if (i > 0 && !(si == s0)) key_diverged = true;
    }
    if (key_diverged) {
      out.converged = false;
      out.diverged_keys.push_back(k);
    }
    out.final_states.emplace(k, s0);
  }
  out.keys_touched = keys.size();
  out.net = net.stats();
  for (ProcessId p = 0; p < cfg.n_processes; ++p) {
    out.store_stats.push_back(stores[p]->stats());
    out.shard_stats.push_back(stores[p]->shard_stats());
    if (!net.crashed(p)) {
      out.log_entries_resident += stores[p]->log_entries_resident();
    }
    out.report.processes.push_back(obs::make_process_report(*stores[p]));
  }
  out.report.net = out.net;
  out.duration = scheduler.now();

  if (record_on) {
    for (ProcessId p = 0; p < cfg.n_processes; ++p) {
      out.report.processes[p].history_records_captured =
          recorders[p]->captured() + recorders[p]->final_reads_recorded();
      out.report.processes[p].history_records_dropped =
          recorders[p]->dropped();
    }
    if constexpr (Int64RegisterLike<A>) {
      for (ProcessId p = 0; p < cfg.n_processes; ++p) {
        out.history.meta.captured += recorders[p]->captured();
        out.history.meta.dropped += recorders[p]->dropped();
        out.history.meta.final_reads += recorders[p]->final_reads_recorded();
        append_history_lines(*recorders[p], &out.history.lines);
      }
      out.history.meta.n_processes = cfg.n_processes;
      out.history.meta.seed = cfg.seed;
      out.history.meta.fault = to_string(cfg.store.fault.fault);
      if (!cfg.history_out.empty()) {
        std::ofstream f(cfg.history_out);
        UCW_CHECK_MSG(f.good(), "cannot open history_out for writing");
        write_history_jsonl(f, out.history.meta, out.history.lines);
      }
    } else {
      UCW_CHECK_MSG(cfg.history_out.empty(),
                    "history export requires an int64-register-like ADT");
    }
  }

  if (!cfg.trace_out.empty()) {
    std::vector<const obs::Tracer*> views;
    for (const auto& t : tracers) views.push_back(t.get());
    std::ofstream f(cfg.trace_out);
    UCW_CHECK_MSG(f.good(), "cannot open trace_out for writing");
    obs::write_chrome_trace(f, views);
  }
  if (!cfg.metrics_out.empty()) {
    std::ofstream f(cfg.metrics_out);
    UCW_CHECK_MSG(f.good(), "cannot open metrics_out for writing");
    obs::export_metrics_json(f, out.report);
  }
  return out;
}

}  // namespace ucw
