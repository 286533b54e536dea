// audit_fuzz: the correctness gates' own traffic, on one thread.
//
// Scenarios have the `ucfuzz campaign` shape (3 processes, 120 ops per
// process). The run alternates the campaign's clean control (no mutant,
// seeds 1..10) with a mutant of fault_corpus() on one of its gated
// seeds (see build_plan). Each scenario is one pass: run_store_simulation
// records the history, audit_history certifies it. A refuted mutant
// then goes through shrink_scenario with an evaluation cap of
// kShrinkCap; every shrink evaluation is one more pass.
//
// Known defect, recorded here and not routed around:
// ScenarioSpec::to_run_config hard-codes sim_horizon = 250'000 virtual
// us, so a clean store run long enough ends before it converges
// (`ucaudit record --random-faults --seed=1 --processes=3 --ops=2000`
// ends converged=no with 9/16 keys refuted and exits 1; at --ops=5000
// all 16 keys are refuted). This workload keeps the campaign's real
// 120 ops/process shape and uses to_run_config unchanged. Some schedules
// hit the horizon even at 120 ops: `--seed=56 --ops=120` also ends
// converged=no and refuted. The clean arm therefore stays on the
// campaign's control seeds 1..10, which converge; widening it waits for
// the horizon fix.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "adt/register.hpp"
#include "audit/auditor.hpp"
#include "audit/scenario.hpp"
#include "audit/shrink.hpp"
#include "faults/fault_spec.hpp"
#include "harness.hpp"
#include "runtime/store_harness.hpp"

namespace perfbench {

namespace auditfz {

using Reg = ucw::RegisterAdt<std::int64_t>;

inline constexpr std::size_t kProcesses = 3;
inline constexpr std::size_t kOpsPerProcess = 120;
inline constexpr std::size_t kShrinkCap = 2;
inline constexpr std::size_t kCycles = 4;
inline constexpr int kSetups = 15;
inline constexpr int kThreads = 1;

struct Planned {
  ucw::audit::ScenarioSpec spec;
  bool mutant = false;
};

/// The same shaping `ucfuzz campaign` applies per mutant.
inline ucw::audit::ScenarioSpec shaped(std::uint64_t seed,
                                       const ucw::FaultInfo* mutant) {
  ucw::audit::ScenarioShape shape;
  shape.n_processes = kProcesses;
  shape.ops_per_process = kOpsPerProcess;
  if (mutant != nullptr) {
    shape.fault = mutant->name;
    shape.force_crash_restart = mutant->wants_restart;
    shape.three_way = mutant->wants_three_way;
  }
  return ucw::audit::random_fault_scenario(seed, shape);
}

/// The clean control arm's seeds, 1..kCleanSeeds: the campaign's
/// default and CI seed list.
inline constexpr std::uint64_t kCleanSeeds = 10;

/// kCycles cycles of (clean, mutant) pairs. Every cycle holds each
/// corpus mutant once, in a seed-shuffled order and on a seed-chosen
/// gated seed, so a run of any length covers the corpus evenly and runs
/// of different seeds do the same mix of work.
inline std::vector<Planned> build_plan(std::uint64_t seed) {
  const std::vector<ucw::FaultInfo>& corpus = ucw::fault_corpus();
  ucw::Rng rng = ucw::Rng(seed).fork("audit-plan");
  std::vector<Planned> plan;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<std::size_t> order(corpus.size());
    for (std::size_t m = 0; m < order.size(); ++m) order[m] = m;
    rng.shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint64_t clean =
          1 + (cycle * order.size() + i + seed) % kCleanSeeds;
      plan.push_back({shaped(clean, nullptr), false});
      const ucw::FaultInfo& m = corpus[order[i]];
      const std::uint64_t gated = m.gated_seeds[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m.gated_seeds.size()) - 1))];
      plan.push_back({shaped(gated, &m), true});
    }
  }
  return plan;
}

/// One record -> certify pass of a scenario; adds it to the op
/// samples and counts of `r`.
inline ucw::audit::AuditReport run_pass(const ucw::audit::ScenarioSpec& spec,
                                        PhaseResult& r) {
  const std::int64_t t0 = now_ns();
  ucw::HistoryFile history;
  {
    Span span("runtime.sim");
    auto out = ucw::run_store_simulation<Reg>(
        Reg{}, spec.to_run_config(), [](ucw::Rng& rng) {
          return ucw::RegWrite<std::int64_t>{rng.uniform_int(1, 1'000'000)};
        });
    history = std::move(out.history);
  }
  ucw::audit::AuditReport report;
  {
    Span span("audit.certify");
    report = ucw::audit::audit_history(history);
  }
  r.op_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  r.updates += static_cast<double>(report.update_ops);
  r.cpu_ops += static_cast<double>(report.ops);
  return report;
}

}  // namespace auditfz

inline PhaseResult run_audit(const Options& opt) {
  using namespace auditfz;
  PhaseResult r;

  // Set-up: the seeded scenario plan.
  std::vector<double> setups;
  std::vector<Planned> plan;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    plan = build_plan(opt.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.setup_s = median(setups);
  ThreadWatch threads;
  threads.sample();

  double shrink_evals = 0.0;
  std::uint64_t clean_runs = 0;
  std::uint64_t clean_bad = 0;
  std::uint64_t mutant_runs = 0;
  std::uint64_t mutant_missed = 0;
  const CpuTimes cpu0 = cpu_times();
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < t_end; ++i) {
    const Planned& next = plan[i % plan.size()];
    const ucw::audit::AuditReport report = run_pass(next.spec, r);
    r.scenarios += 1.0;
    if (!next.mutant) {
      ++clean_runs;
      if (!report.certified()) {
        ++clean_bad;
        r.note("clean scenario seed " + std::to_string(next.spec.seed) +
               " did not certify: " + report.summary());
      }
      continue;
    }
    // The campaign gate's rule: a gated mutant is detected unless its
    // history certifies; only a refutation has a counterexample to
    // shrink.
    ++mutant_runs;
    if (report.certified()) {
      ++mutant_missed;
      r.note("mutant " + next.spec.fault + " certified on gated seed " +
             std::to_string(next.spec.seed) + ": " + report.summary());
      continue;
    }
    if (!report.refuted()) continue;
    ucw::audit::ShrinkOptions so;
    so.max_evaluations = kShrinkCap;
    Span span("audit.shrink");
    const ucw::audit::ShrinkResult shrunk = ucw::audit::shrink_scenario(
        next.spec,
        [&](const ucw::audit::ScenarioSpec& s) { return run_pass(s, r).refuted(); },
        so);
    shrink_evals += static_cast<double>(shrunk.evaluations);
  }
  const std::int64_t t1 = now_ns();
  const CpuTimes cpu1 = cpu_times();
  threads.sample();
  r.threads_peak = threads.peak();
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  r.rss_mb = peak_rss_mb();
  r.tally.add(clean_runs, clean_bad);
  r.tally.add(mutant_runs, mutant_missed);
  r.layer["audit.shrink_replays"] = shrink_evals;
  r.layer["audit.ops_per_scenario"] = r.cpu_ops / static_cast<double>(r.op_us.size());
  return r;
}

}  // namespace perfbench
