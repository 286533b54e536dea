// The consistency-auditor pipeline end to end: recorder capture and
// drop accounting, the JSONL interchange format, per-key certification
// (including its honest refusals), the per-key decomposition's scaling
// edge over the whole-history solver, scenario replay determinism, the
// injected-bug refutation with its DOT witness, and the failing-
// schedule shrinker's 1-minimality guarantee — plus the pooled
// thread-store frontend feeding the same pipeline through per-producer
// recorder rings and a real ThreadNetwork partition.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adt/all.hpp"
#include "audit/auditor.hpp"
#include "audit/recorder.hpp"
#include "audit/scenario.hpp"
#include "audit/shrink.hpp"
#include "criteria/all.hpp"
#include "history/builder.hpp"
#include "history/jsonl.hpp"
#include "net/scheduler.hpp"
#include "store/all.hpp"

namespace ucw {
namespace {

using Reg = RegisterAdt<std::int64_t>;
using audit::audit_history;
using audit::AuditOptions;
using audit::AuditReport;
using audit::OpRecorder;
using audit::ScenarioSpec;

// ----- recorder -------------------------------------------------------

TEST(OpRecorderTest, DrainIsProgramOrderPerThread) {
  OpRecorder<Reg, std::string> rec(/*pid=*/2, /*threads=*/2,
                                   /*capacity=*/16);
  rec.record_update(0, "a", Stamp{1, 2}, Reg::write(10));
  rec.record_update(1, "b", Stamp{2, 2}, Reg::write(20));
  rec.record_update(0, "a", Stamp{3, 2}, Reg::write(30));
  rec.record_query(1, "a", /*clock=*/3, /*out=*/30);
  rec.record_final_read("a", 30);
  EXPECT_EQ(rec.captured(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.final_reads_recorded(), 1u);

  const auto records = rec.drain();
  ASSERT_EQ(records.size(), 5u);
  // Thread-major: thread 0's records first, in issue order.
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[0].stamp.clock, 1u);
  EXPECT_EQ(records[1].stamp.clock, 3u);
  EXPECT_EQ(records[2].key, "b");
  EXPECT_EQ(records[3].kind, audit::OpKind::kQuery);
  EXPECT_EQ(records[4].kind, audit::OpKind::kFinalRead);
  for (const auto& r : records) EXPECT_EQ(r.pid, 2u);
}

TEST(OpRecorderTest, OverflowDropsNewestAndCounts) {
  // Drop-newest keeps a contiguous program-order *prefix* per thread —
  // the truncation is at the tail, where the auditor can detect it via
  // the meta drop count rather than by a hole mid-stream.
  OpRecorder<Reg, std::string> rec(0, 1, /*capacity=*/4);
  for (std::int64_t i = 0; i < 10; ++i) {
    rec.record_update(0, "k", Stamp{static_cast<LogicalTime>(i + 1), 0},
                      Reg::write(i));
  }
  EXPECT_EQ(rec.captured(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto records = rec.drain();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].stamp.clock, i + 1);  // the prefix, not the tail
  }
}

/// Resident set size of this process in bytes (Linux /proc), 0 when
/// unavailable.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(OpRecorderTest, HugeCapacityCostsOnlyWhatIsRecorded) {
  // Storage grows as records arrive, so the capacity is only a cap: a
  // 2^40-record ring per thread (tens of terabytes if allocated up
  // front) must construct, record concurrently, and keep resident
  // memory proportional to the records captured.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 10'000;
  const std::size_t rss_before = resident_bytes();
  OpRecorder<Reg, std::string> rec(/*pid=*/0, kThreads,
                                   /*capacity=*/std::size_t{1} << 40);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        rec.record_update(t, "k", Stamp{static_cast<LogicalTime>(i + 1), 0},
                          Reg::write(static_cast<std::int64_t>(i)));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(rec.captured(), kThreads * kOpsPerThread);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::size_t rss_after = resident_bytes();
  if (rss_before > 0 && rss_after > rss_before) {
    // 80k records at ~100 B each, plus at most 2x segment slack.
    EXPECT_LT(rss_after - rss_before, std::size_t{64} << 20);
  }
  const auto records = rec.drain();
  ASSERT_EQ(records.size(), kThreads * kOpsPerThread);
  EXPECT_EQ(records.back().thread, kThreads - 1);
  EXPECT_EQ(records.back().stamp.clock, kOpsPerThread);
}

TEST(OpRecorderTest, DropsNewestExactlyAtANonSegmentBoundaryCapacity) {
  // Segment boundaries fall at kFirstSegment * (2^k - 1); a capacity
  // strictly inside the second segment clips that segment.
  constexpr std::size_t kFirst = OpRecorder<Reg, std::string>::kFirstSegment;
  constexpr std::size_t kCapacity = kFirst + kFirst / 2 + 3;
  OpRecorder<Reg, std::string> rec(0, 1, kCapacity);
  for (std::size_t i = 0; i < kCapacity + 40; ++i) {
    rec.record_update(0, "k", Stamp{static_cast<LogicalTime>(i + 1), 0},
                      Reg::write(static_cast<std::int64_t>(i)));
    EXPECT_EQ(rec.captured(), std::min(i + 1, kCapacity));
    EXPECT_EQ(rec.dropped(), i + 1 > kCapacity ? i + 1 - kCapacity : 0);
  }
  const auto records = rec.drain();
  ASSERT_EQ(records.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(records[i].stamp.clock, i + 1);
  }
}

TEST(OpRecorderTest, DrainOrderSurvivesSegmentBoundaries) {
  // Two threads interleave pushes across several segment boundaries;
  // the drain is still thread-major with each thread in push order,
  // final reads last.
  constexpr std::size_t kFirst = OpRecorder<Reg, std::string>::kFirstSegment;
  constexpr std::size_t kPerThread = 15 * kFirst + 5;  // spans 4 segments
  const std::string keys[2] = {"t0", "t1"};
  OpRecorder<Reg, std::string> rec(/*pid=*/3, /*threads=*/2,
                                   /*capacity=*/std::size_t{1} << 20);
  for (std::size_t i = 0; i < kPerThread; ++i) {
    for (std::size_t t = 0; t < 2; ++t) {
      rec.record_update(t, keys[t],
                        Stamp{static_cast<LogicalTime>(i + 1), 3},
                        Reg::write(static_cast<std::int64_t>(i)));
    }
  }
  rec.record_final_read("t0", kPerThread - 1);
  const auto records = rec.drain();
  ASSERT_EQ(records.size(), 2 * kPerThread + 1);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const auto& r = records[t * kPerThread + i];
      ASSERT_EQ(r.thread, t);
      ASSERT_EQ(r.key, keys[t]);
      ASSERT_EQ(r.stamp.clock, i + 1);
      ASSERT_EQ(r.update.value, static_cast<std::int64_t>(i));
    }
  }
  EXPECT_EQ(records.back().kind, audit::OpKind::kFinalRead);
}

// ----- JSONL interchange ----------------------------------------------

TEST(HistoryJsonlTest, RoundTripPreservesEverything) {
  OpRecorder<Reg, std::string> rec(1, 1, 8);
  rec.record_update(0, "x", Stamp{5, 1}, Reg::write(42));
  rec.record_query(0, "x", 5, 42);
  rec.record_final_read("x", 42);

  HistoryFile out;
  out.meta.n_processes = 2;
  out.meta.captured = rec.captured();
  out.meta.dropped = rec.dropped();
  out.meta.final_reads = rec.final_reads_recorded();
  append_history_lines(rec, &out.lines);

  std::stringstream ss;
  write_history_jsonl(ss, out.meta, out.lines);

  HistoryFile in;
  std::string err;
  ASSERT_TRUE(read_history_jsonl(ss, &in, &err)) << err;
  EXPECT_EQ(in.meta.n_processes, 2u);
  EXPECT_EQ(in.meta.captured, 2u);
  EXPECT_EQ(in.meta.final_reads, 1u);
  ASSERT_EQ(in.lines.size(), 3u);
  EXPECT_EQ(in.lines[0].op, 'u');
  EXPECT_EQ(in.lines[0].key, "x");
  EXPECT_EQ(in.lines[0].clock, 5u);
  EXPECT_EQ(in.lines[0].value, 42);
  EXPECT_EQ(in.lines[1].op, 'q');
  EXPECT_EQ(in.lines[2].op, 'f');
}

TEST(HistoryJsonlTest, MalformedLineIsAHardError) {
  std::stringstream ss;
  ss << R"({"p":0,"t":0,"op":"u","key":"k","clock":1,"val":3,"ts":0})"
     << "\nnot json\n";
  HistoryFile in;
  std::string err;
  EXPECT_FALSE(read_history_jsonl(ss, &in, &err));
  EXPECT_FALSE(err.empty());
}

// ----- auditor verdicts -----------------------------------------------

HistoryLine update_line(ProcessId p, const std::string& key,
                        LogicalTime clock, std::int64_t v) {
  HistoryLine l;
  l.pid = p;
  l.op = 'u';
  l.key = key;
  l.clock = clock;
  l.value = v;
  return l;
}

HistoryLine final_line(ProcessId p, const std::string& key, std::int64_t v) {
  HistoryLine l;
  l.pid = p;
  l.op = 'f';
  l.key = key;
  l.value = v;
  return l;
}

TEST(AuditorTest, StampReplayCertifiesAgreementOnTheLwwValue) {
  HistoryFile h;
  h.meta.n_processes = 2;
  h.lines = {update_line(0, "k", 1, 10), update_line(1, "k", 2, 20),
             final_line(0, "k", 20), final_line(1, "k", 20)};
  const AuditReport r = audit_history(h);
  EXPECT_EQ(r.uc, Verdict::Yes);
  EXPECT_EQ(r.ec, Verdict::Yes);
  EXPECT_EQ(r.keys_certified, 1u);
  EXPECT_TRUE(r.certified());
}

TEST(AuditorTest, DivergentFinalReadsRefute) {
  HistoryFile h;
  h.meta.n_processes = 2;
  h.lines = {update_line(0, "k", 1, 10), update_line(1, "k", 2, 20),
             final_line(0, "k", 10), final_line(1, "k", 20)};
  const AuditReport r = audit_history(h);
  EXPECT_EQ(r.uc, Verdict::No);
  EXPECT_EQ(r.ec, Verdict::No);
  ASSERT_EQ(r.problems.size(), 1u);
  EXPECT_EQ(r.problems[0].method, "divergent");
  EXPECT_TRUE(r.refuted());
}

TEST(AuditorTest, DroppedRecordsVoidCertification) {
  // Identical to the certifying history above, but the recorder lost a
  // record: a Yes would be unsound (the hole could hide anything), so
  // the whole-report verdict degrades to Unknown. Satellite: every
  // silent drop must be *visible* in the verdict, not just in a
  // counter.
  HistoryFile h;
  h.meta.n_processes = 2;
  h.meta.dropped = 1;
  h.lines = {update_line(0, "k", 1, 10), update_line(1, "k", 2, 20),
             final_line(0, "k", 20), final_line(1, "k", 20)};
  const AuditReport r = audit_history(h);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.uc, Verdict::Unknown);
  EXPECT_FALSE(r.certified());

  // Divergence refutations survive incompleteness: the disagreeing
  // responses really happened, no matter what was dropped.
  h.lines.back().value = 10;
  const AuditReport r2 = audit_history(h);
  EXPECT_EQ(r2.uc, Verdict::No);
}

TEST(AuditorTest, UnexplainedValueBecomesUnknownWhenIncomplete) {
  HistoryFile h;
  h.meta.n_processes = 1;
  h.lines = {update_line(0, "k", 1, 10), final_line(0, "k", 99)};
  EXPECT_EQ(audit_history(h).uc, Verdict::No);  // complete: refuted
  h.meta.dropped = 3;  // the write of 99 may be in the hole
  EXPECT_EQ(audit_history(h).uc, Verdict::Unknown);
}

// ----- per-key decomposition (satellite: scaling test) ----------------

TEST(PerKeyDecompositionTest, CertifiesWhereTheWholeHistorySolverCannot) {
  // 6 processes × 10 updates, each on its own register: the joint
  // downset lattice has ~11^6 ≈ 1.8M antichains, so a budgeted
  // whole-history check_uc gives up — while the per-key decomposition
  // certifies each single-chain register in linear time and joins the
  // witnesses with one toposort.
  using M = MemoryAdt<std::string, int>;
  HistoryBuilder<M> b{M{}, 6};
  for (ProcessId p = 0; p < 6; ++p) {
    const std::string key = "k" + std::to_string(p);
    for (int i = 1; i <= 10; ++i) b.update(p, M::write(key, i));
    b.query_omega(p, M::read(key), 10);
  }
  const History<M> h = b.build();

  const CheckResult whole = check_uc(h, ExploreBudget{.max_states = 2'000});
  EXPECT_EQ(whole.verdict, Verdict::Unknown);

  const CheckResult per_key = check_uc_per_key(h);
  EXPECT_EQ(per_key.verdict, Verdict::Yes) << per_key.explanation;
}

TEST(PerKeyDecompositionTest, RefutationComposesAcrossKeys) {
  using M = MemoryAdt<std::string, int>;
  HistoryBuilder<M> b{M{}, 2};
  b.update(0, M::write("a", 1));
  b.update(0, M::write("b", 2));
  b.query_omega(1, M::read("b"), 7);  // never written anywhere
  EXPECT_EQ(check_uc_per_key(b.build()).verdict, Verdict::No);
}

// ----- incremental certificate ----------------------------------------

TEST(IncrementalCertificateTest, StampReplayThenDownsetFallback) {
  IncrementalKeyCertificate<Reg> fast;
  fast.add_update(0, Stamp{1, 0}, Reg::write(1));
  fast.add_update(1, Stamp{2, 1}, Reg::write(2));
  fast.add_omega(Reg::read(), 2);
  const auto cert = fast.finalize();
  EXPECT_EQ(cert.uc, Verdict::Yes);
  EXPECT_EQ(cert.method, "stamp-replay");
  EXPECT_EQ(cert.ec, Verdict::Yes);

  // Forever reading the *non*-LWW value: the replay certificate fails,
  // but the exact solver finds the linearization [2, 1].
  IncrementalKeyCertificate<Reg> slow;
  slow.add_update(0, Stamp{1, 0}, Reg::write(1));
  slow.add_update(1, Stamp{2, 1}, Reg::write(2));
  slow.add_omega(Reg::read(), 1);
  const auto cert2 = slow.finalize();
  EXPECT_EQ(cert2.uc, Verdict::Yes);
  EXPECT_EQ(cert2.method, "downset");

  IncrementalKeyCertificate<Reg> split;
  split.add_omega(Reg::read(), 1);
  split.add_omega(Reg::read(), 2);  // ω-reads disagree: no common state
  EXPECT_EQ(split.finalize().ec, Verdict::No);
}

// ----- scenarios: replay, bug injection, shrinking --------------------

TEST(ScenarioTest, SpecSurvivesJsonRoundTrip) {
  const ScenarioSpec spec = audit::random_fault_scenario(
      /*seed=*/9, /*n_processes=*/4, /*ops_per_process=*/80,
      /*inject_bug=*/true);
  EXPECT_FALSE(spec.partitions.empty());
  ScenarioSpec back;
  std::string err;
  ASSERT_TRUE(ScenarioSpec::from_json(spec.to_json(), &back, &err)) << err;
  EXPECT_EQ(back.to_json().dump(), spec.to_json().dump());
}

TEST(ScenarioTest, CleanRandomFaultRunCertifies) {
  const ScenarioSpec spec = audit::random_fault_scenario(7, 3, 120);
  const auto result = audit::run_scenario(spec);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.audit.complete);
  EXPECT_EQ(result.audit.uc, Verdict::Yes) << result.audit.summary();
  EXPECT_GT(result.audit.final_reads, 0u);
}

TEST(ScenarioTest, CleanRunDrainingBeforeTheHorizonCertifies) {
  // Seed 56's schedule drains at ~21.8 ms virtual, far inside the
  // horizon. The quiesce flushes scheduled after that drain must still
  // be delivered (the clock may not jump to the horizon), or replicas
  // final-read stale states and a clean store is refuted.
  const ScenarioSpec spec = audit::random_fault_scenario(56, 3, 120);
  const auto result = audit::run_scenario(spec);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.audit.uc, Verdict::Yes) << result.audit.summary();
  EXPECT_LT(result.duration_us, spec.to_run_config().sim_horizon);
}

TEST(ScenarioTest, LongRunHorizonScalesWithTheSchedule) {
  // 2000 ops/process spans ~240 ms of virtual think time alone; a
  // fixed 250 ms horizon cut such runs off mid-workload.
  EXPECT_EQ(audit::random_fault_scenario(1, 3, 120).to_run_config()
                .sim_horizon,
            250'000.0);
  const ScenarioSpec spec = audit::random_fault_scenario(1, 3, 2000);
  EXPECT_GE(spec.to_run_config().sim_horizon, 10.0 * 2000 * spec.mean_think_us);
  const auto result = audit::run_scenario(spec);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.audit.complete);
  EXPECT_EQ(result.audit.uc, Verdict::Yes) << result.audit.summary();
}

TEST(ScenarioTest, ReplayIsDeterministic) {
  const ScenarioSpec spec = audit::random_fault_scenario(11, 3, 60);
  const auto a = audit::run_scenario(spec);
  const auto b = audit::run_scenario(spec);
  ASSERT_EQ(a.history.lines.size(), b.history.lines.size());
  for (std::size_t i = 0; i < a.history.lines.size(); ++i) {
    EXPECT_EQ(a.history.lines[i].key, b.history.lines[i].key);
    EXPECT_EQ(a.history.lines[i].value, b.history.lines[i].value);
    EXPECT_EQ(a.history.lines[i].clock, b.history.lines[i].clock);
  }
  EXPECT_EQ(a.audit.uc, b.audit.uc);
}

/// Seed chosen (and pinned) so the folded-ack bug actually bites:
/// premature GC under the partition makes replicas install diverging
/// snapshots, and the final reads disagree.
ScenarioSpec refuting_spec() {
  return audit::random_fault_scenario(/*seed=*/6, /*n_processes=*/3,
                                      /*ops_per_process=*/200,
                                      /*inject_bug=*/true);
}

TEST(ScenarioTest, InjectedBugIsRefutedWithDotWitness) {
  const std::string dir = ::testing::TempDir();
  AuditOptions opt;
  opt.dot_dir = dir;
  const auto result = audit::run_scenario(refuting_spec(), "", opt);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.audit.refuted()) << result.audit.summary();
  ASSERT_FALSE(result.audit.problems.empty());
  EXPECT_EQ(result.audit.problems[0].method, "divergent");
  ASSERT_FALSE(result.audit.dot_files.empty());
  std::ifstream dot(result.audit.dot_files[0]);
  ASSERT_TRUE(dot.good()) << result.audit.dot_files[0];
  std::stringstream ss;
  ss << dot.rdbuf();
  EXPECT_NE(ss.str().find("digraph history"), std::string::npos);
}

TEST(ShrinkTest, ShrunkScenarioIsMinimalAndStillFailing) {
  const ScenarioSpec original = refuting_spec();
  const auto is_failing = [](const ScenarioSpec& s) {
    return audit::run_scenario(s).audit.refuted();
  };
  ASSERT_TRUE(is_failing(original));

  const auto result = audit::shrink_scenario(original, is_failing);
  EXPECT_TRUE(result.minimal);
  EXPECT_LT(result.spec.total_ops(), original.total_ops());
  EXPECT_LE(result.spec.fault_events(), original.fault_events());

  // The shrunk schedule still reproduces on replay…
  EXPECT_TRUE(is_failing(result.spec));

  // …and is 1-minimal: dropping any remaining fault event, or removing
  // one more op from any process, makes the failure vanish. This is an
  // independent re-verification of the fixpoint the shrinker claims.
  for (std::size_t i = 0; i < result.spec.partitions.size(); ++i) {
    ScenarioSpec cand = result.spec;
    cand.partitions.erase(cand.partitions.begin() +
                          static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(is_failing(cand)) << "partition " << i << " removable";
  }
  for (std::size_t i = 0; i < result.spec.restarts.size(); ++i) {
    ScenarioSpec cand = result.spec;
    cand.restarts.erase(cand.restarts.begin() +
                        static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(is_failing(cand)) << "restart " << i << " removable";
  }
  for (std::size_t p = 0; p < result.spec.ops_per_process.size(); ++p) {
    if (result.spec.ops_per_process[p] == 0) continue;
    ScenarioSpec cand = result.spec;
    --cand.ops_per_process[p];
    EXPECT_FALSE(is_failing(cand)) << "op of process " << p << " removable";
  }
}

// ----- pooled thread-store frontend ------------------------------------

TEST(ThreadStoreAuditTest, PooledRunThroughPartitionCertifies) {
  // Two pooled stores, two producer threads each, a mid-run hold-mode
  // ThreadNetwork partition, then heal + drain: per-producer recorder
  // rings capture every op concurrently, and the exported history must
  // certify — the live frontend feeding the same offline pipeline as
  // the DES harness.
  using TS = ThreadUcStore<Reg>;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kOpsPerProducer = 150;
  constexpr std::size_t kKeys = 8;

  ThreadNetwork<TS::Envelope> net(2);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 4;
  cfg.shard_count = 8;
  std::vector<std::unique_ptr<TS>> stores;
  std::vector<std::unique_ptr<OpRecorder<Reg, std::string>>> recorders;
  for (ProcessId p = 0; p < 2; ++p) {
    stores.push_back(std::make_unique<TS>(Reg{}, p, net, cfg));
    recorders.push_back(std::make_unique<OpRecorder<Reg, std::string>>(
        p, kProducers, /*capacity=*/4096));
    stores[p]->set_recorder(recorders[p].get());
  }

  net.partition({0, 1});  // cross-process traffic held, not dropped
  std::vector<std::thread> producers;
  for (ProcessId p = 0; p < 2; ++p) {
    for (std::size_t c = 0; c < kProducers; ++c) {
      producers.emplace_back([&, p, c] {
        for (std::size_t i = 0; i < kOpsPerProducer; ++i) {
          const std::string k =
              "k" + std::to_string((i + c) % kKeys);
          const std::int64_t v = static_cast<std::int64_t>(
              (p * kProducers + c) * kOpsPerProducer + i + 1);
          stores[p]->update(k, Reg::write(v));
          if (i % 16 == 0) (void)stores[p]->query(k, Reg::read());
        }
        stores[p]->flush();
      });
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_GT(net.held_messages(), 0u);
  net.heal();  // held cross-group traffic released in FIFO order
  EXPECT_EQ(net.held_messages(), 0u);
  for (auto& s : stores) {
    s->drain_until(2 * kProducers * kOpsPerProducer);
  }

  HistoryFile h;
  h.meta.n_processes = 2;
  for (ProcessId p = 0; p < 2; ++p) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      recorders[p]->record_final_read(
          key, stores[p]->adt().output(stores[p]->state_of(key),
                                       Reg::read()));
    }
    h.meta.captured += recorders[p]->captured();
    h.meta.dropped += recorders[p]->dropped();
    h.meta.final_reads += recorders[p]->final_reads_recorded();
    append_history_lines(*recorders[p], &h.lines);
  }
  net.close_all();

  EXPECT_EQ(h.meta.dropped, 0u);
  const AuditReport report = audit_history(h);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.uc, Verdict::Yes) << report.summary();
  EXPECT_EQ(report.final_reads, 2 * kKeys);
}

}  // namespace
}  // namespace ucw
