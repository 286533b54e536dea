// E14 — single-node saturation: the pooled frontend when one box runs
// producers and workers flat out.
//
// Two arms over a `--workers=` sweep (default 1,2,4) at a fixed
// `--producers=` client-thread count (default 4), 2 processes on the
// thread transport, a mixed read/write workload over 512 zipfian keys:
// per process, all client threads but one issue set inserts while the
// last is a dedicated reader hammering hot-biased get()s — so the
// sweep saturates the update pipeline AND the read path the way a
// frontend actually runs them (read-serving threads segregated from
// writers):
//
//   sharded         delivery partitions envelope entries straight into
//                   the owning workers' remote inboxes (a shard-index
//                   computation plus one multi-slot ring claim per
//                   worker — no lock, no copies), workers drain in
//                   blocks, and get() on a published key answers from
//                   the immutable shared snapshot (zero state copies).
//                   pin_workers is set, exercising the opt-in affinity
//                   knob wherever this bench runs.
//   sharded+batch   sharded plus update_batch(): producers hand the
//                   frontend 16 updates per call and each worker's
//                   group lands with one multi-slot ring CAS.
//
// Per arm the table reports cluster ops/sec (updates + gets), hot-key
// get() latency (p50/p99 over 20k post-drain samples), and ring CAS
// per update (singles pay one claim CAS each; a multi-slot claim
// amortizes one over the group — computed from the
// ring_batch_claims/ring_batch_ops counters). The table prints the
// detected core count: on few cores the pool buys shed lock/CAS/copy
// work, not parallelism. Numbers for the router-locked delivery arm,
// since removed from the store, are in BENCH_e14_router_arm.json at the
// repository root.
//
// `--json-out=` writes the machine-readable twin (BENCH_e14.json in
// CI); `--metrics-out=` exports a sharded run's metrics snapshot for
// tools/check_trace.py --require-counter. Exits nonzero when any arm
// diverges.
#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/store_harness.hpp"
#include "util/mpsc_ring.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;
using TC = ThreadUcStore<S>;

constexpr std::size_t kProcs = 2;
constexpr std::size_t kKeys = 512;
constexpr std::size_t kValueRange = 64;  // sets saturate at 64 elements
constexpr std::size_t kBatch = 16;
constexpr std::size_t kGetSamples = 20'000;

struct ArmResult {
  std::string arm;
  std::size_t workers = 0;
  std::size_t producers = 0;
  std::uint64_t updates = 0;
  std::uint64_t gets = 0;
  double wall_seconds = 0.0;
  double ops_per_sec = 0.0;  // updates + gets, whole cluster
  double get_p50_ns = 0.0;
  double get_p99_ns = 0.0;
  double cas_per_update = 0.0;
  StoreStats stats;  // summed over both processes
  bool converged = false;
};

ArmResult run_arm(const std::string& arm, std::size_t workers,
                  std::size_t producers, std::size_t ops_per_process,
                  bool batched, const std::string& metrics_out = {}) {
  ThreadNetwork<TC::Envelope> net(kProcs);
  StoreConfig cfg;
  cfg.workers = workers;
  cfg.batch_window = 64;
  cfg.shard_count = 16;
  // Affinity pinning on, so the opt-in knob is exercised by every CI
  // smoke run (a no-op where it cannot bind).
  cfg.pin_workers = true;
  std::vector<std::unique_ptr<TC>> stores;
  for (ProcessId p = 0; p < kProcs; ++p) {
    stores.push_back(std::make_unique<TC>(S{}, p, net, cfg));
  }
  std::atomic<std::uint64_t> updates_sent{0};
  std::atomic<std::uint64_t> gets_sent{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (ProcessId p = 0; p < kProcs; ++p) {
    for (std::size_t c = 0; c < producers; ++c) {
      // Role split: the last client thread per process is a dedicated
      // reader (gets only), the rest are writers — the shape frontends
      // actually run, with read-serving threads segregated from the
      // write path. A thread that interleaves get() between its own
      // updates pays the read-your-writes ring fallback on nearly
      // every read when the box has fewer cores than threads (its
      // ticket is always ahead of the worker); that cost is identical
      // in every arm and would bury the delivery/read-path costs
      // this bench exists to price. The RYW fallback
      // path has its own coverage in thread_store_test.
      const bool reader = workers > 1 && producers > 1 &&
                          c == producers - 1;
      clients.emplace_back([&, p, c, reader] {
        ZipfianKeys keyspace(kKeys, 0.99);
        Rng rng(40 + p * 31 + c);
        const std::size_t share =
            ops_per_process / producers +
            (c < ops_per_process % producers ? 1 : 0);
        std::uint64_t n_updates = 0, n_gets = 0;
        // update_batch consumes the elements but leaves the buffer's
        // capacity — one allocation for the whole run.
        std::vector<std::pair<std::string, S::Update>> ops;
        if (batched) ops.reserve(kBatch);
        for (std::size_t i = 0; i < share; ++i) {
          // Reader thread: every op is a hot-biased get — the zipfian
          // sample concentrates reads on keys whose views are (or on
          // first touch become) published. Unpooled (workers <= 1)
          // stores have a single mixed client instead: get() there is
          // a direct local read, so interleaving costs nothing.
          if (reader || (workers <= 1 && i % 4 == 3)) {
            benchmark::DoNotOptimize(
                stores[p]->get(keyspace.sample(rng), S::read()));
            ++n_gets;
            continue;
          }
          const int v =
              static_cast<int>(rng.uniform_int(0, kValueRange - 1));
          if (batched) {
            ops.emplace_back(keyspace.sample(rng), S::insert(v));
            if (ops.size() == kBatch) (void)stores[p]->update_batch(ops);
          } else {
            stores[p]->update(keyspace.sample(rng), S::insert(v));
          }
          ++n_updates;
        }
        if (batched && !ops.empty()) (void)stores[p]->update_batch(ops);
        stores[p]->flush();
        updates_sent.fetch_add(n_updates, std::memory_order_relaxed);
        gets_sent.fetch_add(n_gets, std::memory_order_relaxed);
      });
    }
  }
  for (auto& t : clients) t.join();
  const std::uint64_t total_updates =
      updates_sent.load(std::memory_order_relaxed);
  for (auto& s : stores) s->drain_until(total_updates);
  ArmResult r;
  r.arm = arm;
  r.workers = workers;
  r.producers = producers;
  r.updates = total_updates;
  r.gets = gets_sent.load(std::memory_order_relaxed);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  r.ops_per_sec =
      r.wall_seconds > 0
          ? static_cast<double>(r.updates + r.gets) / r.wall_seconds
          : 0.0;
  r.converged = true;
  bool any_nonempty = false;
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::string key = ZipfianKeys::key_name(k);
    const auto s0 = stores[0]->state_of(key);
    if (!s0.empty()) any_nonempty = true;
    if (stores[1]->state_of(key) != s0) r.converged = false;
  }
  if (!any_nonempty) r.converged = false;

  // Hot-key read latency, measured post-drain so the samples time the
  // read path itself: one output copy from the published snapshot.
  const std::string hot = ZipfianKeys::key_name(0);
  (void)stores[0]->get(hot, S::read());  // cold get: promotes the key
  bench::LatencySummary get_ns;
  for (std::size_t i = 0; i < kGetSamples; ++i) {
    const auto s0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(stores[0]->get(hot, S::read()));
    get_ns.add(std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - s0)
                   .count());
  }
  r.get_p50_ns = get_ns.percentile(50);
  r.get_p99_ns = get_ns.percentile(99);
  for (const auto& s : stores) {
    const StoreStats ss = s->stats();
    r.stats.local_updates += ss.local_updates;
    r.stats.inbox_deliveries += ss.inbox_deliveries;
    r.stats.ring_batch_claims += ss.ring_batch_claims;
    r.stats.ring_batch_ops += ss.ring_batch_ops;
    r.stats.zero_copy_reads += ss.zero_copy_reads;
    r.stats.ryw_ring_fallbacks += ss.ryw_ring_fallbacks;
    r.stats.worker_parks += ss.worker_parks;
    r.stats.worker_wakes += ss.worker_wakes;
  }
  // Every update costs one ring push-CAS unless it rode a multi-slot
  // claim: ops that landed in batches are ring_batch_ops, paid for by
  // ring_batch_claims CASes instead of one each.
  const double singles =
      static_cast<double>(total_updates) -
      static_cast<double>(r.stats.ring_batch_ops);
  r.cas_per_update =
      total_updates > 0
          ? (singles + static_cast<double>(r.stats.ring_batch_claims)) /
                static_cast<double>(total_updates)
          : 0.0;
  if (!metrics_out.empty()) {
    obs::Report report;
    for (const auto& s : stores) {
      report.processes.push_back(obs::make_process_report(*s));
    }
    std::ofstream f(metrics_out);
    obs::export_metrics_json(f, report);
  }
  net.close_all();
  return r;
}

void append_json_arm(std::string& out, const ArmResult& r, bool last) {
  out += "    {\"arm\": \"" + r.arm + "\"";
  out += ", \"workers\": " + std::to_string(r.workers);
  out += ", \"producers\": " + std::to_string(r.producers);
  out += ", \"updates\": " + std::to_string(r.updates);
  out += ", \"gets\": " + std::to_string(r.gets);
  out += ", \"ops_per_sec\": " + std::to_string(r.ops_per_sec);
  out += ", \"get_p50_ns\": " + std::to_string(r.get_p50_ns);
  out += ", \"get_p99_ns\": " + std::to_string(r.get_p99_ns);
  out += ", \"ring_cas_per_update\": " + std::to_string(r.cas_per_update);
  out += ", \"inbox_deliveries\": " +
         std::to_string(r.stats.inbox_deliveries);
  out += ", \"ring_batch_claims\": " +
         std::to_string(r.stats.ring_batch_claims);
  out += ", \"ring_batch_ops\": " + std::to_string(r.stats.ring_batch_ops);
  out += ", \"zero_copy_reads\": " + std::to_string(r.stats.zero_copy_reads);
  out += ", \"ryw_ring_fallbacks\": " +
         std::to_string(r.stats.ryw_ring_fallbacks);
  out += ", \"worker_parks\": " + std::to_string(r.stats.worker_parks);
  out += ", \"worker_wakes\": " + std::to_string(r.stats.worker_wakes);
  out += std::string(", \"converged\": ") +
         (r.converged ? "true" : "false");
  out += last ? "}\n" : "},\n";
}

/// Runs the sweep, prints the table, writes the JSON/metrics artifacts.
/// Returns false when any arm diverged (the CI smoke step fails on it).
bool run_saturation_sweep(const std::vector<std::size_t>& worker_counts,
                          std::size_t producers,
                          std::size_t ops_per_process,
                          const std::string& json_out,
                          const std::string& metrics_out) {
  print_banner(std::cout,
               "E14: single-node saturation (2 processes, " +
                   std::to_string(producers) +
                   " clients each (last is a dedicated reader), zipf "
                   "0.99 set inserts + hot-biased gets over 512 keys, "
                   "window 64; batch arm = 16 updates/call)");
  std::cout << "hardware threads detected: "
            << std::thread::hardware_concurrency()
            << " (on few cores the pool buys shed lock/CAS/copy "
               "work, not parallelism)\n";
  TextTable t({"workers", "producers", "arm", "updates", "gets",
               "best wall ms", "ops/sec", "get p50 ns", "get p99 ns",
               "CAS/update", "inbox dlvr", "parks", "wakes", "converged"});
  std::vector<ArmResult> results;
  bool all_converged = true;
  const std::size_t max_workers =
      *std::max_element(worker_counts.begin(), worker_counts.end());
  constexpr int kReps = 3;  // best-of, arms interleaved per rep —
                            // scheduler noise must not read as speedup
  constexpr int kArms = 2;
  (void)run_arm("warmup", max_workers, producers, ops_per_process,
                /*batched=*/false);
  for (std::size_t w : worker_counts) {
    // workers <= 1 runs the unpooled single-owner store, which admits
    // exactly one client thread — the point is kept in the sweep as
    // the no-frontend baseline, clamped to 1 producer.
    const std::size_t prod = w > 1 ? producers : 1;
    std::vector<ArmResult> best(kArms);
    for (int rep = 0; rep < kReps; ++rep) {
      for (int arm = 0; arm < kArms; ++arm) {
        const bool batched = arm == 1;
        const char* name = batched ? "sharded+batch" : "sharded";
        // The last batched rep at the top worker count exports the
        // metrics snapshot CI validates.
        const bool exports =
            batched && w == max_workers && rep == kReps - 1;
        ArmResult r = run_arm(name, w, prod, ops_per_process, batched,
                              exports ? metrics_out : std::string{});
        all_converged = all_converged && r.converged;
        if (!r.converged) best[arm].converged = false;
        if (best[arm].updates == 0 ||
            r.wall_seconds < best[arm].wall_seconds) {
          const bool diverged_before =
              best[arm].updates != 0 && !best[arm].converged;
          best[arm] = std::move(r);
          if (diverged_before) best[arm].converged = false;
        }
      }
    }
    for (const ArmResult& r : best) {
      t.add(w, prod, r.arm, r.updates, r.gets, r.wall_seconds * 1e3,
            r.ops_per_sec, r.get_p50_ns, r.get_p99_ns, r.cas_per_update,
            r.stats.inbox_deliveries, r.stats.worker_parks,
            r.stats.worker_wakes, r.converged ? "yes" : "NO");
      results.push_back(r);
    }
  }
  t.print(std::cout);
  if (!json_out.empty()) {
    std::string j = "{\n  \"experiment\": \"E14\",\n";
    j += "  \"producers\": " + std::to_string(producers) + ",\n";
    j += "  \"ops_per_process\": " + std::to_string(ops_per_process) +
         ",\n";
    j += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
    j += "  \"arms\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      append_json_arm(j, results[i], i + 1 == results.size());
    }
    j += "  ]\n}\n";
    std::ofstream f(json_out);
    f << j;
    std::cout << "json written to " << json_out << "\n";
  }
  return all_converged;
}

// Microbench: the producer-side ring claim itself — one try_push per
// op versus one multi-slot try_push_n per 16 — on an otherwise idle
// ring drained in blocks by this same thread (the consumer cost is
// identical across both arms, so the delta is the claim protocol).
void BM_RingPush(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  MpscRing<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> vals(batch, 7);
  std::vector<std::uint64_t> out;
  out.reserve(1024);
  for (auto _ : state) {
    if (batch == 1) {
      while (!ring.try_push(std::uint64_t{7})) {
        (void)ring.try_pop_n(out, 1024);
        out.clear();
      }
    } else {
      while (!ring.try_push_n(vals.data(), batch)) {
        (void)ring.try_pop_n(out, 1024);
        out.clear();
      }
    }
  }
  (void)ring.try_pop_n(out, 1024);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_RingPush)->Arg(1)->Arg(16)->Unit(benchmark::kNanosecond);

/// Lenient "a,b,c" parse for --workers= (digits/commas only; empty
/// falls back).
std::vector<std::size_t> parse_counts(
    const std::string& s, const std::vector<std::size_t>& fallback) {
  std::vector<std::size_t> out;
  std::size_t v = 0;
  for (const char c : s) {
    if (c == ',') {
      if (v > 0) out.push_back(v);
      v = 0;
    } else if (c >= '0' && c <= '9') {
      v = v * 10 + static_cast<std::size_t>(c - '0');
    }
  }
  if (v > 0) out.push_back(v);
  return out.empty() ? fallback : out;
}

std::size_t parse_count(const std::string& s, std::size_t fallback) {
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return fallback;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  return v > 0 ? v : fallback;
}

}  // namespace

// Custom main: `--workers=a,b,c` picks the sweep points,
// `--producers=N` the client threads per process, `--ops=N` the
// per-process op count (updates + gets), `--json-out=`/`--metrics-out=`
// the artifact paths. All are stripped before google-benchmark sees
// the arguments.
int main(int argc, char** argv) {
  std::vector<std::size_t> worker_counts = {1, 2, 4};
  std::size_t producers = 4;
  std::size_t ops = 40'000;
  std::string json_out, metrics_out;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      worker_counts = parse_counts(arg.substr(10), worker_counts);
    } else if (arg.rfind("--producers=", 0) == 0) {
      producers = parse_count(arg.substr(12), producers);
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops = parse_count(arg.substr(6), ops);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bool converged =
      run_saturation_sweep(worker_counts, producers, ops, json_out,
                           metrics_out);
  int pargc = static_cast<int>(passthrough.size());
  ::benchmark::Initialize(&pargc, passthrough.data());
  if (::benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return converged ? 0 : 1;
}
