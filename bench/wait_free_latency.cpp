// E8 — the Attiya–Welch separation (paper §I): strongly consistent
// operations must wait for the network; update-consistent operations are
// wait-free (local).
//
// On the same simulated network, for a sweep of mean latencies λ:
//   * UC object: update = local apply + async broadcast, query = local
//     replay → 0 simulated wait regardless of λ;
//   * quorum-linearizable register (ABD): write waits one majority round
//     trip, read waits two → completion time proportional to λ.
// A second table runs the real std::thread transport: replicas exchange
// messages through inboxes while callers keep issuing wait-free ops; a
// mutex-protected set (the "one physical object" strawman) is shown for
// scale.
#include "bench_common.hpp"

#include <atomic>
#include <mutex>
#include <thread>

#include "core/all.hpp"
#include "net/thread_network.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;

void print_des_table() {
  print_banner(std::cout,
               "E8: operation completion time vs network latency "
               "(virtual µs; 3 replicas, constant λ)");
  TextTable t({"mean latency λ", "UC update", "UC query", "quorum write",
               "quorum read"});
  for (double lambda : {100.0, 1'000.0, 10'000.0}) {
    SimScheduler scheduler;

    SimNetwork<UpdateMessage<S>>::Config ucfg;
    ucfg.n_processes = 3;
    ucfg.latency = LatencyModel::constant(lambda);
    SimNetwork<UpdateMessage<S>> unet(scheduler, ucfg);
    std::vector<std::unique_ptr<SimUcObject<S>>> uc;
    for (ProcessId p = 0; p < 3; ++p) {
      uc.push_back(std::make_unique<SimUcObject<S>>(S{}, p, unet));
    }
    const double t0 = scheduler.now();
    uc[0]->update(S::insert(1));
    const double uc_update = scheduler.now() - t0;  // returns immediately
    (void)uc[1]->query(S::read());
    const double uc_query = scheduler.now() - t0;

    SimNetwork<QuorumMessage<int>>::Config qcfg;
    qcfg.n_processes = 3;
    qcfg.latency = LatencyModel::constant(lambda);
    SimNetwork<QuorumMessage<int>> qnet(scheduler, qcfg);
    std::vector<std::unique_ptr<QuorumRegister<int>>> regs;
    for (ProcessId p = 0; p < 3; ++p) {
      regs.push_back(std::make_unique<QuorumRegister<int>>(p, 0, qnet));
    }
    double w_start = scheduler.now(), w_done = -1;
    regs[0]->write(1, [&] { w_done = scheduler.now() - w_start; });
    scheduler.run();
    double r_start = scheduler.now(), r_done = -1;
    regs[1]->read([&](int) { r_done = scheduler.now() - r_start; });
    scheduler.run();

    t.add(lambda, uc_update, uc_query, w_done, r_done);
  }
  t.print(std::cout);
  std::cout << "\nPaper (§I, Attiya–Welch): linearizable ops cost Ω(λ); "
               "Algorithm 1's ops finish without touching the scheduler — "
               "availability survives any latency (or partition).\n";
}

void print_thread_table() {
  print_banner(std::cout,
               "E8b: real-thread transport, 4 replicas × 20k updates "
               "each (wall clock)");
  TextTable t({"object", "total ops", "wall ms", "M ops/s"});

  // Wait-free UC counter over thread inboxes.
  {
    constexpr std::size_t kThreads = 4;
    constexpr int kOps = 20'000;
    using Msg = UpdateMessage<CounterAdt>;
    ThreadNetwork<Msg> net(kThreads);
    std::vector<std::unique_ptr<ReplayReplica<CounterAdt>>> replicas;
    for (ProcessId p = 0; p < kThreads; ++p) {
      replicas.push_back(std::make_unique<ReplayReplica<CounterAdt>>(
          CounterAdt{}, p));
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (ProcessId p = 0; p < kThreads; ++p) {
      threads.emplace_back([&, p] {
        auto& replica = *replicas[p];
        for (int i = 0; i < kOps; ++i) {
          auto m = replica.local_update(CounterAdt::add(1));
          replica.apply(p, m);       // self-delivery
          net.broadcast_others(p, m);
          // Drain whatever peers sent meanwhile (wait-free: try_pop).
          while (auto env = net.inbox(p).try_pop()) {
            replica.apply(env->from, env->payload);
          }
        }
        // Final drain until everyone's updates arrived.
        while (replica.log().size() < kThreads * kOps) {
          if (auto env = net.inbox(p).pop_wait()) {
            replica.apply(env->from, env->payload);
          } else {
            break;
          }
        }
        net.inbox(p).close();
      });
    }
    for (auto& th : threads) th.join();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    bool ok = true;
    for (auto& r : replicas) {
      ok &= r->query(CounterAdt::read()) ==
            static_cast<std::int64_t>(kThreads * kOps);
    }
    t.add(std::string("UC counter (Algorithm 1)") + (ok ? "" : " [BUG]"),
          kThreads * kOps, ms, kThreads * kOps / ms / 1e3);
  }

  // Mutex-protected counter: the strongly consistent single object.
  {
    constexpr std::size_t kThreads = 4;
    constexpr int kOps = 20'000;
    std::mutex mu;
    std::int64_t value = 0;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kThreads; ++p) {
      threads.emplace_back([&] {
        for (int i = 0; i < kOps; ++i) {
          std::lock_guard lock(mu);
          ++value;
        }
      });
    }
    for (auto& th : threads) th.join();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    t.add(value == kThreads * kOps ? "mutex counter (shared memory)"
                                   : "mutex counter [BUG]",
          kThreads * kOps, ms, kThreads * kOps / ms / 1e3);
  }
  t.print(std::cout);
  std::cout << "\nIn shared memory a mutex is cheap; the separation the "
               "paper targets is message-passing latency, which the table "
               "above (E8) makes explicit. This table shows the replicas "
               "run correctly under genuine concurrency.\n";
}

void print_tables() {
  print_des_table();
  print_thread_table();
}

void BM_UcUpdateLatency(benchmark::State& state) {
  SimScheduler scheduler;
  SimNetwork<UpdateMessage<S>>::Config cfg;
  cfg.n_processes = 3;
  cfg.latency = LatencyModel::constant(1'000.0);
  SimNetwork<UpdateMessage<S>> net(scheduler, cfg);
  std::vector<std::unique_ptr<SimUcObject<S>>> objs;
  for (ProcessId p = 0; p < 3; ++p) {
    objs.push_back(std::make_unique<SimUcObject<S>>(S{}, p, net));
  }
  int v = 0;
  for (auto _ : state) {
    objs[0]->update(S::insert(v++ % 16));
    if (v % 256 == 0) {
      state.PauseTiming();
      scheduler.run();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UcUpdateLatency);

void BM_QuorumWriteLatency(benchmark::State& state) {
  // Wall time of driving one quorum write to completion (simulated
  // waiting included as scheduler work).
  SimScheduler scheduler;
  SimNetwork<QuorumMessage<int>>::Config cfg;
  cfg.n_processes = 3;
  cfg.latency = LatencyModel::constant(1'000.0);
  SimNetwork<QuorumMessage<int>> net(scheduler, cfg);
  std::vector<std::unique_ptr<QuorumRegister<int>>> regs;
  for (ProcessId p = 0; p < 3; ++p) {
    regs.push_back(std::make_unique<QuorumRegister<int>>(p, 0, net));
  }
  int v = 0;
  for (auto _ : state) {
    bool done = false;
    regs[0]->write(v++, [&done] { done = true; });
    scheduler.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuorumWriteLatency);

}  // namespace

UCW_BENCH_MAIN(print_tables)
