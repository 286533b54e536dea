// Worker-pool correctness: a pooled ThreadUcStore must be
// indistinguishable, per key, from the single-owner store and from the
// Sim transport. Five layers:
//
//  1. The MPSC ring itself: FIFO, wraparound, per-producer FIFO under
//     producer contention, back-pressure when full — the per-producer
//     guarantee is what read-your-writes and the stream guard lean on.
//  2. The shard→worker assignment: a pure function of key and config,
//     disjoint across workers and stable across restarts — what lets a
//     restarted process (or any replica of the config) route a key to
//     the same single owner every time.
//  3. Convergence: with insert-only updates the converged per-key state
//     is the set union of everything issued — independent of
//     arbitration order — so a 4-worker cluster, a 1-worker cluster and
//     a Sim cluster fed the *same scripts* must agree exactly, key by
//     key, while the 4-worker run exercises real cross-thread routing,
//     concurrent per-worker flushes and the shared atomic clock.
//  4. The multi-producer frontend: several client threads feeding one
//     pooled store concurrently — per-key states must still match the
//     single-producer and Sim runs, every thread must read its own
//     writes through query(), and a driver thread may tick flush()
//     *while* producers update (the honest-ack barrier at work).
//  5. The idle policy: a parked worker is woken by plain updates only
//     once a flush window waits, still applies a sub-window backlog on
//     its own, and every sync op (get() fallback, flush(), quiesce())
//     returns on it. Calls that hung in a past regression run under a
//     deadline that fails the test process instead of hanging it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adt/all.hpp"
#include "net/scheduler.hpp"
#include "runtime/keyspace.hpp"
#include "store/all.hpp"
#include "util/mpsc_ring.hpp"
#include "util/rng.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using TS = ThreadUcStore<S>;

TEST(MpscRingTest, FifoAndBackpressureSingleProducer) {
  // Degenerate single-producer use: plain FIFO with back-pressure.
  MpscRing<int> ring(8);
  for (int round = 0; round < 5; ++round) {  // wraps the slot sequences
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(ring.try_push(round * 8 + i));
    }
    int overflow = 999;
    EXPECT_FALSE(ring.try_push(std::move(overflow)));  // full: back-pressure
    for (int i = 0; i < 8; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, round * 8 + i);
    }
    EXPECT_FALSE(ring.try_pop().has_value());
    EXPECT_TRUE(ring.empty());
  }
}

TEST(MpscRingTest, PerProducerFifoUnderContention) {
  // 4 producers race pushes of (producer, seq) pairs through a small
  // ring (forcing wraparound and back-pressure); the consumer must see
  // each producer's sequence strictly in order — the property the
  // pooled store's read-your-writes and stream-guard reasoning rest on.
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 10'000;
  MpscRing<std::uint64_t> ring(64);
  std::thread consumer([&] {
    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t popped = 0;
    while (popped < kProducers * kPerProducer) {
      if (auto v = ring.try_pop()) {
        const std::uint64_t p = *v >> 32;
        const std::uint64_t seq = *v & 0xffffffffu;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
        ++next[p];
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t v = (p << 32) | i;
        while (!ring.try_push(std::move(v))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(ring.pushed(), kProducers * kPerProducer);
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRingTest, PushNIsAllOrNothing) {
  // A multi-slot claim either lands whole or not at all: with 5 of 8
  // slots taken, a 4-slot push must fail without writing anything, and
  // the ring must still drain exactly the 5 singles in order.
  MpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  std::vector<int> batch = {100, 101, 102, 103};
  EXPECT_FALSE(ring.try_push_n(batch.data(), batch.size()));
  std::vector<int> out;
  EXPECT_EQ(ring.try_pop_n(out, 8), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ring.empty());
  // With room, the same batch lands whole and in order.
  EXPECT_TRUE(ring.try_push_n(batch.data(), batch.size()));
  out.clear();
  EXPECT_EQ(ring.try_pop_n(out, 8), 4u);
  EXPECT_EQ(out, (std::vector<int>{100, 101, 102, 103}));
}

TEST(MpscRingTest, MultiSlotClaimsKeepPerProducerFifo) {
  // 3 producers race a mix of single pushes and 4-slot batched claims
  // of (producer, seq) pairs through a small ring (wraparound + back-
  // pressure); the consumer drains in blocks with try_pop_n. Each
  // producer's sequence must still come out strictly in order — the
  // multi-slot extension of the per-producer FIFO guarantee that
  // read-your-writes and the ack-honesty protocol lean on.
  constexpr std::uint64_t kProducers = 3;
  constexpr std::uint64_t kPerProducer = 12'000;
  constexpr std::size_t kBatch = 4;
  MpscRing<std::uint64_t> ring(64);
  std::thread consumer([&] {
    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t popped = 0;
    std::vector<std::uint64_t> block;
    while (popped < kProducers * kPerProducer) {
      block.clear();
      const std::size_t got = ring.try_pop_n(block, 32);
      if (got == 0) {
        std::this_thread::yield();
        continue;
      }
      for (const std::uint64_t v : block) {
        const std::uint64_t p = v >> 32;
        const std::uint64_t seq = v & 0xffffffffu;
        ASSERT_LT(p, kProducers);
        ASSERT_EQ(seq, next[p]) << "producer " << p << " reordered";
        ++next[p];
      }
      popped += got;
    }
  });
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t seq = 0;
      while (seq < kPerProducer) {
        if (seq % (2 * kBatch) < kBatch &&
            seq + kBatch <= kPerProducer) {
          std::uint64_t vals[kBatch];
          for (std::size_t i = 0; i < kBatch; ++i) {
            vals[i] = (p << 32) | (seq + i);
          }
          // A failed claim takes no slots and moves nothing — the
          // same vals retry untouched.
          while (!ring.try_push_n(vals, kBatch)) {
            std::this_thread::yield();
          }
          seq += kBatch;
        } else {
          std::uint64_t v = (p << 32) | seq;
          while (!ring.try_push(std::move(v))) std::this_thread::yield();
          ++seq;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(ring.pushed(), kProducers * kPerProducer);
  EXPECT_TRUE(ring.empty());
}

TEST(WorkerPoolTest, ShardToWorkerAssignmentIsStableAcrossRestarts) {
  StoreConfig cfg;
  cfg.workers = 4;
  cfg.shard_count = 16;
  std::vector<std::size_t> first;
  {
    ThreadNetwork<TS::Envelope> net(1);
    TS store(S{}, 0, net, cfg);
    for (int i = 0; i < 200; ++i) {
      first.push_back(store.worker_of("key" + std::to_string(i)));
    }
    net.close_all();
  }
  // A "restarted" process: fresh network, fresh store, same config —
  // every key must land on the same worker as before the restart.
  {
    ThreadNetwork<TS::Envelope> net(1);
    TS store(S{}, 0, net, cfg);
    std::set<std::size_t> workers_used;
    for (int i = 0; i < 200; ++i) {
      const std::string k = "key" + std::to_string(i);
      EXPECT_EQ(store.worker_of(k), first[static_cast<std::size_t>(i)]) << k;
      EXPECT_EQ(store.worker_of(k), store.shard_index(k) % cfg.workers);
      workers_used.insert(store.worker_of(k));
    }
    // 200 keys over 16 shards: every worker owns some of the traffic.
    EXPECT_EQ(workers_used.size(), cfg.workers);
    net.close_all();
  }
}

TEST(WorkerPoolTest, PooledStoreReadsItsOwnWrites) {
  StoreConfig cfg;
  cfg.workers = 4;
  cfg.batch_window = 64;  // nothing ships on its own
  ThreadNetwork<TS::Envelope> net(1);
  TS store(S{}, 0, net, cfg);
  // Ring FIFO per worker: the query enqueues behind the update, so the
  // owner still reads its own writes even though apply is asynchronous.
  for (int i = 0; i < 32; ++i) {
    const std::string k = "k" + std::to_string(i % 8);
    store.update(k, S::insert(i));
    const auto got = store.query(k, S::read());
    EXPECT_TRUE(got.count(i)) << "update " << i << " not visible to owner";
  }
  net.close_all();
}

// ----- the convergence property ---------------------------------------

struct ScriptOp {
  std::string key;
  int value;
};

/// Fixed per-process op scripts (zipfian keys, globally distinct
/// values): insert-only, so every correct run converges to the same
/// per-key union regardless of transport, worker count, or timing.
std::vector<std::vector<ScriptOp>> make_scripts(std::size_t n_procs,
                                                std::size_t ops) {
  ZipfianKeys keyspace(64, 0.99);
  std::vector<std::vector<ScriptOp>> scripts(n_procs);
  for (ProcessId p = 0; p < n_procs; ++p) {
    Rng rng(1000 + p);
    for (std::size_t i = 0; i < ops; ++i) {
      scripts[p].push_back(ScriptOp{
          keyspace.sample(rng), static_cast<int>(p * ops + i)});
    }
  }
  return scripts;
}

std::set<std::string> script_keys(
    const std::vector<std::vector<ScriptOp>>& scripts) {
  std::set<std::string> keys;
  for (const auto& s : scripts) {
    for (const auto& op : s) keys.insert(op.key);
  }
  return keys;
}

using KeyStates = std::map<std::string, std::set<int>>;

/// Runs the scripts on a thread-transport cluster and returns the
/// converged states — asserting every store agrees before returning
/// store 0's view. `producers` client threads per store split that
/// store's script round-robin (producers == 1 is the classic one owner
/// thread per process); with several producers the run exercises
/// concurrent stamping from the atomic clock, racing MPSC pushes, and
/// a flush() ticking *while* producers update. `batched` routes each
/// producer's ops through update_batch() in groups of 5 instead of
/// one update() per op — same scripts, so the converged states must be
/// identical whether ops rode single ring claims or multi-slot ones.
KeyStates run_thread_cluster(const std::vector<std::vector<ScriptOp>>& scripts,
                             std::size_t workers, std::size_t producers = 1,
                             bool batched = false) {
  const std::size_t n = scripts.size();
  ThreadNetwork<TS::Envelope> net(n);
  StoreConfig cfg;
  cfg.workers = workers;
  cfg.batch_window = 8;
  cfg.shard_count = 16;
  std::vector<std::unique_ptr<TS>> stores;
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < n; ++p) {
    stores.push_back(std::make_unique<TS>(S{}, p, net, cfg));
    total += scripts[p].size();
  }
  std::vector<std::thread> owners;
  for (ProcessId p = 0; p < n; ++p) {
    for (std::size_t c = 0; c < producers; ++c) {
      owners.emplace_back([&, p, c] {
        std::vector<std::pair<std::string, S::Update>> ops;
        for (std::size_t i = c; i < scripts[p].size(); i += producers) {
          if (batched) {
            ops.emplace_back(scripts[p][i].key,
                             S::insert(scripts[p][i].value));
            if (ops.size() == 5) (void)stores[p]->update_batch(ops);
          } else {
            stores[p]->update(scripts[p][i].key,
                              S::insert(scripts[p][i].value));
          }
        }
        if (!ops.empty()) (void)stores[p]->update_batch(ops);
        stores[p]->flush();
      });
    }
  }
  for (auto& t : owners) t.join();
  for (auto& s : stores) s->drain_until(total);
  KeyStates out;
  for (const std::string& k : script_keys(scripts)) {
    out[k] = stores[0]->state_of(k);
    for (ProcessId p = 1; p < n; ++p) {
      EXPECT_EQ(stores[p]->state_of(k), out[k])
          << "store " << p << " diverged on " << k << " at " << workers
          << " workers / " << producers << " producers";
    }
  }
  net.close_all();
  return out;
}

/// The same scripts on the deterministic Sim transport.
KeyStates run_sim_cluster(const std::vector<std::vector<ScriptOp>>& scripts) {
  const std::size_t n = scripts.size();
  SimScheduler sched;
  typename SimNetwork<SimUcStore<S>::Envelope>::Config net_cfg;
  net_cfg.n_processes = n;
  net_cfg.latency = LatencyModel::constant(10.0);
  net_cfg.seed = 7;
  SimNetwork<SimUcStore<S>::Envelope> net(sched, net_cfg);
  StoreConfig cfg;
  cfg.batch_window = 8;
  cfg.shard_count = 16;
  std::vector<std::unique_ptr<SimUcStore<S>>> stores;
  for (ProcessId p = 0; p < n; ++p) {
    stores.push_back(std::make_unique<SimUcStore<S>>(S{}, p, net, cfg));
  }
  std::size_t longest = 0;
  for (const auto& s : scripts) longest = std::max(longest, s.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (ProcessId p = 0; p < n; ++p) {
      if (i < scripts[p].size()) {
        stores[p]->update(scripts[p][i].key,
                          S::insert(scripts[p][i].value));
      }
    }
  }
  for (auto& s : stores) (void)s->flush();
  sched.run();
  KeyStates out;
  for (const std::string& k : script_keys(scripts)) {
    out[k] = stores[0]->state_of(k);
    for (ProcessId p = 1; p < n; ++p) {
      EXPECT_EQ(stores[p]->state_of(k), out[k])
          << "sim store " << p << " diverged on " << k;
    }
  }
  return out;
}

TEST(WorkerPoolTest, FourWorkerRunMatchesSingleWorkerAndSim) {
  const auto scripts = make_scripts(/*n_procs=*/3, /*ops=*/150);
  const KeyStates four = run_thread_cluster(scripts, /*workers=*/4);
  const KeyStates one = run_thread_cluster(scripts, /*workers=*/1);
  const KeyStates sim = run_sim_cluster(scripts);
  EXPECT_EQ(four, one) << "4-worker pool diverged from single-owner";
  EXPECT_EQ(four, sim) << "4-worker pool diverged from Sim baseline";
}

TEST(MultiProducerTest, FourProducersMatchSingleProducerAndSim) {
  // The multi-producer acceptance property: 4 client threads × 4
  // workers per store — concurrent stamping, racing MPSC pushes, four
  // concurrent flush() ticks at script end — must land every replica in
  // exactly the per-key states of the 1-producer × 1-worker run and the
  // deterministic Sim run of the same scripts.
  const auto scripts = make_scripts(/*n_procs=*/3, /*ops=*/200);
  const KeyStates multi =
      run_thread_cluster(scripts, /*workers=*/4, /*producers=*/4);
  const KeyStates single =
      run_thread_cluster(scripts, /*workers=*/1, /*producers=*/1);
  const KeyStates sim = run_sim_cluster(scripts);
  EXPECT_EQ(multi, single)
      << "4-producer/4-worker frontend diverged from single-owner";
  EXPECT_EQ(multi, sim)
      << "4-producer/4-worker frontend diverged from Sim baseline";
}

TEST(MultiProducerTest, EveryProducerThreadReadsItsOwnWrites) {
  // query() rides the owning worker's ring FIFO behind the calling
  // thread's own updates, so read-your-writes holds *per client
  // thread* even while other producers hammer the same keys and a
  // driver thread ticks flush() concurrently.
  constexpr std::size_t kProducers = 4;
  constexpr int kOpsPerProducer = 200;
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 4;
  cfg.batch_window = 16;
  cfg.shard_count = 8;
  TS store(S{}, 0, net, cfg);
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_acquire)) {
      (void)store.flush();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t c = 0; c < kProducers; ++c) {
    producers.emplace_back([&, c] {
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const std::string k = "k" + std::to_string(i % 8);
        const int v = static_cast<int>(c) * kOpsPerProducer + i;
        store.update(k, S::insert(v));
        const auto got = store.query(k, S::read());
        EXPECT_TRUE(got.count(v))
            << "producer " << c << " lost its own write " << v;
      }
    });
  }
  for (auto& t : producers) t.join();
  stop_flusher.store(true, std::memory_order_release);
  flusher.join();
  net.close_all();
}

TEST(WorkerPoolTest, PooledCountersConvergeUnderConcurrency) {
  // The counter twin of the set test: total across keys must equal the
  // number of updates issued (no entry lost or double-applied on any
  // replica), with per-worker flushes racing the owner threads.
  using C = CounterAdt;
  using TC = ThreadUcStore<C>;
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kOpsPerThread = 300;
  ThreadNetwork<TC::Envelope> net(kThreads);
  StoreConfig cfg;
  cfg.workers = 4;
  cfg.batch_window = 8;
  std::vector<std::unique_ptr<TC>> stores;
  for (ProcessId p = 0; p < kThreads; ++p) {
    stores.push_back(std::make_unique<TC>(C{}, p, net, cfg));
  }
  std::vector<std::thread> owners;
  for (ProcessId p = 0; p < kThreads; ++p) {
    owners.emplace_back([&, p] {
      Rng rng(100 + p);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        stores[p]->update("k" + std::to_string(rng.uniform_int(0, 9)),
                          C::add(1));
      }
      stores[p]->flush();
    });
  }
  for (auto& t : owners) t.join();
  constexpr std::uint64_t kTotal = kThreads * kOpsPerThread;
  for (auto& s : stores) s->drain_until(kTotal);
  std::int64_t sum0 = 0;
  for (int k = 0; k < 10; ++k) {
    sum0 += stores[0]->state_of("k" + std::to_string(k));
  }
  EXPECT_EQ(sum0, static_cast<std::int64_t>(kTotal));
  for (ProcessId p = 1; p < kThreads; ++p) {
    for (int k = 0; k < 10; ++k) {
      const std::string key = "k" + std::to_string(k);
      EXPECT_EQ(stores[p]->state_of(key), stores[0]->state_of(key))
          << "replica " << p << " diverged on " << key;
    }
  }
  net.close_all();
}

TEST(WorkerPoolTest, PooledStoreFoldsWithStabilityOnTheRouter) {
  // GC on a pooled store: acks and the floor stay router-side, the fold
  // runs against quiesced engines on the flush tick — the pooled twin
  // of StoreGcTest.ThreadTransportFoldsWithPiggybackedAcks. Keys spread
  // across shards owned by *different* workers, because that is where
  // the FIFO-honesty of acks is at stake: one worker's window-full
  // envelope must never vouch for a stamp still buffered in the other
  // worker (pooled envelopes ship ack_clock = 0; only the router
  // heartbeat — issued after flush_all + quiesce — carries the ack),
  // or the receiver would fold past the in-flight entry and absorb it
  // below the floor.
  ThreadNetwork<TS::Envelope> net(2);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 2;  // small windows: workers flush independently
  cfg.shard_count = 8;
  cfg.gc = true;
  TS a(S{}, 0, net, cfg);
  TS b(S{}, 1, net, cfg);
  constexpr int kRounds = 12;
  constexpr int kKeys = 8;
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kKeys; ++k) {
      a.update("k" + std::to_string(k), S::insert(r));
    }
    (void)a.flush();
    (void)b.poll();
    (void)b.flush();  // ack heartbeat back to the updater
    (void)a.poll();
    (void)a.flush();  // hears the ack, folds its engines
  }
  // Quiescence barriers before reading: drain everything in flight.
  a.drain_until(kRounds * kKeys);
  b.drain_until(kRounds * kKeys);
  EXPECT_GT(a.stats().gc_folded, 0u);
  EXPECT_GT(b.stats().acks_sent, 0u);
  // No entry was folded over while in flight: every key converged.
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
  }
  net.close_all();
}

TEST(MultiProducerTest, BatchedUpdatesMatchSinglesAndSim) {
  // update_batch() is a transparent accelerant: the same scripts pushed
  // through multi-slot ring claims (4 producers × 4 workers, groups of
  // 5 spanning worker boundaries) must converge to exactly the states
  // of the single-update run and the deterministic Sim run.
  const auto scripts = make_scripts(/*n_procs=*/3, /*ops=*/200);
  const KeyStates batched = run_thread_cluster(
      scripts, /*workers=*/4, /*producers=*/4, /*batched=*/true);
  const KeyStates singles =
      run_thread_cluster(scripts, /*workers=*/4, /*producers=*/4);
  const KeyStates sim = run_sim_cluster(scripts);
  EXPECT_EQ(batched, singles)
      << "batched claims diverged from single-claim updates";
  EXPECT_EQ(batched, sim) << "batched claims diverged from Sim baseline";
}

TEST(WorkerPoolTest, ShardedInboxDeliversEveryRemoteEntry) {
  // Sharded inbox delivery is the one remote-delivery path: every remote
  // entry a pooled store applies reached its owning worker through that
  // worker's remote inbox (inbox_deliveries), and a pooled pair ends in
  // the same per-key states as an unpooled pair fed the same script.
  constexpr int kOps = 200;
  auto run = [](std::size_t workers) {
    ThreadNetwork<TS::Envelope> net(2);
    StoreConfig cfg;
    cfg.workers = workers;
    cfg.batch_window = 4;
    cfg.shard_count = 8;
    TS a(S{}, 0, net, cfg);
    TS b(S{}, 1, net, cfg);
    for (int i = 0; i < kOps; ++i) {
      a.update("k" + std::to_string(i % 16), S::insert(i));
      b.update("k" + std::to_string(i % 16), S::insert(kOps + i));
    }
    (void)a.flush();
    (void)b.flush();
    a.drain_until(2 * kOps);
    b.drain_until(2 * kOps);
    KeyStates out;
    for (int k = 0; k < 16; ++k) {
      const std::string key = "k" + std::to_string(k);
      EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
      out[key] = a.state_of(key);
    }
    for (const TS* s : {&a, &b}) {
      const StoreStats st = s->stats();
      EXPECT_EQ(st.remote_entries, static_cast<std::uint64_t>(kOps));
      EXPECT_EQ(st.inbox_deliveries, workers > 1 ? st.remote_entries : 0u)
          << "workers=" << workers;
    }
    net.close_all();
    return out;
  };
  EXPECT_EQ(run(2), run(1))
      << "pooled and unpooled delivery disagreed on final states";
}

TEST(WorkerPoolTest, BatchedClaimsKeepAcksHonestUnderGc) {
  // The batched twin of PooledStoreFoldsWithStabilityOnTheRouter: a
  // multi-slot claim holds the batch's smallest stamp in the claim
  // slot from before the first push until every op lands, so a
  // concurrent flush's ack can never vouch for a stamp still sitting
  // in a half-landed batch. If the barrier lied, the receiver would
  // fold its floor past an in-flight entry and the replicas would
  // diverge permanently — exactly what this asserts cannot happen.
  ThreadNetwork<TS::Envelope> net(2);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 2;
  cfg.shard_count = 8;
  cfg.gc = true;
  TS a(S{}, 0, net, cfg);
  TS b(S{}, 1, net, cfg);
  constexpr int kRounds = 12;
  constexpr int kKeys = 8;
  std::vector<std::pair<std::string, S::Update>> batch;
  for (int r = 0; r < kRounds; ++r) {
    // One batch spanning all keys — it straddles both workers, so the
    // claim-slot barrier is what keeps the concurrent per-worker
    // flushes from acking ahead of the unlanded remainder.
    for (int k = 0; k < kKeys; ++k) {
      batch.emplace_back("k" + std::to_string(k), S::insert(r));
    }
    (void)a.update_batch(batch);
    (void)a.flush();
    (void)b.poll();
    (void)b.flush();  // ack heartbeat back to the updater
    (void)a.poll();
    (void)a.flush();  // hears the ack, folds its engines
  }
  a.drain_until(kRounds * kKeys);
  b.drain_until(kRounds * kKeys);
  EXPECT_GT(a.stats().gc_folded, 0u);
  EXPECT_GT(a.stats().ring_batch_claims, 0u);
  EXPECT_EQ(a.stats().ring_batch_ops,
            static_cast<std::uint64_t>(kRounds * kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
  }
  net.close_all();
}

TEST(MultiProducerTest, GetHonorsReadYourWritesViaTickets) {
  // get() must never serve a published view that is missing the
  // calling thread's own writes: the per-producer ring-position ticket
  // gates the fast path, and a view that has not caught up falls back
  // to the ring round trip (counted in ryw_ring_fallbacks). The loop
  // alternates update/get on one hot key — every get must contain the
  // value written the line before, no matter which path answered.
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.batch_window = 64;  // nothing ships on its own
  TS store(S{}, 0, net, cfg);
  store.update("hot", S::insert(-1));
  (void)store.get("hot", S::read());  // cold get: promotes
  constexpr int kOps = 2'000;
  for (int i = 0; i < kOps; ++i) {
    store.update("hot", S::insert(i));
    const auto got = store.get("hot", S::read());
    ASSERT_TRUE(got.count(i)) << "get() served a stale view at op " << i;
  }
  const StoreStats s = store.stats();
  // Both paths answered some reads: ticket-gated published fast paths
  // and ring fallbacks for views that lagged the caller's ticket. (A
  // scheduler that always lets the worker win would zero the
  // fallbacks, but over 2000 immediate update→get pairs at least one
  // lagging view is a practical certainty on any host.)
  EXPECT_GT(s.ryw_ring_fallbacks, 0u);
  EXPECT_EQ(s.published_reads + s.ring_reads,
            static_cast<std::uint64_t>(kOps) + 1);
  net.close_all();
}

// ----- the idle policy ------------------------------------------------

/// Runs `fn` on another thread and ends the test process with a failure
/// if it has not returned within `limit`: a deadlocked call must fail
/// the suite, not hang it (its thread can be neither joined nor
/// abandoned safely, so the process exits without unwinding).
template <typename Fn>
auto within_deadline(const char* what, Fn fn) {
  constexpr auto kLimit = std::chrono::seconds(20);
  auto result = std::async(std::launch::async, std::move(fn));
  if (result.wait_for(kLimit) != std::future_status::ready) {
    std::fprintf(stderr, "%s did not return within 20 s: deadlock\n", what);
    std::fflush(stderr);
    std::_Exit(1);
  }
  return result.get();
}

/// Polls until `store` has applied `n` distinct updates or `limit`
/// passes; true when it got there.
bool applied_within(const TS& store, std::uint64_t n,
                    std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (store.applied_entries() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

TEST(WorkerPoolTest, PlainUpdatesWakeAParkedWorkerOncePerFlushWindow) {
  ThreadNetwork<TS::Envelope> net(1);
  StoreConfig cfg;
  cfg.workers = 2;
  cfg.shard_count = 8;
  cfg.batch_window = 8;
  constexpr std::uint64_t kWindow = 8;
  TS store(S{}, 0, net, cfg);
  // Keys all owned by worker 0, so every count below is one worker's.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 16; ++i) {
    std::string k = "k" + std::to_string(i);
    if (store.worker_of(k) == 0) keys.push_back(std::move(k));
  }
  // stats() quiesces, and the quiesce wakes only a worker that is
  // parked short of its target, so reading the count adds no wake
  // once the updates read back as applied.
  const auto wakes = [&] { return store.stats().worker_wakes; };
  const auto park = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  int value = 0;
  std::uint64_t issued = 0;

  // window − 1 plain updates wake nobody, whatever state the worker is
  // in: just active (round 0) or parked (round 1). They are applied
  // anyway, with no flush and no read, once the park times out.
  for (int round = 0; round < 2; ++round) {
    if (round == 1) park();
    const std::uint64_t before = wakes();
    for (std::uint64_t i = 0; i + 1 < kWindow; ++i) {
      store.update(keys[i % keys.size()], S::insert(value++));
    }
    issued += kWindow - 1;
    EXPECT_TRUE(applied_within(store, issued, std::chrono::seconds(1)))
        << "round " << round << ": a sub-window backlog was not applied";
    EXPECT_EQ(wakes() - before, 0u) << "round " << round;
  }

  // The batch path follows the same policy.
  {
    park();
    const std::uint64_t before = wakes();
    std::vector<std::pair<std::string, S::Update>> batch;
    for (std::uint64_t i = 0; i + 1 < kWindow; ++i) {
      batch.emplace_back(keys[i % keys.size()], S::insert(value++));
    }
    (void)store.update_batch(batch);
    issued += kWindow - 1;
    EXPECT_TRUE(applied_within(store, issued, std::chrono::seconds(1)));
    EXPECT_EQ(wakes() - before, 0u) << "sub-window batch";
  }

  // N updates cost at most ceil(N / window) wakes: as a burst, and
  // paced so the worker parks between windows.
  for (const bool paced : {false, true}) {
    constexpr std::uint64_t kN = 20 * kWindow + 3;
    const std::uint64_t before = wakes();
    for (std::uint64_t i = 0; i < kN; ++i) {
      if (paced && i % kWindow == 0) park();
      store.update(keys[i % keys.size()], S::insert(value++));
    }
    issued += kN;
    EXPECT_TRUE(applied_within(store, issued, std::chrono::seconds(1)));
    EXPECT_LE(wakes() - before, (kN + kWindow - 1) / kWindow)
        << (paced ? "paced" : "burst");
  }

  // Sync ops on a parked worker wake it and return, each behind a
  // sub-window update the worker has not been woken for.
  park();
  store.update(keys[0], S::insert(value));
  const auto got = within_deadline(
      "get() on a parked worker", [&] { return store.get(keys[0], S::read()); });
  EXPECT_TRUE(got.count(value)) << "get() missed its own write";
  ++value;
  park();
  store.update(keys[1], S::insert(value++));
  EXPECT_GE(within_deadline("flush() on a parked worker",
                            [&] { return store.flush(); }),
            1u);
  park();
  store.update(keys[2], S::insert(value++));
  EXPECT_EQ(within_deadline("quiesce() on a parked worker",
                            [&] { return store.pending(); }),
            1u);
  const StoreStats s = store.stats();
  EXPECT_GT(s.worker_parks, 0u);
  EXPECT_EQ(s.local_updates, issued + 3);
  net.close_all();
}

TEST(WorkerPoolTest, FlushDeliversAFullDutyRingWithoutDeadlock) {
  // More envelopes than the duty ring holds (4096) reach a pooled store
  // at once: a hold partition buffers them, the heal releases them all.
  // flush() must deliver them without holding the router lock, because
  // a full duty ring makes the delivery path take that lock to drain
  // it. Delivering under the lock spun on it forever.
  ThreadNetwork<TS::Envelope> net(2);
  StoreConfig pooled;
  pooled.workers = 2;
  pooled.shard_count = 8;
  TS a(S{}, 0, net, pooled);
  StoreConfig unbatched;
  unbatched.batch_window = 1;  // one envelope per update
  TS b(S{}, 1, net, unbatched);
  constexpr int kEnvelopes = 5000;
  net.partition({0, 1});
  for (int i = 0; i < kEnvelopes; ++i) {
    b.update("k" + std::to_string(i % 32), S::insert(i));
  }
  EXPECT_GE(net.held_messages(), static_cast<std::size_t>(kEnvelopes));
  net.heal();
  (void)within_deadline("flush() over a full duty ring",
                        [&] { return a.flush(); });
  a.drain_until(kEnvelopes);
  EXPECT_EQ(a.stats().inbox_deliveries,
            static_cast<std::uint64_t>(kEnvelopes));
  for (int k = 0; k < 32; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
  }
  net.close_all();
}

}  // namespace
}  // namespace ucw
