#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adt/all.hpp"
#include "net/scheduler.hpp"
#include "runtime/store_harness.hpp"
#include "store/all.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using Env = SimUcStore<S>::Envelope;

SimNetwork<Env>::Config net_config(std::size_t n,
                                   double duplicate_probability = 0.0) {
  SimNetwork<Env>::Config cfg;
  cfg.n_processes = n;
  cfg.latency = LatencyModel::constant(10.0);
  cfg.duplicate_probability = duplicate_probability;
  cfg.seed = 7;
  return cfg;
}

TEST(StoreShardTest, LazyInstantiation) {
  StoreShard<S> shard(S{}, 0, {});
  EXPECT_EQ(shard.keys_live(), 0u);
  EXPECT_EQ(shard.find("a"), nullptr);
  (void)shard.replica("a");
  EXPECT_EQ(shard.keys_live(), 1u);
  EXPECT_NE(shard.find("a"), nullptr);
  (void)shard.replica("a");  // idempotent
  EXPECT_EQ(shard.keys_live(), 1u);
}

TEST(SimUcStoreTest, ShardRoutingIsStable) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(1));
  SimUcStore<S> store(S{}, 0, net);
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key" + std::to_string(i);
    const std::size_t s = store.shard_index(k);
    EXPECT_EQ(s, store.shard_index(k));
    EXPECT_LT(s, store.shard_count());
  }
}

TEST(SimUcStoreTest, SelfDeliveryIsSynchronous) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 64;  // nothing ships on its own
  SimUcStore<S> store(S{}, 0, net, cfg);
  store.update("a", S::insert(1));
  // No scheduler.run(): the sender must already see its own write.
  EXPECT_EQ(store.query("a", S::read()), (std::set<int>{1}));
  EXPECT_EQ(store.pending(), 1u);
  EXPECT_EQ(net.stats().broadcasts, 0u);
}

TEST(SimUcStoreTest, WindowFillTriggersFlush) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 4;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  for (int i = 0; i < 3; ++i) a.update("k", S::insert(i));
  EXPECT_EQ(net.stats().broadcasts, 0u);
  EXPECT_EQ(a.pending(), 3u);
  a.update("k", S::insert(3));  // fills the window
  EXPECT_EQ(net.stats().broadcasts, 1u);
  EXPECT_EQ(a.pending(), 0u);
  sched.run();
  EXPECT_EQ(b.query("k", S::read()), (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(b.stats().remote_entries, 4u);
  EXPECT_EQ(a.stats().flushes_full, 1u);
}

TEST(SimUcStoreTest, ManualFlushShipsPartialBatch) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 100;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  a.update("x", S::insert(5));
  a.update("y", S::insert(6));
  EXPECT_EQ(a.flush(), 2u);
  EXPECT_EQ(a.flush(), 0u);  // nothing left
  sched.run();
  EXPECT_EQ(b.query("x", S::read()), (std::set<int>{5}));
  EXPECT_EQ(b.query("y", S::read()), (std::set<int>{6}));
  EXPECT_EQ(a.stats().flushes_manual, 1u);
}

TEST(SimUcStoreTest, WindowOneIsUnbatched) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(3));
  StoreConfig cfg;
  cfg.batch_window = 1;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  SimUcStore<S> c(S{}, 2, net, cfg);
  for (int i = 0; i < 10; ++i) a.update("k", S::insert(i));
  EXPECT_EQ(net.stats().broadcasts, 10u);  // one per update, as Alg. 1
  EXPECT_EQ(a.stats().entries_sent, 10u);
  EXPECT_EQ(a.stats().envelopes_sent, 10u);
  sched.run();
  EXPECT_EQ(b.state_of("k"), c.state_of("k"));
}

TEST(SimUcStoreTest, DemuxRoutesEntriesToTheirKeys) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 6;
  cfg.shard_count = 4;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  a.update("red", S::insert(1));
  a.update("green", S::insert(2));
  a.update("red", S::insert(3));
  a.update("blue", S::insert(4));
  a.update("green", S::remove(2));
  a.update("blue", S::insert(5));  // fills window of 6: one envelope
  EXPECT_EQ(net.stats().broadcasts, 1u);
  sched.run();
  EXPECT_EQ(b.query("red", S::read()), (std::set<int>{1, 3}));
  EXPECT_EQ(b.query("green", S::read()), (std::set<int>{}));
  EXPECT_EQ(b.query("blue", S::read()), (std::set<int>{4, 5}));
  EXPECT_EQ(b.keys_live(), 3u);
}

TEST(SimUcStoreTest, UntouchedKeyAnswersInitialWithoutMaterializing) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(1));
  SimUcStore<S> store(S{}, 0, net);
  EXPECT_EQ(store.query("ghost", S::read()), (std::set<int>{}));
  EXPECT_EQ(store.keys_live(), 0u);
  EXPECT_EQ(store.state_of("ghost"), (std::set<int>{}));
}

TEST(SimUcStoreTest, DuplicateEnvelopesAreAbsorbed) {
  SimScheduler sched;
  // Every p2p message is delivered twice.
  SimNetwork<Env> net(sched, net_config(2, /*duplicate_probability=*/1.0));
  StoreConfig cfg;
  cfg.batch_window = 2;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  a.update("k", S::insert(1));
  a.update("k", S::insert(2));
  sched.run();
  EXPECT_GT(net.stats().messages_duplicated, 0u);
  EXPECT_EQ(b.query("k", S::read()), (std::set<int>{1, 2}));
  // The per-key log counted the replayed entries as duplicates, and the
  // store distinguishes them from distinct applies (drain barriers rely
  // on the distinct count under at-least-once delivery).
  EXPECT_EQ(b.shard_of("k").stats().duplicate_updates, 2u);
  EXPECT_EQ(b.stats().remote_entries, 4u);
  EXPECT_EQ(b.stats().duplicate_entries, 2u);
}

TEST(SimUcStoreTest, BytesAccountingFavorsBatching) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 8;
  SimUcStore<S> a(S{}, 0, net, cfg);
  for (int i = 0; i < 8; ++i) a.update("k", S::insert(i));
  const StoreStats& s = a.stats();
  EXPECT_EQ(s.envelopes_sent, 1u);
  EXPECT_EQ(s.entries_sent, 8u);
  EXPECT_DOUBLE_EQ(s.batch_occupancy(), 8.0);
  EXPECT_LT(s.bytes_batched, s.bytes_unbatched);
  EXPECT_GT(s.bytes_saved_ratio(), 0.0);
}

TEST(SimUcStoreTest, CrashedSenderShipsNothingButStaysLocallyUsable) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(2));
  StoreConfig cfg;
  cfg.batch_window = 1;
  SimUcStore<S> a(S{}, 0, net, cfg);
  SimUcStore<S> b(S{}, 1, net, cfg);
  net.crash(0);
  a.update("k", S::insert(1));
  sched.run();
  EXPECT_EQ(net.stats().broadcasts, 0u);
  // The dropped flush is not counted as sent: stats reflect the wire.
  EXPECT_EQ(a.stats().envelopes_sent, 0u);
  EXPECT_EQ(a.stats().entries_sent, 0u);
  EXPECT_EQ(a.pending(), 0u);  // buffered updates died with the sender
  EXPECT_EQ(a.stats().envelopes_dropped_crash, 1u);
  EXPECT_EQ(a.stats().entries_dropped_crash, 1u);
  EXPECT_EQ(a.flush(), 0u);  // dropped entries are not "flushed" either
  EXPECT_EQ(b.query("k", S::read()), (std::set<int>{}));
  // The crashed process's *local* object still works (crash-stop models
  // it as silent, not corrupted).
  EXPECT_EQ(a.query("k", S::read()), (std::set<int>{1}));
}

TEST(SimUcStoreTest, PerKeyStatsAggregateAcrossShards) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, net_config(1));
  StoreConfig cfg;
  cfg.shard_count = 4;
  cfg.batch_window = 64;
  SimUcStore<S> store(S{}, 0, net, cfg);
  for (int i = 0; i < 20; ++i) {
    store.update("key" + std::to_string(i % 10), S::insert(i));
  }
  std::uint64_t local = 0;
  std::size_t keys = 0;
  for (const auto& ss : store.shard_stats()) {
    local += ss.local_updates;
    keys += ss.keys_live;
  }
  EXPECT_EQ(local, 20u);
  EXPECT_EQ(keys, 10u);
  EXPECT_EQ(store.keys_live(), 10u);
  EXPECT_EQ(store.keys().size(), 10u);
}

TEST(StoreHarnessTest, BatchingReducesBroadcastsAtLeastTwofold) {
  // The acceptance bar: ≥ 2x fewer broadcasts/op at window ≥ 4 on a
  // 1000-key zipfian workload (bench/store_throughput.cpp reports the
  // full sweep; this pins the claim in CI).
  auto run = [](std::size_t window) {
    StoreRunConfig cfg;
    cfg.n_processes = 4;
    cfg.seed = 42;
    cfg.n_keys = 1000;
    cfg.skew = 0.99;
    cfg.ops_per_process = 150;
    cfg.update_ratio = 0.9;
    cfg.store.batch_window = window;
    cfg.flush_period = 2'000.0;
    return run_store_simulation(S{}, cfg, [](Rng& rng) {
      WorkloadConfig w;
      w.value_range = 64;
      return random_set_update(rng, w);
    });
  };
  const auto unbatched = run(1);
  const auto batched = run(4);
  ASSERT_TRUE(unbatched.converged);
  ASSERT_TRUE(batched.converged);
  ASSERT_GT(unbatched.total_updates, 0u);
  ASSERT_GT(batched.total_updates, 0u);
  const double base = static_cast<double>(unbatched.net.broadcasts) /
                      static_cast<double>(unbatched.total_updates);
  const double opt = static_cast<double>(batched.net.broadcasts) /
                     static_cast<double>(batched.total_updates);
  EXPECT_GE(base / opt, 2.0) << "batching factor " << base / opt;
}

TEST(ThreadUcStoreTest, ConvergesUnderRealConcurrency) {
  using C = CounterAdt;
  using TEnv = ThreadUcStore<C>::Envelope;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 200;
  ThreadNetwork<TEnv> net(kThreads);
  std::vector<std::unique_ptr<ThreadUcStore<C>>> stores;
  StoreConfig cfg;
  cfg.batch_window = 8;
  for (ProcessId p = 0; p < kThreads; ++p) {
    stores.push_back(std::make_unique<ThreadUcStore<C>>(C{}, p, net, cfg));
  }
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kThreads; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(100 + p);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string(rng.uniform_int(0, 9));
        stores[p]->update(key, C::add(1));
      }
      stores[p]->flush();
    });
  }
  for (auto& t : threads) t.join();
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

TEST(ZipfianKeysTest, SkewConcentratesOnHotKeys) {
  ZipfianKeys keys(1000, 0.99);
  Rng rng(3);
  std::size_t hot = 0;
  constexpr std::size_t kDraws = 10'000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (keys.sample_index(rng) < 10) ++hot;
  }
  // Top-1% of a zipf(0.99) keyspace draws ~40% of the traffic.
  EXPECT_GT(hot, kDraws / 4);
  ZipfianKeys uniform(1000, 0.0);
  std::size_t uniform_hot = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    if (uniform.sample_index(rng) < 10) ++uniform_hot;
  }
  EXPECT_LT(uniform_hot, kDraws / 20);  // ~1% expected
  EXPECT_EQ(ZipfianKeys::key_name(17), "k17");
}

TEST(EnvelopeTest, WireSizeAccountsFrameOncePerEnvelope) {
  BatchEnvelope<S> e;
  e.entries.push_back({"alpha", UpdateMessage<S>{{1, 0}, S::insert(1), {}}});
  e.entries.push_back({"beta", UpdateMessage<S>{{2, 0}, S::insert(2), {}}});
  e.entries.push_back({"gamma", UpdateMessage<S>{{3, 0}, S::insert(3), {}}});
  const auto batched = static_cast<std::int64_t>(wire_size(e));
  const auto unbatched = static_cast<std::int64_t>(unbatched_wire_size(e));
  EXPECT_LT(batched, unbatched);
  // The frame is paid once per envelope instead of once per entry; the
  // envelope header (kind, epoch, seq, ack clock) is paid once total.
  EXPECT_EQ(unbatched - batched,
            static_cast<std::int64_t>(
                kFrameOverheadBytes * (e.entries.size() - 1)) -
                static_cast<std::int64_t>(kEnvelopeHeaderBytes));
}

// ----- GC fold list ---------------------------------------------------

/// Exposes the per-shard engines, so the tests below can reach the
/// snapshot-encode, install and remote-apply paths one key at a time.
class ProbeStore : public SimUcStore<S> {
 public:
  using SimUcStore<S>::SimUcStore;
  using SimUcStore<S>::engine_of;
};

SimNetwork<Env>::Config fifo_config(std::size_t n) {
  SimNetwork<Env>::Config cfg = net_config(n);
  cfg.fifo_links = true;
  return cfg;
}

StoreConfig gc_config(std::size_t shards) {
  StoreConfig cfg;
  cfg.shard_count = shards;
  cfg.batch_window = 64;  // ticks below flush by hand
  cfg.gc = true;
  return cfg;
}

/// `a` ships its batch, `b` answers with its ack heartbeat, and `a`'s
/// next flush tick raises the floor and sweeps.
template <typename Store>
void ack_round(SimScheduler& sched, Store& a, Store& b) {
  (void)a.flush();
  sched.run();
  (void)b.flush();
  sched.run();
  (void)a.flush();
}

std::set<std::string> keys_with_resident_entries(SimUcStore<S>& store) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    store.shard(i).for_each([&](const std::string& k, ReplayReplica<S>& r) {
      if (r.log().size() > 0) out.insert(k);
    });
  }
  return out;
}

std::set<std::string> listed(const SimUcStore<S>& store) {
  const auto keys = store.gc_listed_keys();
  return {keys.begin(), keys.end()};
}

/// What a fold of every key to `floor` would leave: it folds nothing
/// more on any key, so the resident count is the same.
void expect_matches_all_keys_fold(SimUcStore<S>& store, LogicalTime floor) {
  std::uint64_t resident = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    store.shard(i).for_each([&](const std::string& k, ReplayReplica<S>& r) {
      ReplayReplica<S> full = r;
      EXPECT_EQ(full.fold_to(floor), 0u) << k;
      EXPECT_EQ(full.current_state(), r.current_state()) << k;
      resident += full.log().size();
    });
  }
  EXPECT_EQ(store.log_entries_resident(), resident);
}

TEST(StoreGcFoldListTest, SweepVisitsOnlyKeysWithEntriesOrNewSinceLastSweep) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_config(2));
  SimUcStore<S> a(S{}, 0, net, gc_config(16));
  SimUcStore<S> b(S{}, 1, net, gc_config(16));
  constexpr int kKeys = 4096;
  std::vector<std::string> same_shard;  // keys sharing k0's engine
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = "k" + std::to_string(i);
    a.update(k, S::insert(i));
    if (a.shard_index(k) == a.shard_index("k0")) same_shard.push_back(k);
  }
  // Warm-up: everything is acked, so one sweep folds every key.
  ack_round(sched, a, b);
  ASSERT_EQ(a.keys_live(), static_cast<std::size_t>(kKeys));
  ASSERT_EQ(a.log_entries_resident(), 0u);
  EXPECT_TRUE(listed(a).empty());

  // One key per tick, all on one engine: each tick's sweep folds the
  // previous tick's (now acked) key and leaves this tick's resident.
  constexpr int kTicks = 40;
  ASSERT_GE(same_shard.size(), static_cast<std::size_t>(kTicks));
  for (int t = 0; t < kTicks; ++t) {
    std::set<std::string> created;
    if (t % 8 == 0) {
      // A key new to `a`, created by a remote apply.
      const std::string fresh = "new" + std::to_string(t);
      b.update(fresh, S::insert(t));
      (void)b.flush();
      sched.run();
      created.insert(fresh);
    }
    a.update(same_shard[t], S::insert(kKeys + t));
    // Before the sweep: resident keys plus the ones created since the
    // last sweep, never the whole keyspace.
    std::set<std::string> expected = keys_with_resident_entries(a);
    expected.insert(created.begin(), created.end());
    EXPECT_EQ(listed(a), expected) << "tick " << t;
    (void)a.flush();
    // After the sweep: exactly the keys still holding entries.
    EXPECT_EQ(listed(a), keys_with_resident_entries(a)) << "tick " << t;
    EXPECT_EQ(listed(a).count(same_shard[t]), 1u) << "tick " << t;
    EXPECT_LE(listed(a).size(), 2u) << "tick " << t;
    if (t == 1 || t == kTicks - 1) {
      expect_matches_all_keys_fold(a, a.stats().stability_floor);
    }
    sched.run();
    (void)b.flush();  // acks this tick's entry
    sched.run();
  }
  // Drain: the last ack folds every entry, and states agree.
  (void)b.flush();
  sched.run();
  (void)a.flush();
  EXPECT_EQ(a.log_entries_resident(), 0u);
  EXPECT_TRUE(listed(a).empty());
  expect_matches_all_keys_fold(a, a.stats().stability_floor);
  for (const std::string& k : b.keys()) {
    EXPECT_EQ(a.state_of(k), b.state_of(k)) << k;
  }
}

TEST(StoreGcFoldListTest, UntouchedEmptyLogsSeeTheLastSweepFloor) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_config(2));
  ProbeStore a(S{}, 0, net, gc_config(4));
  ProbeStore b(S{}, 1, net, gc_config(4));
  // Cold keys share the hot key's engine, so every sweep that folds
  // the hot key also covers them.
  const std::string hot = "hot";
  std::vector<std::string> same;
  for (int i = 0; same.size() < 5; ++i) {
    const std::string k = "c" + std::to_string(i);
    if (a.shard_index(k) == a.shard_index(hot)) same.push_back(k);
  }
  const std::string redelivered = same[0], installed = same[1],
                    served = same[2], fresh = same[3], lagging = same[4];
  auto floor_of = [&](const std::string& k) {
    return a.shard_of(k).find(k)->log().floor();
  };
  for (int i = 0; i < 3; ++i) a.update(same[i], S::insert(i));
  a.update(hot, S::insert(0));
  ack_round(sched, a, b);
  ASSERT_EQ(a.log_entries_resident(), 0u);
  const LogicalTime first_floor = floor_of(hot);
  ASSERT_GT(first_floor, 0u);
  // Several more sweeps of the same engine, each at a higher floor,
  // that touch only the hot key.
  for (int r = 1; r <= 3; ++r) {
    a.update(hot, S::insert(r));
    ack_round(sched, a, b);
  }
  const LogicalTime last_floor = floor_of(hot);
  ASSERT_GT(last_floor, first_floor);
  ASSERT_EQ(a.log_entries_resident(), 0u);
  auto& engine = a.engine_of(hot);

  // A redelivery at the last sweep floor is absorbed below it.
  const auto before = a.state_of(redelivered);
  EXPECT_TRUE(engine.apply_remote(
      1, redelivered,
      UpdateMessage<S>{{last_floor, 1}, S::insert(999), {}}));
  EXPECT_EQ(a.shard_of(redelivered).find(redelivered)
                ->stats()
                .absorbed_below_floor,
            1u);
  EXPECT_EQ(a.state_of(redelivered), before);

  // An install whose floor the last sweep already covers is refused.
  KeySnapshot<S, std::string> ks;
  ks.key = installed;
  ks.base = {12345};
  ks.floor = last_floor;
  const auto installed_before = a.state_of(installed);
  bool floor_raised = true;
  EXPECT_EQ(engine.install_key(ks, &floor_raised), 0u);
  EXPECT_FALSE(floor_raised);
  EXPECT_EQ(a.state_of(installed), installed_before);

  // A key created after the last sweep keeps floor 0 until the next;
  // one with an entry above the floor stays listed across it.
  a.update(fresh, S::insert(7));
  (void)a.flush();  // sweeps nothing new: the floor has not moved
  a.update(hot, S::insert(8));
  sched.run();
  (void)b.flush();  // acks `fresh`, not `hot`'s newest entry
  sched.run();
  a.update(lagging, S::insert(9));
  auto floors_served = [&] {
    std::map<std::string, LogicalTime> out;
    for (const auto& k : engine.encode_snapshot(a.shard_count()).keys) {
      out[k.key] = k.floor;
    }
    return out;
  };
  auto snap = floors_served();
  EXPECT_EQ(snap.at(served), last_floor);
  EXPECT_EQ(snap.at(redelivered), last_floor);
  EXPECT_EQ(snap.at(installed), last_floor);
  EXPECT_EQ(snap.at(fresh), 0u);
  EXPECT_EQ(snap.at(lagging), 0u);

  (void)a.flush();  // sweeps: folds `fresh`, keeps the newer entries
  const LogicalTime next_floor = floor_of(fresh);
  EXPECT_GT(next_floor, last_floor);
  EXPECT_EQ(listed(a), keys_with_resident_entries(a));
  EXPECT_EQ(listed(a).count(lagging), 1u);
  snap = floors_served();
  EXPECT_EQ(snap.at(served), next_floor);
  EXPECT_EQ(snap.at(lagging), next_floor);

  // The next ack folds what the last sweep left resident.
  ack_round(sched, a, b);
  EXPECT_EQ(a.log_entries_resident(), 0u);
  expect_matches_all_keys_fold(a, a.stats().stability_floor);
  sched.run();
  for (const std::string& k : a.keys()) {
    EXPECT_EQ(a.state_of(k), b.state_of(k)) << k;
  }
}

}  // namespace
}  // namespace ucw
