// Recovery subsystem: store-level stability, log compaction, snapshot
// shipping and crash-restart catch-up.
//
// Layered like the subsystem itself: tracker and log primitives first,
// then the snapshot codec round trip, then live StoreCore clusters on
// the simulated network — GC folding across the keyspace, a full
// crash → restart → request_sync → converge cycle, and the bootstrap
// guard that keeps a rejoining replica from reusing pre-crash stamps.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adt/all.hpp"
#include "net/scheduler.hpp"
#include "recovery/all.hpp"
#include "runtime/store_harness.hpp"
#include "store/all.hpp"
#include "util/assert.hpp"

namespace ucw {
namespace {

using S = SetAdt<int>;
using Store = SimUcStore<S>;
using Env = Store::Envelope;

SimNetwork<Env>::Config fifo_net_config(std::size_t n,
                                        double duplicate_probability = 0.0) {
  SimNetwork<Env>::Config cfg;
  cfg.n_processes = n;
  cfg.latency = LatencyModel::constant(10.0);
  cfg.fifo_links = true;
  cfg.duplicate_probability = duplicate_probability;
  cfg.seed = 9;
  return cfg;
}

StoreConfig gc_store_config(std::size_t window = 4) {
  StoreConfig cfg;
  cfg.batch_window = window;
  cfg.shard_count = 4;
  cfg.gc = true;
  return cfg;
}

// ----- stability tracker ----------------------------------------------

TEST(StoreStabilityTrackerTest, FloorIsMinOverLiveRows) {
  StoreStabilityTracker t(0, 3);
  EXPECT_EQ(t.floor(), 0u);
  t.advance_self(10);
  EXPECT_EQ(t.floor(), 0u);  // silent peers pin the floor
  t.observe_ack(1, 7);
  t.observe_ack(2, 4);
  EXPECT_EQ(t.floor(), 4u);
  EXPECT_EQ(t.lag(), 6u);  // own clock 10 − floor 4
  t.observe_ack(2, 9);
  EXPECT_EQ(t.floor(), 7u);
}

TEST(StoreStabilityTrackerTest, CrashUnpinsAndRestartRepins) {
  StoreStabilityTracker t(0, 3);
  t.advance_self(8);
  t.observe_ack(1, 6);
  EXPECT_EQ(t.floor(), 0u);  // process 2 never acked
  t.set_crashed(2, true);
  EXPECT_EQ(t.floor(), 6u);  // crashed rows stop counting
  t.set_crashed(2, false);   // restarted incarnation
  EXPECT_EQ(t.floor(), 0u);
  t.observe_ack(2, 12);      // hearing from it also marks it alive
  t.set_crashed(2, true);
  t.observe_ack(2, 12);
  EXPECT_FALSE(t.crashed(2));
  EXPECT_EQ(t.floor(), 6u);
}

TEST(StoreStabilityTrackerTest, AdoptMergesDonorRows) {
  StoreStabilityTracker t(1, 3);
  t.observe_ack(0, 2);
  t.adopt({5, 3, 9});
  t.advance_self(4);
  EXPECT_EQ(t.rows(), (std::vector<LogicalTime>{5, 4, 9}));
  EXPECT_EQ(t.floor(), 4u);
}

// ----- log install ----------------------------------------------------

TEST(StampedLogTest, InstallBaseDropsCoveredEntriesAndRaisesFloor) {
  StampedLog<S> log{S{}};
  (void)log.insert(Stamp{1, 0}, S::insert(1));
  (void)log.insert(Stamp{3, 1}, S::insert(3));
  (void)log.insert(Stamp{5, 0}, S::insert(5));
  // Donor base covering stamps <= 3: {1, 3} plus an entry we never saw.
  EXPECT_TRUE(log.install_base(std::set<int>{1, 2, 3}, 3));
  EXPECT_EQ(log.floor(), 3u);
  EXPECT_EQ(log.size(), 1u);  // only (5,0) survives
  EXPECT_EQ(log.base_state(), (std::set<int>{1, 2, 3}));
  // A snapshot covering less than we already folded is refused.
  EXPECT_FALSE(log.install_base(std::set<int>{}, 2));
  EXPECT_EQ(log.base_state(), (std::set<int>{1, 2, 3}));
}

TEST(ReplicaTest, AbsorbBelowFloorTurnsStragglersIntoDuplicates) {
  ReplayReplica<S>::Config cfg;
  cfg.absorb_below_floor = true;
  ReplayReplica<S> rep(S{}, 0, cfg);
  rep.apply(1, UpdateMessage<S>{{2, 1}, S::insert(2), {}});
  ASSERT_TRUE(rep.install_base(std::set<int>{1, 2}, 4));
  // Redelivery of a folded entry: absorbed, not a contract violation.
  rep.apply(1, UpdateMessage<S>{{2, 1}, S::insert(2), {}});
  EXPECT_EQ(rep.stats().absorbed_below_floor, 1u);
  EXPECT_EQ(rep.current_state(), (std::set<int>{1, 2}));
  rep.apply(1, UpdateMessage<S>{{6, 1}, S::insert(6), {}});
  EXPECT_EQ(rep.current_state(), (std::set<int>{1, 2, 6}));
}

// ----- snapshot codec -------------------------------------------------

TEST(SnapshotCodecTest, RoundTripCompactedStatePlusSuffix) {
  ReplayReplica<S>::Config rep_cfg;
  rep_cfg.absorb_below_floor = true;
  StoreShard<S> donor(S{}, 0, rep_cfg);
  // Two keys, interleaved stamps; fold the prefix <= 4 on both.
  for (int c = 1; c <= 8; ++c) {
    donor.replica("a").apply(1, UpdateMessage<S>{
        {static_cast<LogicalTime>(c), 1}, S::insert(c), {}});
    donor.replica("b").apply(2, UpdateMessage<S>{
        {static_cast<LogicalTime>(c), 2}, S::insert(100 + c), {}});
  }
  donor.for_each([](const std::string&, ReplayReplica<S>& r) {
    (void)r.fold_to(4);
  });
  auto snap = encode_shard_snapshot(donor, 0, 1);
  ASSERT_EQ(snap.keys.size(), 2u);
  EXPECT_EQ(snap.suffix_entries(), 8u);  // 4 unstable entries per key
  for (const auto& ks : snap.keys) {
    EXPECT_EQ(ks.floor, 4u);
    EXPECT_EQ(ks.suffix.size(), 4u);
  }

  // Install into a joiner that raced ahead on one key, then replay the
  // donor's full history as stale redelivery: identical states.
  StoreShard<S> joiner(S{}, 3, rep_cfg);
  joiner.replica("a").apply(1, UpdateMessage<S>{{7, 1}, S::insert(7), {}});
  for (const auto& ks : snap.keys) {
    (void)install_key_snapshot(joiner.replica(ks.key), ks);
  }
  for (int c = 1; c <= 8; ++c) {
    joiner.replica("a").apply(1, UpdateMessage<S>{
        {static_cast<LogicalTime>(c), 1}, S::insert(c), {}});
  }
  EXPECT_EQ(joiner.replica("a").current_state(),
            donor.replica("a").current_state());
  EXPECT_EQ(joiner.replica("b").current_state(),
            donor.replica("b").current_state());
  EXPECT_GT(joiner.replica("a").stats().absorbed_below_floor, 0u);
  EXPECT_EQ(donor.stats().snapshots_exported, 1u);
}

// ----- live clusters --------------------------------------------------

/// Drives `rounds` rounds of one keyed update per store + flush + drain.
template <typename Stores>
void drive_rounds(SimScheduler& sched, Stores& stores, SimNetwork<Env>& net,
                  int rounds, int base) {
  for (int r = 0; r < rounds; ++r) {
    for (auto& s : stores) {
      if (net.crashed(s->pid())) continue;
      const int v = base + r * 10 + static_cast<int>(s->pid());
      s->update("k" + std::to_string(v % 7), S::insert(v));
    }
    for (auto& s : stores) (void)s->flush();
    sched.run();
  }
}

TEST(StoreGcTest, StabilityFloorFoldsLogsAcrossTheKeyspace) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, gc_store_config()));
  }
  drive_rounds(sched, stores, net, 12, 0);
  // One more ack + GC round so the last deliveries reach the floor.
  for (int i = 0; i < 3; ++i) {
    for (auto& s : stores) (void)s->flush();
    sched.run();
  }
  for (auto& s : stores) {
    EXPECT_GT(s->stats().gc_folded, 0u) << "store " << s->pid();
    EXPECT_GT(s->stats().stability_floor, 0u);
    // The resident logs hold only the unstable window, not the history.
    EXPECT_LT(s->log_entries_resident(), 12u * 3u) << "store " << s->pid();
  }
  // Folding must not disturb convergence.
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    const auto want = stores[0]->state_of(key);
    EXPECT_EQ(stores[1]->state_of(key), want) << key;
    EXPECT_EQ(stores[2]->state_of(key), want) << key;
  }
}

TEST(StoreGcTest, SilentReaderHeartbeatsUnpinTheFloor) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  Store a(S{}, 0, net, gc_store_config());
  Store b(S{}, 1, net, gc_store_config());  // never updates: read-only
  for (int r = 0; r < 6; ++r) {
    a.update("k", S::insert(r));
    (void)a.flush();
    sched.run();
    // b has nothing to batch, but its clock advanced on delivery: the
    // flush tick ships an ack heartbeat instead of pinning a's floor.
    (void)b.flush();
    sched.run();
    (void)a.flush();  // a hears the ack and folds
    sched.run();
  }
  EXPECT_EQ(b.stats().local_updates, 0u);
  EXPECT_GT(b.stats().acks_sent, 0u);
  EXPECT_GT(a.stats().gc_folded, 0u);
  EXPECT_GT(a.stats().stability_floor, 0u);
  // The reader folds too: self-delivery is synchronous, so its own row
  // follows its clock — a replica that never updates must not pin its
  // *own* floor at zero and keep O(history) logs.
  EXPECT_GT(b.stats().gc_folded, 0u);
  EXPECT_LT(b.log_entries_resident(), 6u);
  EXPECT_EQ(a.state_of("k"), b.state_of("k"));
}

TEST(StoreGcTest, CrashedSenderHeartbeatsAreCountedAsDropped) {
  // Mirror of the flush-path crash accounting: a crashed store's ack
  // heartbeat dies with it (crash-stop), is counted as dropped — never
  // as sent — and consumes no seq, so a restarted incarnation's stream
  // starts clean on the heartbeat path too.
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  Store a(S{}, 0, net, gc_store_config());
  Store b(S{}, 1, net, gc_store_config());
  a.update("k", S::insert(1));  // the clock moved: a heartbeat is due
  sched.run();
  net.crash(0);
  const auto sent_before = a.stats().envelopes_sent;
  (void)a.flush();
  sched.run();
  EXPECT_GT(a.stats().acks_dropped_crash, 0u);
  EXPECT_EQ(a.stats().acks_sent, 0u);
  // Nothing hit the wire after the crash: the buffered entry died in
  // the flush path (counted there), the heartbeat died here.
  EXPECT_EQ(a.stats().envelopes_sent, sent_before);
  EXPECT_EQ(a.stats().entries_dropped_crash, 1u);
  EXPECT_EQ(b.stats().remote_entries, 0u);
}

TEST(StoreGcTest, OneSweepFoldsEveryDirtyShard) {
  // One GC sweep folds every dirty engine: with entries resident on
  // several shards, the first flush tick after the floor rises leaves
  // only the unstable window resident (clean engines are skipped in
  // O(1)).
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  StoreConfig cfg = gc_store_config(/*window=*/2);
  Store a(S{}, 0, net, cfg);
  Store b(S{}, 1, net, cfg);
  // Touch many keys so several shards hold foldable entries. b sends
  // nothing yet, so its row pins a's floor at zero.
  for (int r = 0; r < 12; ++r) {
    a.update("k" + std::to_string(r % 8), S::insert(r));
  }
  (void)a.flush();
  sched.run();
  std::size_t dirty_shards = 0;
  for (const ShardStats& s : a.shard_stats()) {
    if (s.log_entries > 0) ++dirty_shards;
  }
  ASSERT_GT(dirty_shards, 1u);
  const LogicalTime floor_before = a.stats().stability_floor;
  const std::uint64_t runs_before = a.stats().gc_runs;
  // b's heartbeat acks everything it holds; a's next tick raises the
  // floor and folds.
  (void)b.flush();
  sched.run();
  (void)a.flush();
  EXPECT_GT(a.stats().stability_floor, floor_before);
  EXPECT_EQ(a.stats().gc_runs, runs_before + 1);
  EXPECT_GT(a.stats().gc_folded, 0u);
  // Every entry at or below the floor is folded on every shard: the
  // resident logs hold only the unstable window.
  EXPECT_LE(a.log_entries_resident(),
            static_cast<std::uint64_t>(a.stats().stability_floor_lag));
  sched.run();
  for (int k = 0; k < 8; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(a.state_of(key), b.state_of(key)) << key;
  }
}

TEST(StoreGcTest, ThreadTransportFoldsWithPiggybackedAcks) {
  // ThreadNetwork inboxes are FIFO per sender, so store-level stability
  // works there too; catch-up (p2p + epochs) stays compile-time off.
  ThreadNetwork<ThreadUcStore<S>::Envelope> net(2);
  const StoreConfig cfg = gc_store_config();
  ThreadUcStore<S> a(S{}, 0, net, cfg);
  ThreadUcStore<S> b(S{}, 1, net, cfg);
  EXPECT_FALSE(b.request_sync(0));  // no p2p transport: gated off
  for (int r = 0; r < 8; ++r) {
    a.update("k", S::insert(r));
    (void)a.flush();
    (void)b.poll();
    (void)b.flush();  // ack heartbeat back to the updater
    (void)a.poll();
    (void)a.flush();  // hears the ack, folds
  }
  EXPECT_GT(a.stats().gc_folded, 0u);
  EXPECT_GT(b.stats().acks_sent, 0u);
  EXPECT_EQ(a.state_of("k"), b.state_of("k"));
  net.close_all();
}

TEST(CatchupTest, CrashRestartRejoinsViaSnapshotsAndConverges) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  const StoreConfig scfg = gc_store_config();
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 10, 0);
  const std::uint64_t history_before =
      stores[0]->stats().entries_sent + stores[1]->stats().entries_sent +
      stores[2]->stats().entries_sent;
  ASSERT_GT(history_before, 0u);

  net.crash(2);
  drive_rounds(sched, stores, net, 6, 1000);  // history grows while 2 is down
  ASSERT_TRUE(net.can_restart(2));
  net.restart(2);
  EXPECT_EQ(net.epoch(2), 1u);
  stores[2] = std::make_unique<Store>(S{}, 2, net, scfg);
  ASSERT_TRUE(stores[2]->request_sync(0));
  EXPECT_EQ(stores[2]->sync_state(), Store::SyncState::kSyncing);
  sched.run();  // request → serve → install

  EXPECT_EQ(stores[2]->stats().snapshots_installed, scfg.shard_count);
  EXPECT_FALSE(stores[2]->bootstrapping());
  // Live traffic from both survivors verifies their streams gap-free.
  drive_rounds(sched, stores, net, 4, 2000);
  EXPECT_EQ(stores[2]->sync_state(), Store::SyncState::kLive);
  EXPECT_EQ(stores[2]->stats().syncs_completed, 1u);

  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    const auto want = stores[0]->state_of(key);
    EXPECT_EQ(stores[1]->state_of(key), want) << key;
    EXPECT_EQ(stores[2]->state_of(key), want) << key;
  }
  // The donor compacted before serving: the catch-up replayed an
  // unstable suffix, not the whole pre-crash history.
  EXPECT_GT(stores[2]->stats().catchup_keys, 0u);
  EXPECT_LT(stores[2]->stats().catchup_entries, history_before);
}

TEST(CatchupTest, BootstrappingStoreRefusesUpdatesUntilFirstSnapshot) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  const StoreConfig scfg = gc_store_config();
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 2; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 4, 0);
  net.crash(1);
  sched.run();
  net.restart(1);
  stores[1] = std::make_unique<Store>(S{}, 1, net, scfg);
  ASSERT_TRUE(stores[1]->request_sync(0));
  EXPECT_TRUE(stores[1]->bootstrapping());
  // A fresh incarnation's clock would reuse pre-crash stamps.
  EXPECT_THROW((void)stores[1]->update("k0", S::insert(1)), contract_error);
  // Reads stay wait-free (answer from the partial state).
  EXPECT_EQ(stores[1]->query("k0", S::read()), (std::set<int>{}));
  sched.run();  // snapshots install, clock re-based
  EXPECT_FALSE(stores[1]->bootstrapping());
  (void)stores[1]->update("k0", S::insert(1));
  for (auto& s : stores) (void)s->flush();
  sched.run();
  EXPECT_EQ(stores[0]->state_of("k0"), stores[1]->state_of("k0"));
}

TEST(CatchupTest, SessionRetiresInQuietClusterWithoutLiveTraffic) {
  // Nobody updates after the serve: the donor's own stream is settled by
  // construction and the other peers' by the in-flight check, so the
  // session retires on the first batch instead of re-requesting forever
  // (and GC resumes at the joiner).
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(2));
  const StoreConfig scfg = gc_store_config();
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 2; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 5, 0);
  net.crash(1);
  sched.run();
  net.restart(1);
  stores[1] = std::make_unique<Store>(S{}, 1, net, scfg);
  ASSERT_TRUE(stores[1]->request_sync(0));
  sched.run();
  EXPECT_EQ(stores[1]->sync_state(), Store::SyncState::kLive);
  EXPECT_EQ(stores[1]->stats().syncs_completed, 1u);
  const std::uint64_t requests = stores[1]->stats().sync_requests_sent;
  for (int i = 0; i < 10; ++i) {
    for (auto& s : stores) (void)s->flush();
    sched.run();
  }
  EXPECT_EQ(stores[1]->stats().sync_requests_sent, requests);
  EXPECT_EQ(stores[1]->state_of("k0"), stores[0]->state_of("k0"));
}

TEST(CatchupTest, GcFreeJoinerAbsorbsBelowFloorAfterCompactedSnapshot) {
  // Heterogeneous configs: the donors compact, the joiner runs gc=false.
  // Its installed bases still carry positive floors, so a stale live
  // envelope overlapping the snapshot must be absorbed as a redelivery,
  // not rejected as a below-floor protocol violation.
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  const StoreConfig gc_cfg = gc_store_config();
  StoreConfig plain_cfg = gc_store_config();
  plain_cfg.gc = false;
  std::vector<std::unique_ptr<Store>> stores;
  stores.push_back(std::make_unique<Store>(S{}, 0, net, gc_cfg));
  stores.push_back(std::make_unique<Store>(S{}, 1, net, gc_cfg));
  stores.push_back(std::make_unique<Store>(S{}, 2, net, plain_cfg));
  // The gc=false store still piggybacks acks on its envelopes, so the
  // compacting stores fold even while it participates.
  drive_rounds(sched, stores, net, 6, 5000);
  EXPECT_GT(stores[0]->stats().gc_folded, 0u);
  net.crash(2);
  drive_rounds(sched, stores, net, 10, 0);
  ASSERT_GT(stores[0]->stats().stability_floor, 1u);

  net.restart(2);
  stores[2] = std::make_unique<Store>(S{}, 2, net, plain_cfg);
  ASSERT_TRUE(stores[2]->request_sync(0));
  sched.run();
  ASSERT_GT(stores[2]->stats().snapshots_installed, 0u);
  const auto* rep = stores[2]->shard_of("k0").find("k0");
  ASSERT_NE(rep, nullptr);
  ASSERT_GT(rep->log().floor(), 1u);

  // Redelivery of an entry the snapshot already folded (stamp (1, 0) is
  // below the installed floor): absorbed, never a contract violation.
  const auto before = stores[2]->state_of("k0");
  Env stale;
  stale.entries.push_back(
      {"k0", UpdateMessage<S>{{1, 0}, S::insert(0), {}}});
  net.send(0, 2, stale);
  sched.run();
  EXPECT_EQ(stores[2]->state_of("k0"), before);
  drive_rounds(sched, stores, net, 3, 900);
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(stores[2]->state_of(key), stores[0]->state_of(key)) << key;
  }
}

TEST(CatchupTest, RequestSyncRetriesWhenDonorCrashes) {
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  StoreConfig scfg = gc_store_config();
  scfg.sync_patience_ticks = 1;  // the test drives ticks by hand
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  drive_rounds(sched, stores, net, 6, 0);
  net.crash(2);
  sched.run();
  net.restart(2);
  stores[2] = std::make_unique<Store>(S{}, 2, net, scfg);
  // The chosen donor is already dead: the request evaporates; the next
  // flush tick re-targets a live donor.
  net.crash(1);
  ASSERT_TRUE(stores[2]->request_sync(1));
  sched.run();
  EXPECT_EQ(stores[2]->stats().snapshots_installed, 0u);
  (void)stores[2]->flush();  // housekeeping: stalled → retarget to 0
  sched.run();
  EXPECT_GT(stores[2]->stats().sync_retries, 0u);
  EXPECT_EQ(stores[2]->stats().snapshots_installed, scfg.shard_count);
  drive_rounds(sched, stores, net, 3, 500);
  for (int k = 0; k < 7; ++k) {
    const std::string key = "k" + std::to_string(k);
    EXPECT_EQ(stores[2]->state_of(key), stores[0]->state_of(key)) << key;
  }
}

TEST(CatchupTest, SecondSyncRoundShipsDeltaNotEveryShardInFull) {
  // The incremental-snapshot fix for the retry path: a second round to
  // the same donor echoes the markers the first round installed, so the
  // donor re-ships only the keys that advanced since — not every shard
  // in full. Asserted the way the ROADMAP item was phrased: second-round
  // bytes strictly below first-round bytes (and clean keys skipped).
  SimScheduler sched;
  SimNetwork<Env> net(sched, fifo_net_config(3));
  const StoreConfig scfg = gc_store_config();
  std::vector<std::unique_ptr<Store>> stores;
  for (ProcessId p = 0; p < 3; ++p) {
    stores.push_back(std::make_unique<Store>(S{}, p, net, scfg));
  }
  // A wide keyspace, so "what advanced between rounds" is a small
  // fraction of "everything".
  auto touch = [&](int base, int n) {
    for (int i = 0; i < n; ++i) {
      for (auto& s : stores) {
        if (net.crashed(s->pid())) continue;
        s->update("d" + std::to_string((base + i) % 30),
                  S::insert(base + i + static_cast<int>(s->pid())));
      }
      for (auto& s : stores) (void)s->flush();
      sched.run();
    }
  };
  touch(0, 30);
  net.crash(2);
  touch(1000, 8);
  ASSERT_TRUE(net.can_restart(2));
  net.restart(2);
  stores[2] = std::make_unique<Store>(S{}, 2, net, scfg);
  ASSERT_TRUE(stores[2]->request_sync(0));
  sched.run();
  touch(2000, 2);
  ASSERT_EQ(stores[2]->sync_state(), Store::SyncState::kLive);
  const std::uint64_t bytes_round1 = stores[0]->stats().snapshot_bytes_served;
  const std::uint64_t keys_round1 = stores[0]->stats().snapshot_keys_served;
  ASSERT_GT(bytes_round1, 0u);

  // A couple of keys move, then a second round from the same donor —
  // exactly what a gap/stall retry issues on the wire.
  touch(3000, 2);
  ASSERT_TRUE(stores[2]->request_sync(0));
  sched.run();
  touch(4000, 2);
  EXPECT_EQ(stores[2]->sync_state(), Store::SyncState::kLive);
  EXPECT_EQ(stores[2]->stats().syncs_completed, 2u);
  const std::uint64_t bytes_round2 =
      stores[0]->stats().snapshot_bytes_served - bytes_round1;
  const std::uint64_t keys_round2 =
      stores[0]->stats().snapshot_keys_served - keys_round1;
  EXPECT_LT(bytes_round2, bytes_round1 / 2);
  EXPECT_LT(keys_round2, keys_round1 / 2);
  EXPECT_GT(stores[0]->stats().snapshot_keys_skipped_delta, 0u);
  for (int k = 0; k < 30; ++k) {
    const std::string key = "d" + std::to_string(k);
    EXPECT_EQ(stores[2]->state_of(key), stores[0]->state_of(key)) << key;
  }
}

TEST(CatchupHarnessTest, RestartPlanRejoinsAndConverges) {
  StoreRunConfig cfg;
  cfg.n_processes = 4;
  cfg.seed = 33;
  cfg.fifo_links = true;
  cfg.n_keys = 30;
  cfg.ops_per_process = 60;
  cfg.update_ratio = 0.9;
  cfg.store = gc_store_config();
  cfg.flush_period = 1'000.0;
  cfg.crashes = {CrashPlan{2, 6'000.0}};
  cfg.restarts = {RestartPlan{2, 12'000.0, /*resume_ops=*/25}};
  const auto out = run_store_simulation(S{}, cfg, [](Rng& rng) {
    WorkloadConfig w;
    w.value_range = 32;
    return random_set_update(rng, w);
  });
  EXPECT_TRUE(out.converged);
  EXPECT_EQ(out.net.restarts, 1u);
  // The rejoined store really went through snapshot install.
  EXPECT_GT(out.store_stats[2].snapshots_installed, 0u);
  EXPECT_GT(out.store_stats[2].catchup_keys, 0u);
  // Someone served it.
  std::uint64_t served = 0;
  for (const auto& s : out.store_stats) served += s.snapshots_served;
  EXPECT_GT(served, 0u);
  // GC kept the resident logs bounded on top of all that.
  std::uint64_t folded = 0;
  for (const auto& s : out.store_stats) folded += s.gc_folded;
  EXPECT_GT(folded, 0u);
}

}  // namespace
}  // namespace ucw
