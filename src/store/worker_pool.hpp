// StoreWorkerPool: shard engines spread across N single-owner workers,
// fed by any number of client threads.
//
// Update consistency needs no cross-key arbitration, so the store's
// shard engines are embarrassingly parallel — the only reason one
// thread ever owned them all was the monolithic StoreCore. The pool
// restores multi-core scaling while preserving the single-owner
// discipline *per shard*:
//
//   * worker w owns every engine with index ≡ w (mod workers) — a pure
//     function of key and config, so shard→worker assignment is stable
//     across restarts and identical on every replica of a config;
//   * the frontend is multi-producer: every client thread of the store
//     enqueues to the owning worker over an MPSC ring
//     (util/mpsc_ring.hpp). The ring keeps FIFO *per producer* — a
//     thread's query dequeues behind its own updates, preserving
//     read-your-writes per thread without blocking anyone — while
//     cross-thread interleaving is as arbitrary as the network already
//     makes delivery. Batches of updates ride multi-slot claims
//     (try_push_n: one CAS for k contiguous ops, still FIFO per
//     producer) and workers drain in blocks (try_pop_n);
//   * every worker also owns a *remote inbox*: a second MPSC ring of
//     pre-sharded entries that network delivery fills with only a
//     shard-index computation — the only way remote entries reach a
//     worker, with no router lock on the way (see
//     ThreadUcStore::deliver_sharded). The worker drains it
//     opportunistically every loop, and *always* before folding in a GC
//     op: fold ops ride the op ring behind the router's floor
//     computation, and the floor only covers entries whose envelopes
//     were delivered (hence pushed to remote inboxes) before it was
//     computed — draining the inbox first preserves "every entry at or
//     below the floor is applied before the fold";
//   * flush, GC-fold, and heartbeat ticks run per worker: each worker
//     drains its own engines into one envelope (seq drawn from the
//     router's atomic stream counter), folds its own dirty engines to
//     the router-computed floor (StoreCore::fold_engines, the same fold
//     the single-owner store runs), and charges a private StoreStats
//     slice, so concurrent ticks never share a cache line, let alone a
//     lock.
//
// Idle and wake policy. A worker with nothing to do spins 64 polls (the
// back-to-back case), then parks on its condition variable with a 1 ms
// timed wait. There is no yield phase in between: at ~10k ops/s per
// worker the next op always landed inside a 4096-yield window, so
// workers never parked and each burned a core on sched_yield syscalls.
// What a parked worker's work waits for depends on who needs it done:
//
//   * a caller that blocks on an op (query, flush, quiesce) does not
//     wake it: it takes the worker's mutex and runs the worker's loop
//     itself until its op is done (await). A wake-up costs tens of
//     microseconds to milliseconds of scheduling latency on a loaded
//     host; running inline costs none;
//   * remote deliveries, stop() and a producer facing a full ring wake
//     it at once;
//   * GC folds are compaction nobody waits for: gc_all() queues them
//     without waking, and the worker runs them with its next batch;
//   * plain updates (enqueue_update, enqueue_update_batch) wake it only
//     once its ring backlog (ring position + 1 − processed) reaches the
//     flush window, batch_window. The producer fast path stays one ring
//     push plus one load of `sleeping`; the backlog is read only when
//     the worker is parked.
//
// Updates are wait-free and reads may return outdated values, so a
// local update need not be applied the instant it is enqueued: a
// sub-window update is applied when the window fills, when a sync op
// or remote delivery reaches the worker, or when the park times out —
// within 1 ms. The worker is woken exactly when it would flush a full
// window, so the envelope cadence is unchanged, and read-your-writes
// still holds: a get() whose ticket the worker has not processed takes
// the ring round trip, which runs the backlog.
//
// Store-wide concerns stay behind the router lock (ThreadUcStore): the
// stability tracker is fed by envelope-header notes queued at delivery
// time and folded in on the router's tick, and the GC floor is computed
// there and handed to workers as a ring op — engine state is touched
// only by whoever runs its worker's loop. A get() that falls back to
// the ring promotes its key to a published read view (shard_engine.hpp),
// which is what lets the *next* get() of that key skip the ring
// entirely.
//
// Synchronization contract (what TSan checks): every engine is touched
// by one thread at a time — its worker, or a caller running the parked
// worker's loop under the worker's mutex, which hands the state over in
// both directions; other threads observe worker effects only through
// `processed` (release) after `quiesce()` (acquire) — which
// makes post-drain reads of engine state and stats slices sound once
// producers have stopped — or through the seqlock views, which are safe
// under full concurrency.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/store_obs.hpp"
#include "store/shard_engine.hpp"
#include "store/store_stats.hpp"
#include "util/affinity.hpp"
#include "util/mpsc_ring.hpp"

namespace ucw {

template <typename Store>
class StoreWorkerPool {
  using A = typename Store::Adt;
  using Key = typename Store::KeyT;
  using Engine = typename Store::Engine;
  using FlushCause = typename Store::FlushCause;

 public:
  /// One pre-sharded remote entry: the owning engine plus the keyed
  /// update itself (already stamped by the sender). What the network
  /// delivery path pushes into worker remote inboxes — by value, one
  /// ring slot per entry, a whole per-worker group under one multi-
  /// slot claim (no allocation on the delivery path).
  struct RemoteItem {
    std::uint32_t engine = 0;
    ProcessId from = 0;
    Key key{};
    UpdateMessage<A> msg{};
  };
  /// One element of a client-side update batch (enqueue_update_batch).
  struct BatchUpdate {
    std::uint32_t engine = 0;
    Key key{};
    UpdateMessage<A> msg{};
  };

 private:
  struct Op {
    enum class Kind : std::uint8_t {
      kUpdate,
      kQuery,
      kFlush,
      kGc,
      kStop,
    };
    Kind kind = Kind::kStop;
    std::uint32_t engine = 0;
    Key key{};
    UpdateMessage<A> msg{};
    LogicalTime gc_floor = 0;
    bool promote_key = false;  ///< kQuery: publish a view for this key
    const typename A::QueryIn* query_in = nullptr;
    typename A::QueryOut* query_out = nullptr;
    std::atomic<std::size_t>* counted = nullptr;  ///< kFlush: entries
  };

  struct Worker {
    MpscRing<Op> ring{kRingCapacity};
    /// Remote inbox: pre-sharded entries pushed straight from the
    /// network delivery path (no router lock), one envelope-slice per
    /// multi-slot claim. Sized in entries, to ride out router-tick
    /// gaps a few thousand deliveries long.
    MpscRing<RemoteItem> remote{kRemoteRingCapacity};
    std::vector<Engine*> engines;  ///< this worker's disjoint subset
    StoreStats stats;              ///< private flush/GC accounting slice
    std::vector<Op> block;         ///< reusable try_pop_n drain buffer
    std::vector<RemoteItem> rblock;  ///< reusable remote drain buffer
    std::uint16_t track = 0;       ///< trace track (worker w → track w+1)
    std::size_t pending = 0;       ///< buffered entries across its engines
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> remote_processed{0};  ///< entries applied
    // Idle parking (see the file header): the worker sleeps on the cv
    // with a timeout, so a lost wake costs a millisecond, never
    // liveness. `sleeping` is set, under the mutex, from the worker's
    // pre-park check until it has re-taken the mutex after its wait:
    // producers take the lock only when it is set, and a caller that
    // holds the lock and sees it set owns the worker's loop (await).
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<bool> sleeping{false};
    bool notified = false;  ///< this park's one notify was sent (mutex)
    std::atomic<std::uint64_t> parks{0};  ///< times the worker slept
    std::atomic<std::uint64_t> wakes{0};  ///< producer-side notifies
    bool stopping = false;  ///< a kStop op was processed
    std::thread thread;
  };

 public:
  static constexpr std::size_t kRingCapacity = 4096;
  static constexpr std::size_t kRemoteRingCapacity = 4096;
  /// Ops a worker takes from its ring per try_pop_n block.
  static constexpr std::size_t kDrainBlock = 64;
  /// Empty polls a worker spins through before it parks.
  static constexpr std::size_t kSpinPolls = 64;
  /// Longest park: bounds a lost wake and a sub-window update's wait.
  static constexpr std::chrono::milliseconds kParkTimeout{1};
  /// "No writes yet" ticket sentinel (see enqueue_update).
  static constexpr std::uint64_t kNoTicket =
      std::numeric_limits<std::uint64_t>::max();

  StoreWorkerPool(Store& store, std::size_t n_workers)
      : store_(store), tick_pos_(n_workers) {
    UCW_CHECK(n_workers >= 1);
    workers_.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->track = static_cast<std::uint16_t>(w + 1);
    }
    for (std::size_t i = 0; i < store_.shard_count(); ++i) {
      workers_[i % n_workers]->engines.push_back(&store_.engine(i));
    }
    for (auto& w : workers_) {
      w->thread = std::thread([this, wk = w.get()] { worker_main(*wk); });
    }
  }

  ~StoreWorkerPool() { stop(); }
  StoreWorkerPool(const StoreWorkerPool&) = delete;
  StoreWorkerPool& operator=(const StoreWorkerPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return workers_.size(); }
  [[nodiscard]] std::size_t worker_of(std::size_t engine_index) const {
    return engine_index % workers_.size();
  }

  void stop() {
    if (stopped_) return;
    stopped_ = true;
    for (auto& w : workers_) {
      Op op;
      op.kind = Op::Kind::kStop;
      (void)push(*w, std::move(op));
      wake(*w);
    }
    for (auto& w : workers_) w->thread.join();
  }

  /// Any client thread; FIFO with that thread's other ops only.
  /// Returns the op's ring-position *ticket*: the consumer pops in
  /// position order and bumps `processed` once per op, so
  /// `worker_processed(w) > ticket` is a precise "my update has been
  /// applied" test — the read-your-writes check behind get(). Wakes a
  /// parked worker only once a flush window of work is waiting.
  std::uint64_t enqueue_update(std::size_t engine_index, const Key& key,
                               UpdateMessage<A> msg) {
    Op op;
    op.kind = Op::Kind::kUpdate;
    op.engine = static_cast<std::uint32_t>(engine_index);
    op.key = key;
    op.msg = std::move(msg);
    Worker& w = *workers_[worker_of(engine_index)];
    const std::uint64_t pos = push(w, std::move(op));
    wake_for_backlog(w, pos);
    return pos;
  }

  /// Batched enqueue: every element must belong to `worker` (the caller
  /// grouped by worker_of already). One multi-slot ring claim per chunk
  /// — a single CAS covers up to kRingCapacity/2 ops — and the block
  /// occupies contiguous positions, so per-producer FIFO is exactly as
  /// for singles. Returns the LAST claimed position (the batch's
  /// read-your-writes ticket) and reports claims made via `claims_out`.
  std::uint64_t enqueue_update_batch(std::size_t worker,
                                     std::vector<BatchUpdate>& ops,
                                     std::uint64_t* claims_out = nullptr) {
    UCW_CHECK(!ops.empty());
    Worker& w = *workers_[worker];
    // Thread-local staging keeps the batch path allocation-free in
    // steady state (the buffer is private to one call at a time —
    // cleared on entry, never used across calls).
    static thread_local std::vector<Op> block;
    block.clear();
    block.reserve(ops.size());
    for (BatchUpdate& u : ops) {
      Op op;
      op.kind = Op::Kind::kUpdate;
      op.engine = u.engine;
      op.key = std::move(u.key);
      op.msg = std::move(u.msg);
      block.push_back(std::move(op));
    }
    ops.clear();  // elements were moved from; capacity stays for reuse
    std::uint64_t last_pos = 0;
    std::uint64_t claims = 0;
    std::size_t off = 0;
    while (off < block.size()) {
      // Chunk at half the ring so a large batch cannot deadlock against
      // a full ring (the consumer is guaranteed to free slots).
      const std::size_t n =
          std::min(block.size() - off, kRingCapacity / 2);
      std::uint64_t pos = 0;
      while (!w.ring.try_push_n(block.data() + off, n, &pos)) {
        wake(w);  // full ring: the owner is behind, get it moving
        std::this_thread::yield();
      }
      ++claims;
      last_pos = pos + n - 1;
      off += n;
      wake_for_backlog(w, last_pos);
    }
    if (claims_out != nullptr) *claims_out = claims;
    return last_pos;
  }

  /// Network delivery path (any thread, NO router lock): moves one
  /// envelope's pre-sharded slice into `worker`'s remote inbox — one
  /// multi-slot claim per chunk, one wake — and clears `items` with
  /// its capacity intact, so a reused scratch group allocates nothing
  /// in steady state.
  void deliver_remote(std::size_t worker, std::vector<RemoteItem>& items) {
    Worker& w = *workers_[worker];
    std::size_t off = 0;
    while (off < items.size()) {
      const std::size_t n =
          std::min(items.size() - off, kRemoteRingCapacity / 2);
      while (!w.remote.try_push_n(items.data() + off, n)) {
        wake(w);  // full ring: the owner is behind, get it moving
        std::this_thread::yield();
      }
      off += n;
    }
    items.clear();
    wake(w);
  }

  /// Acquire-load of worker `w`'s processed-op count (ticket check).
  [[nodiscard]] std::uint64_t worker_processed(std::size_t w) const {
    return workers_[w]->processed.load(std::memory_order_acquire);
  }

  /// Runs the query on the owning worker and waits for the answer —
  /// ring FIFO behind any update the calling thread already enqueued,
  /// so every client thread reads its own writes. With `promote` (a
  /// get() fallback) the worker also publishes a view for the key, so
  /// subsequent get()s of it skip the ring; plain query() passes false
  /// — promotion is opt-in by read path, a keyspace scan through
  /// query() must not inflate the hot set. Any client thread.
  [[nodiscard]] typename A::QueryOut run_query(
      std::size_t engine_index, const Key& key,
      const typename A::QueryIn& qi, bool promote) {
    typename A::QueryOut out{};
    Op op;
    op.kind = Op::Kind::kQuery;
    op.engine = static_cast<std::uint32_t>(engine_index);
    op.key = key;
    op.promote_key = promote;
    op.query_in = &qi;
    op.query_out = &out;
    Worker& w = *workers_[worker_of(engine_index)];
    await(w, w.processed, push(w, std::move(op)) + 1);
    return out;
  }

  /// Synchronous flush tick across every worker: each drains its own
  /// engines into one envelope. Returns total entries flushed.
  /// Router-lock holder only.
  std::size_t flush_all() {
    std::atomic<std::size_t> flushed{0};
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Op op;
      op.kind = Op::Kind::kFlush;
      op.counted = &flushed;
      tick_pos_[i] = push(*workers_[i], std::move(op));
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      await(*workers_[i], workers_[i]->processed, tick_pos_[i] + 1);
    }
    return flushed.load(std::memory_order_relaxed);
  }

  /// GC tick: queues, on every worker, a fold of its dirty engines to
  /// `floor`. Does not wait and does not wake: the fold is compaction,
  /// so it runs whenever the worker next runs — within one park timeout
  /// — instead of on the caller's flush tick. Because the fold rides the
  /// same rings as updates, every entry enqueued before this call is
  /// applied before its engine folds — which is what lets the router
  /// raise the floor up to the stamp barrier (see ThreadUcStore::flush)
  /// without folding over an in-ring entry. Router-lock holder only.
  void gc_all(LogicalTime floor) {
    for (auto& w : workers_) {
      Op op;
      op.kind = Op::Kind::kGc;
      op.gc_floor = floor;
      (void)push(*w, std::move(op));
    }
  }

  /// Blocks until every op pushed before this call has been processed,
  /// running a parked worker's sub-window backlog itself. With
  /// producers stopped, engine state (drain barriers, state_of, stats)
  /// is then safely readable from the calling thread; with producers
  /// still running it is only a point-in-time drain barrier.
  void quiesce() {
    for (const auto& w : workers_) {
      await(*w, w->remote_processed, w->remote.pushed());
      await(*w, w->processed, w->ring.pushed());
    }
  }

  /// Folds the workers' private flush/GC accounting slices and their
  /// park/wake counts into `s`. Callers quiesce first.
  void merge_stats(StoreStats& s) const {
    for (const auto& w : workers_) {
      merge_wire_counters(s, w->stats);
      s.worker_parks += w->parks.load(std::memory_order_relaxed);
      s.worker_wakes += w->wakes.load(std::memory_order_relaxed);
    }
  }

 private:
  /// Claims a ring slot for `op` and returns its position. Wakes the
  /// worker only while the ring is full; callers decide the rest.
  std::uint64_t push(Worker& w, Op&& op) {
    std::uint64_t pos = 0;
    while (!w.ring.try_push(std::move(op), &pos)) {
      wake(w);  // full ring: the owner is behind, get it moving
      std::this_thread::yield();
    }
    return pos;
  }

  /// Wakes `w` if it is parked and `lagging()` holds. The predicate is
  /// checked without the lock first, so a parked worker costs a
  /// producer that does not wake it no lock traffic, then again under
  /// the lock, where it is exact: the worker only parks after
  /// publishing its counters. A busy lock is not waited for — its
  /// holder is the worker about to re-check its rings, another waker,
  /// or a caller running the worker's loop (await) — so a producer
  /// never blocks here, and a wake skipped this way costs at most one
  /// park timeout. `notified` makes one park take at most one notify,
  /// sent after unlocking so the worker need not block on the mutex
  /// again.
  template <typename Pred>
  static void wake_if(Worker& w, Pred lagging) {
    if (!w.sleeping.load(std::memory_order_seq_cst) || !lagging()) return;
    {
      std::unique_lock lock(w.mutex, std::try_to_lock);
      if (!lock.owns_lock() || !w.sleeping.load(std::memory_order_relaxed) ||
          w.notified || !lagging()) {
        return;
      }
      w.notified = true;
    }
    w.wakes.fetch_add(1, std::memory_order_relaxed);
    w.cv.notify_one();
  }

  static void wake(Worker& w) {
    wake_if(w, [] { return true; });
  }

  /// Plain-update wake: only once the ops up to ring position `last`
  /// that `w` has not processed fill a flush window.
  void wake_for_backlog(Worker& w, std::uint64_t last) const {
    wake_if(w, [&] {
      const std::uint64_t done = w.processed.load(std::memory_order_relaxed);
      return done <= last &&
             last + 1 - done >= store_.config().batch_window;
    });
  }

  /// Blocks until `counter` (one of `w`'s processed counts) reaches
  /// `target`. A parked worker, even one already notified, is not
  /// waited for: the caller takes its mutex and runs its loop inline
  /// until the target is reached. The worker cannot leave its wait
  /// while the mutex is held, and the mutex hands its state over in
  /// both directions, so the engines still have one owner at a time —
  /// and an op someone waits on never waits out a wake-up's
  /// scheduling latency.
  void await(Worker& w, const std::atomic<std::uint64_t>& counter,
             std::uint64_t target) {
    while (counter.load(std::memory_order_acquire) < target) {
      if (w.sleeping.load(std::memory_order_seq_cst)) {
        std::unique_lock lock(w.mutex, std::try_to_lock);
        if (lock.owns_lock() && w.sleeping.load(std::memory_order_relaxed)) {
          while (counter.load(std::memory_order_relaxed) < target) {
            if (!run_once(w)) std::this_thread::yield();
          }
          return;
        }
      }
      std::this_thread::yield();
    }
  }

  /// Sleeps until notified or kParkTimeout passes. The emptiness
  /// check after publishing `sleeping` means an op pushed before it
  /// keeps the worker up; one pushed after it finds the worker parked,
  /// and wakes it or runs its loop, as the op's policy says.
  void park(Worker& w) {
    std::unique_lock lock(w.mutex);
    w.sleeping.store(true, std::memory_order_seq_cst);
    if (w.ring.empty() && w.remote.empty()) {
      w.parks.fetch_add(1, std::memory_order_relaxed);
      w.notified = false;
      w.cv.wait_for(lock, kParkTimeout, [&] { return w.notified; });
    }
    w.sleeping.store(false, std::memory_order_relaxed);
  }

  /// Applies every remote entry currently in `w`'s inbox (owner thread
  /// only), block-draining into the reusable buffer. Called
  /// opportunistically each loop iteration and — load-bearing for GC
  /// soundness — at the top of every kGc op: the floor the fold
  /// carries only covers entries delivered (pushed here) before it was
  /// computed, so draining first guarantees no fold over an entry
  /// still in the inbox.
  void drain_remote(Worker& w) {
    for (;;) {
      w.rblock.clear();
      const std::size_t got = w.remote.try_pop_n(w.rblock, kDrainBlock);
      if (got == 0) return;
      for (RemoteItem& item : w.rblock) {
        (void)store_.engine(item.engine)
            .apply_remote(item.from, item.key, item.msg);
        if (const auto& o = store_.obs_;
            o && o->tracer && o->sampled(item.msg.stamp.clock)) {
          o->tracer->instant(w.track, obs::TraceEventKind::kApplyRemote,
                             item.msg.stamp.clock);
        }
      }
      w.remote_processed.fetch_add(got, std::memory_order_release);
    }
  }

  void worker_main(Worker& w) {
    if (store_.config().pin_workers) {
      (void)pin_current_thread_to_core(static_cast<std::size_t>(w.track) - 1);
    }
    w.block.reserve(kDrainBlock);
    w.rblock.reserve(kDrainBlock);
    std::size_t idle = 0;
    while (!w.stopping) {
      if (run_once(w)) {
        idle = 0;
        continue;
      }
      // Hot spin for back-to-back ops, then park. `idle` stays past the
      // spin budget after a park, so a timeout that finds no work parks
      // again at once.
      if (++idle > kSpinPolls) park(w);
    }
  }

  /// One pass of the worker loop: applies the remote inbox, then one
  /// block of ring ops. False when the ring had nothing to pop. Run by
  /// the worker, or by a caller that holds the parked worker's mutex
  /// (await), never by two threads at once.
  bool run_once(Worker& w) {
    drain_remote(w);
    w.block.clear();
    if (w.ring.try_pop_n(w.block, kDrainBlock) == 0) return false;
    for (Op& popped : w.block) {
      Op* op = &popped;
      switch (op->kind) {
        case Op::Kind::kUpdate: {
          const LogicalTime sc = op->msg.stamp.clock;
          store_.engine(op->engine).local_update(op->key, std::move(op->msg));
          if (const auto& o = store_.obs_;
              o && o->tracer && o->sampled(sc)) {
            o->tracer->instant(w.track, obs::TraceEventKind::kApplyLocal,
                               sc);
          }
          if (++w.pending >= store_.config().batch_window) {
            (void)store_.flush_engines(w.engines, FlushCause::kWindowFull,
                                       w.stats, /*piggyback_ack=*/false,
                                       w.track);
            w.pending = 0;
          }
          break;
        }
        case Op::Kind::kQuery: {
          Engine& e = store_.engine(op->engine);
          *op->query_out = e.query(op->key, *op->query_in);
          // A get() fallback promotes: from here on this key answers
          // get() from its published view, no ring round trip.
          if (op->promote_key) e.promote(op->key);
          break;
        }
        case Op::Kind::kFlush: {
          for (Engine* e : w.engines) e->on_flush_tick();
          const std::size_t n = store_.flush_engines(
              w.engines, FlushCause::kManual, w.stats,
              /*piggyback_ack=*/false, w.track);
          w.pending = 0;
          op->counted->fetch_add(n, std::memory_order_relaxed);
          break;
        }
        case Op::Kind::kGc: {
          // Entries the floor covers may still sit in the remote
          // inbox (they were pushed there before the floor was
          // computed): apply them before folding.
          drain_remote(w);
          (void)store_.fold_engines(w.engines, op->gc_floor, w.stats,
                                    w.track);
          break;
        }
        case Op::Kind::kStop:
          w.stopping = true;
          break;
      }
      w.processed.fetch_add(1, std::memory_order_release);
    }
    return true;
  }

  Store& store_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::uint64_t> tick_pos_;  ///< flush_all's op positions
  bool stopped_ = false;
};

}  // namespace ucw
