// ThreadUcStore: the UCStore on the real-thread transport — a
// multi-client frontend with a wait-free read path.
//
// Unpooled (`workers == 1`, the default) this is the classic
// single-owner store: one thread calls update/query/flush freely and
// remote envelopes accumulate in the process inbox until poll() folds
// them in (update and query poll opportunistically). Batching works
// exactly as in SimUcStore — both share StoreCore — so wait-freedom is
// preserved under genuine concurrency: an update never waits on
// receivers, a flush only pays the per-peer enqueue.
//
// With `StoreConfig::workers > 1` the store becomes a real frontend:
//
//   * N *client threads* (up to `max_producers`) call update(), query()
//     and get() concurrently. update() stamps from the atomic store
//     clock (fetch-add: stamps stay unique and per-process monotone no
//     matter how many threads draw them) and enqueues to the owning
//     worker over an MPSC ring (util/mpsc_ring.hpp). FIFO per producer
//     through the ring preserves read-your-writes *per thread* via
//     query(); cross-thread interleaving is as arbitrary as network
//     delivery already is, and per-key arbitration never cared.
//   * M *worker threads* own disjoint shard-engine sets (shard → worker
//     by index mod M — stable across restarts) and apply, batch, flush,
//     and GC-fold their own engines only. An idle worker parks, and a
//     plain update wakes it only once a flush window of work waits for
//     it (worker_pool.hpp), so a pooled update is applied when its
//     worker's window fills, when a sync op (query, ring-fallback get,
//     flush, quiesce) or a remote delivery reaches that worker, or
//     within 1 ms. A sync op on a parked worker runs the worker's loop
//     on the calling thread instead of waking it.
//   * get() is the wait-free read path: a hot key (any key get() has
//     read once) has a seqlock-published view the reading thread loads
//     as an immutable shared snapshot with bounded retries — ZERO state
//     copies, no ring, no parking behind a worker tick, no locks. Cold
//     keys fall back to the ring round trip, which promotes them
//     (query() never promotes — the hot set grows only with keys
//     actually read through get()). get() is also read-your-writes per
//     thread: every update() returns after recording a ring-position
//     ticket, and get() serves from the view only once the owning
//     worker's processed count passed the caller's last ticket for that
//     worker — otherwise it falls back to the ring (FIFO behind the
//     caller's own updates, counted in `ryw_ring_fallbacks`).
//   * network *delivery* is inbox-sharded: any thread that notices
//     inbound envelopes (update/query/get try, poll/flush insist)
//     drains the process inbox under a dedicated delivery spinlock — a
//     try-lock, never the router lock — and pushes each envelope's
//     entries straight into the owning workers' remote inboxes with
//     only a shard-index computation. The envelope *header* (epoch,
//     seq, ack clock) is queued on a small duty ring for the router.
//     This is the only remote-delivery path.
//   * the *router* role — whichever thread holds the router lock:
//     poll()/flush() take it — is off the per-op hot path entirely: it
//     drains the duty ring (stream positions, stability acks), runs
//     the flush/heartbeat/GC tick, and owns recovery bookkeeping.
//
// Ack honesty under concurrent stamping: a pooled batch envelope ships
// ack_clock = 0 (one worker cannot vouch for the whole process stream),
// so the ack travels on the router's flush-time heartbeat. With client
// threads stamping *during* the flush, "my clock now" would overclaim —
// a thread may hold a freshly drawn stamp that no ring has seen. Each
// client thread therefore keeps a claim slot: kClaiming while it draws
// a stamp, the stamp value until the ring push lands, kIdle after. The
// router's stamp_barrier() = min(clock, oldest in-flight claim − 1):
// every stamp at or below it is provably in a ring, hence drained by
// the flush the router just ran, hence behind the heartbeat in every
// receiver's FIFO inbox. The same barrier bounds the GC self row (the
// fold rides the rings, so entries below the barrier are applied before
// their engine folds). Every participant of the protocol — producer
// registration, claim stores, the clock tick, the router's clock read,
// the scan bound and the claim scan — is seq_cst: the argument is
// about their single total order. update_batch() extends the protocol
// to multi-slot claims: one tick_n draws k consecutive stamps and the
// slot holds the SMALLEST of them until every multi-slot push lands, so
// the barrier stays below the whole batch while any of it is in flight.
//
// Ack honesty on the *receiving* side of sharded delivery: an
// envelope's entries are pushed into worker remote inboxes strictly
// before its header note is pushed onto the duty ring, so by the time
// the router observes the piggybacked ack, the entries it vouches for
// are already in inboxes — and a worker drains its remote inbox before
// every GC fold (worker_pool.hpp), so the floor that ack feeds can
// never fold over an entry still in flight.
//
// What the pool still trades away is cross-object *causality* of
// stamps: a client thread stamps before workers finish merging remote
// clocks, so a stamp may not dominate a remote update whose entry is
// still in a ring. Update consistency never needed that dominance
// (arbitration only requires unique, per-process-monotone stamps), but
// sessions wanting causal stamps should run 1 worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/thread_network.hpp"
#include "store/store_core.hpp"
#include "store/worker_pool.hpp"
#include "util/mpsc_ring.hpp"

namespace ucw {

/// Process-wide id generator for ThreadUcStore instances: keys the
/// per-thread producer-slot cache, so a store reallocated at a dead
/// store's address can never inherit its slots.
inline std::uint64_t next_thread_store_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The real-concurrency frontend, generic over the transport: `Net`
/// defaults to the in-process ThreadNetwork (the classic thread store),
/// and any transport exposing the same `inbox(pid)` pull surface — the
/// UDP socket transport in net/udp_transport.hpp — slots in unchanged.
/// StoreCore's concept detection does the rest: a transport that also
/// offers p2p sends and epochs (UDP does) lights up catch-up and
/// anti-entropy, one that offers partitions (ThreadNetwork) keeps its
/// hold-mode semantics.
template <UqAdt A, typename Key = std::string,
          typename Net = ThreadNetwork<BatchEnvelope<A, Key>>>
class ThreadUcStore : public StoreCore<A, Net, Key> {
  using Core = StoreCore<A, Net, Key>;
  using Pool = StoreWorkerPool<ThreadUcStore<A, Key, Net>>;
  friend Pool;

 public:
  using Envelope = typename Core::Envelope;

  ThreadUcStore(A adt, ProcessId pid, Net& net, StoreConfig config = {})
      : Core(std::move(adt), pid, net, config), uid_(next_thread_store_uid()) {
    if (config.workers > 1) {
      UCW_CHECK(config.max_producers >= 1);
      claim_slots_ = std::make_unique<ClaimSlot[]>(config.max_producers);
      for (std::size_t i = 0; i < config.max_producers; ++i) {
        claim_slots_[i].last_ticket =
            std::make_unique<std::uint64_t[]>(config.workers);
        for (std::size_t w = 0; w < config.workers; ++w) {
          claim_slots_[i].last_ticket[w] = Pool::kNoTicket;
        }
      }
      scratch_batches_.resize(config.workers);
      pool_ = std::make_unique<Pool>(*this, config.workers);
    }
  }

  // Derived members (the pool and its threads) are destroyed before the
  // Core base — workers stop and join while the engines still exist.
  // Caller contract: no client thread is still inside an operation.
  ~ThreadUcStore() {
    if (pool_) pool_->stop();
  }

  /// Which worker owns `key`'s shard engine (0 when unpooled). A pure
  /// function of key and config — stable across restarts. Any thread.
  [[nodiscard]] std::size_t worker_of(const Key& key) const {
    return pool_ ? pool_->worker_of(this->shard_index(key)) : 0;
  }
  /// Worker-thread count (1 when unpooled). Any thread.
  [[nodiscard]] std::size_t workers() const {
    return pool_ ? pool_->workers() : 1;
  }

  // ----- operation surface ---------------------------------------------
  // Unpooled: single owner thread, straight from StoreCore (the core
  // polls the inbox itself). Pooled: any client thread, concurrently.

  /// Wait-free keyed update. Stamps, applies (synchronously unpooled;
  /// via the owning worker's ring pooled), buffers for the next flush;
  /// returns the arbitration stamp. Never waits on any other process.
  /// Pooled: safe from up to `max_producers` concurrent client threads,
  /// and applied by the owning worker once its flush window fills, a
  /// sync op or remote delivery reaches it, or its 1 ms park times out
  /// — whichever is first. The calling thread's own get()/query()
  /// always sees it.
  Stamp update(const Key& key, typename A::Update u) {
    if (!pool_) return Core::update(key, u);
    (void)try_deliver_inbox();
    // The claim protocol around the tick (see file header): kClaiming
    // before drawing, the stamp until the ring push lands, kIdle after.
    // Everything seq_cst — stamp_barrier() reasons in the total order.
    const std::size_t producer = producer_index();
    ClaimSlot& slot = claim_slots_[producer];
    slot.claim.store(kClaiming, std::memory_order_seq_cst);
    const Stamp stamp = this->clock_.tick(std::memory_order_seq_cst);
    slot.claim.store(stamp.clock, std::memory_order_seq_cst);
    if (const auto& o = this->obs_;
        o && o->tracer && o->sampled(stamp.clock)) {
      o->tracer->instant(0, obs::TraceEventKind::kUpdateStamp, stamp.clock);
    }
    // Each client thread writes its own recorder ring (slot == producer
    // slot), so the captured per-(process, thread) chains really are
    // program order — the relation the offline auditor reasons over.
    if (this->recorder_) {
      this->recorder_->record_update(producer, key, stamp, u);
    }
    const std::size_t engine = this->shard_index(key);
    const std::uint64_t ticket = pool_->enqueue_update(
        engine, key, UpdateMessage<A>{stamp, std::move(u), {}});
    slot.claim.store(kIdle, std::memory_order_release);
    // The returned stamp doubles as this thread's session token: the
    // ticket recorded here is what get() checks to honor read-your-
    // writes automatically (no token passing needed).
    slot.last_ticket[pool_->worker_of(engine)] = ticket;
    return stamp;
  }

  /// Batched wait-free updates: stamps all k ops with ONE clock
  /// fetch-add (tick_n — op i gets clock first+i, so stamps stay unique
  /// and per-producer monotone) and enqueues each owning worker's group
  /// with one multi-slot ring claim (one CAS per worker touched, not
  /// per op). Returns the arbitration stamps in input order. Ack
  /// honesty under multi-slot claims: the claim slot holds the SMALLEST
  /// stamp of the batch from before the first push until the last one
  /// lands, so stamp_barrier() stays below the entire batch while any
  /// of it is in flight. FIFO per producer is preserved — each group
  /// occupies contiguous ring positions in input order. Consumes `ops`
  /// (elements are moved out; the vector is left cleared with its
  /// capacity intact, so a caller looping batches reuses one buffer
  /// allocation-free). Pooled: safe from concurrent client threads;
  /// unpooled it degenerates to a loop of plain updates.
  std::vector<Stamp> update_batch(
      std::vector<std::pair<Key, typename A::Update>>& ops) {
    std::vector<Stamp> stamps;
    if (ops.empty()) return stamps;
    stamps.reserve(ops.size());
    if (!pool_) {
      for (auto& [key, u] : ops) {
        stamps.push_back(Core::update(key, std::move(u)));
      }
      ops.clear();
      return stamps;
    }
    (void)try_deliver_inbox();
    const std::size_t producer = producer_index();
    ClaimSlot& slot = claim_slots_[producer];
    slot.claim.store(kClaiming, std::memory_order_seq_cst);
    const Stamp first =
        this->clock_.tick_n(ops.size(), std::memory_order_seq_cst);
    slot.claim.store(first.clock, std::memory_order_seq_cst);
    const std::size_t nw = pool_->workers();
    // Thread-local grouping scratch: cleared group-by-group after each
    // enqueue below, so steady-state batches allocate only the
    // returned stamps vector.
    static thread_local std::vector<
        std::vector<typename Pool::BatchUpdate>>
        groups;
    if (groups.size() < nw) groups.resize(nw);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Stamp stamp{first.clock + i, first.pid};
      stamps.push_back(stamp);
      if (const auto& o = this->obs_;
          o && o->tracer && o->sampled(stamp.clock)) {
        o->tracer->instant(0, obs::TraceEventKind::kUpdateStamp,
                           stamp.clock);
      }
      if (this->recorder_) {
        this->recorder_->record_update(producer, ops[i].first, stamp,
                                       ops[i].second);
      }
      const std::size_t engine = this->shard_index(ops[i].first);
      groups[pool_->worker_of(engine)].push_back(
          {static_cast<std::uint32_t>(engine), std::move(ops[i].first),
           UpdateMessage<A>{stamp, std::move(ops[i].second), {}}});
    }
    for (std::size_t w = 0; w < nw; ++w) {
      if (groups[w].empty()) continue;
      const std::uint64_t group_ops = groups[w].size();
      std::uint64_t claims = 0;
      const std::uint64_t ticket =
          pool_->enqueue_update_batch(w, groups[w], &claims);
      slot.last_ticket[w] = ticket;
      if (group_ops > 1) {
        ring_batch_claims_.fetch_add(claims, std::memory_order_relaxed);
        ring_batch_ops_.fetch_add(group_ops, std::memory_order_relaxed);
      }
    }
    slot.claim.store(kIdle, std::memory_order_release);
    ops.clear();  // inputs were moved from; capacity stays for reuse
    return stamps;
  }

  /// Keyed query with per-thread read-your-writes: rides the owning
  /// worker's ring FIFO behind the calling thread's own updates, so the
  /// answer includes them. Blocks for the ring round trip (bounded by
  /// local work only — no remote process is waited on). Never promotes
  /// — a keyspace scan through query() must not inflate the hot set;
  /// only get() opts keys into published views. Pooled: safe from
  /// concurrent client threads.
  [[nodiscard]] typename A::QueryOut query(const Key& key,
                                           const typename A::QueryIn& qi) {
    if (!pool_) return Core::query(key, qi);
    (void)try_deliver_inbox();
    typename A::QueryOut out = pool_->run_query(this->shard_index(key), key,
                                                qi, /*promote=*/false);
    if (this->recorder_) {
      this->recorder_->record_query(producer_index(), key,
                                    this->clock_.now(), out);
    }
    return out;
  }

  /// The wait-free read path: a hot key answers from its seqlock-
  /// published view — an immutable shared snapshot, ZERO state copies,
  /// bounded retries, no ring, no locks, never parks behind a worker
  /// tick. A cold key (or a view racing its publisher past the retry
  /// budget) falls back to the ring round trip, which promotes it.
  /// Read-your-writes per thread: the view is served only when the
  /// owning worker's processed count passed the calling thread's last
  /// update ticket for that worker (the stamp update() returned doubles
  /// as the session token — tracked internally, nothing to pass).
  /// Otherwise get() takes the ring round trip, which dequeues FIFO
  /// behind the caller's own updates (`ryw_ring_fallbacks` counts
  /// these). Unpooled this is exactly query(). Pooled: safe from
  /// concurrent client threads.
  [[nodiscard]] typename A::QueryOut get(const Key& key,
                                         const typename A::QueryIn& qi) {
    if (!pool_) return Core::query(key, qi);
    const std::size_t engine = this->shard_index(key);
    const std::size_t w = pool_->worker_of(engine);
    const std::size_t producer = producer_index();
    const std::uint64_t ticket = claim_slots_[producer].last_ticket[w];
    // Ticket check BEFORE the view read: the worker publishes the view
    // during the apply and only then releases `processed`, so the
    // acquire load here passing the ticket orders the snapshot read
    // after this thread's own last write to that worker.
    const bool own_writes_visible =
        ticket == Pool::kNoTicket || pool_->worker_processed(w) > ticket;
    if (own_writes_visible) {
      if (auto state = this->engine(engine).try_read_published(key)) {
        published_reads_.fetch_add(1, std::memory_order_relaxed);
        zero_copy_reads_.fetch_add(1, std::memory_order_relaxed);
        typename A::QueryOut out = this->adt().output(*state, qi);
        if (this->recorder_) {
          this->recorder_->record_query(producer, key, this->clock_.now(),
                                        out);
        }
        return out;
      }
    } else {
      ryw_ring_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    ring_reads_.fetch_add(1, std::memory_order_relaxed);
    (void)try_deliver_inbox();
    typename A::QueryOut out =
        pool_->run_query(engine, key, qi, /*promote=*/true);
    if (this->recorder_) {
      this->recorder_->record_query(producer, key, this->clock_.now(), out);
    }
    return out;
  }

  /// The raw zero-copy primitive behind get(): the immutable shared
  /// snapshot of a hot key's published state, or nullptr when the key
  /// is cold (never promoted through get()) or the store is unpooled.
  /// The pointee NEVER changes — later applies publish new snapshots;
  /// holding the pointer pins this version only. Any thread.
  [[nodiscard]] std::shared_ptr<const typename A::State> try_get_snapshot(
      const Key& key) {
    if (!pool_) return nullptr;
    return this->engine(this->shard_index(key)).try_read_published(key);
  }

  /// Drains the process inbox into the engines (via the rings, pooled).
  /// Returns envelopes folded in. Pooled: any thread; the duty-ring
  /// drain serializes on the router lock.
  std::size_t poll() {
    if (!pool_) return Core::poll();
    const std::size_t delivered = try_deliver_inbox();
    std::lock_guard lock(router_mutex_);
    (void)drain_duty_locked();
    return delivered;
  }

  /// Ships every pending batch, heartbeats the stability ack, and runs
  /// the GC fold (pooled: queues it on the workers' rings without
  /// waiting for it). Pooled: any thread, concurrently with client-thread
  /// updates — the tick serializes on the router lock, the honest-ack
  /// barrier and ring-riding fold keep it correct while updates race
  /// (see file header). Returns entries flushed.
  std::size_t flush() {
    if (!pool_) return Core::flush();
    // Deliver before taking the router lock, as poll() does: with the
    // duty ring full, deliver_sharded try-locks router_mutex_ itself.
    (void)try_deliver_inbox();
    std::lock_guard lock(router_mutex_);
    (void)drain_duty_locked();
    // The barrier *before* the flush ops: every stamp at or below it is
    // already in a ring, so the kFlush behind it drains it onto the
    // wire, and the heartbeat broadcast *after* flush_all is behind
    // those envelopes in every receiver's FIFO inbox — the ack is
    // honest. Stamps drawn after the barrier read are larger than it.
    const LogicalTime barrier = stamp_barrier();
    const std::size_t flushed = pool_->flush_all();
    this->maybe_send_ack(barrier);
    if (this->stability_) {
      // Router computes the floor (engine-free), workers fold their own
      // engines; the fold op rides the same rings as updates, so every
      // entry at or below the barrier is applied before its engine
      // folds — raising the self row to the barrier cannot fold over an
      // in-ring entry even in a 1-process cluster.
      const LogicalTime floor = this->refresh_stability_floor(barrier);
      if (floor > 0) pool_->gc_all(floor);
    }
    // Reads only atomics (worker-side last-applied mirrors, the lag
    // histogram) plus router-guarded stats — safe while workers run.
    this->sample_convergence_obs(barrier);
    return flushed;
  }

  /// The converged state `key`'s replica currently holds. Pooled:
  /// requires external quiescence (no concurrent client ops) — it reads
  /// engine-owned state after a drain barrier. Use get() for a safe
  /// concurrent read.
  [[nodiscard]] typename A::State state_of(const Key& key) {
    sync_engines();
    return Core::state_of(key);
  }

  // Introspection below reads engine-owned state and therefore, like
  // state_of(), REQUIRES external quiescence: no client thread may be
  // inside an operation (workers keep mutating engine maps after a
  // quiesce taken mid-traffic, so "concurrent but stale" is not on
  // offer — it would race). The internal quiesce is what makes the
  // post-stop read sound: the workers' release on `processed` paired
  // with quiesce's acquire publishes the plain counters and maps to
  // this thread. For a safe concurrent read of a key, use get().
  [[nodiscard]] StoreStats stats() const {
    sync_engines();
    StoreStats s = Core::stats();
    if (pool_) pool_->merge_stats(s);
    s.published_reads = published_reads_.load(std::memory_order_relaxed);
    s.ring_reads = ring_reads_.load(std::memory_order_relaxed);
    s.inbox_deliveries = inbox_deliveries_.load(std::memory_order_relaxed);
    s.ring_batch_claims =
        ring_batch_claims_.load(std::memory_order_relaxed);
    s.ring_batch_ops = ring_batch_ops_.load(std::memory_order_relaxed);
    s.zero_copy_reads = zero_copy_reads_.load(std::memory_order_relaxed);
    s.ryw_ring_fallbacks =
        ryw_ring_fallbacks_.load(std::memory_order_relaxed);
    return s;
  }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const {
    sync_engines();
    return Core::shard_stats();
  }
  [[nodiscard]] std::size_t pending() const {
    sync_engines();
    return Core::pending();
  }
  [[nodiscard]] std::size_t keys_live() const {
    sync_engines();
    return Core::keys_live();
  }
  [[nodiscard]] std::vector<Key> keys() const {
    sync_engines();
    return Core::keys();
  }
  [[nodiscard]] std::size_t approx_bytes() const {
    sync_engines();
    return Core::approx_bytes();
  }
  [[nodiscard]] std::uint64_t log_entries_resident() const {
    sync_engines();
    return Core::log_entries_resident();
  }

  /// Blocks until `total_entries` *distinct* keyed updates (local +
  /// remote, replays excluded) have been applied, or the inbox closes —
  /// the quiescence barrier the stress tests use. Callers must have
  /// flushed everywhere first and stopped their client threads.
  void drain_until(std::uint64_t total_entries) {
    if (!pool_) {
      (void)Core::poll();
      while (applied_entries() < total_entries) {
        auto env = this->net_->inbox(this->pid_).pop_wait();
        if (!env.has_value()) return;  // closed
        this->deliver(env->from, env->payload);
      }
      return;
    }
    for (;;) {
      (void)poll();
      // The inbox is empty, but delivered entries may still sit in
      // worker rings/inboxes — wait them out before deciding short.
      pool_->quiesce();
      if (applied_entries() >= total_entries) return;
      auto env = this->net_->inbox(this->pid_).pop_wait();
      if (!env.has_value()) return;  // closed
      while (deliver_lock_.test_and_set(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      deliver_sharded(env->from, std::move(env->payload));
      deliver_lock_.clear(std::memory_order_release);
    }
  }

  /// Distinct keyed updates this store has applied from any source;
  /// replays the per-key logs absorbed are not counted, so this reaches
  /// the global update count even under at-least-once delivery. Any
  /// thread (relaxed counters).
  [[nodiscard]] std::uint64_t applied_entries() const {
    std::uint64_t n = 0;
    for (const auto& e : this->engines_) n += e->applied_distinct();
    return n;
  }

 private:
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint64_t kClaiming = kIdle - 1;

  /// One client thread's stamp-in-flight slot (see file header), plus
  /// its read-your-writes tickets: `last_ticket[w]` is the ring
  /// position of this thread's newest update enqueued to worker w
  /// (Pool::kNoTicket = none yet). Plain storage — only the owning
  /// thread ever touches its own slot's tickets.
  struct alignas(64) ClaimSlot {
    std::atomic<std::uint64_t> claim{kIdle};
    std::unique_ptr<std::uint64_t[]> last_ticket;
  };

  /// A delivered envelope's header, queued for the router's stream/ack
  /// bookkeeping while its entries go straight to worker inboxes.
  struct StreamNote {
    ProcessId from = 0;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    LogicalTime ack_clock = 0;
  };

  void sync_engines() const {
    if (pool_) pool_->quiesce();
  }

  /// Lazily assigns the calling thread its claim slot, cached
  /// thread-locally and keyed by store uid (a store reallocated at a
  /// dead store's address cannot inherit entries). The common case — a
  /// thread talking to one store — hits the two-field fast path; the
  /// map only backs threads juggling several pooled stores. The
  /// registration fetch_add is seq_cst: it must precede this thread's
  /// first claim store in the single total order, or stamp_barrier()'s
  /// scan bound could miss the brand-new slot entirely (see there).
  [[nodiscard]] std::size_t producer_index() {
    thread_local std::uint64_t fast_uid = 0;  // 0 = no store cached
    thread_local std::size_t fast_slot = 0;
    if (fast_uid == uid_) return fast_slot;
    thread_local std::unordered_map<std::uint64_t, std::size_t> slots;
    const auto [it, fresh] = slots.try_emplace(uid_, 0);
    if (fresh) {
      const std::size_t i =
          producers_seen_.fetch_add(1, std::memory_order_seq_cst);
      UCW_CHECK_MSG(i < this->config().max_producers,
                    "more client threads than StoreConfig::max_producers");
      it->second = i;
    }
    fast_uid = uid_;
    fast_slot = it->second;
    return it->second;
  }

  /// The largest clock value every stamp at or below which is provably
  /// in a worker ring (or beyond). min(clock now, oldest in-flight
  /// claim − 1); spins out the (few-instruction) kClaiming windows.
  /// Router-lock holder. Everything seq_cst — see the file header for
  /// why the total order makes the scan exhaustive. That includes the
  /// scan *bound*: a producer registers (seq_cst fetch_add) before its
  /// first claim store, and claim-store <S tick <S our clock read <S
  /// this load, so a producer whose stamp the clock read covers is
  /// always inside `n` — a relaxed bound could return 0 and skip a
  /// brand-new producer's in-flight stamp.
  [[nodiscard]] LogicalTime stamp_barrier() const {
    for (;;) {
      const LogicalTime now = this->clock_.now(std::memory_order_seq_cst);
      LogicalTime barrier = now;
      bool claiming = false;
      const std::size_t n =
          std::min(producers_seen_.load(std::memory_order_seq_cst),
                   this->config().max_producers);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t c =
            claim_slots_[i].claim.load(std::memory_order_seq_cst);
        if (c == kClaiming) {
          claiming = true;
          break;
        }
        if (c != kIdle && c >= 1 && c - 1 < barrier) barrier = c - 1;
      }
      if (!claiming) return barrier;
      std::this_thread::yield();
    }
  }

  /// The delivery entry point (any thread, NO router lock):
  /// try-acquires the dedicated delivery spinlock — the serialization
  /// that keeps per-sender envelope order intact on the way into worker
  /// inboxes — and drains the process inbox. A losing thread returns
  /// immediately (someone else is delivering).
  std::size_t try_deliver_inbox() {
    if (deliver_lock_.test_and_set(std::memory_order_acquire)) return 0;
    std::size_t delivered = 0;
    while (auto env = this->net_->inbox(this->pid_).try_pop()) {
      deliver_sharded(env->from, std::move(env->payload));
      ++delivered;
    }
    deliver_lock_.clear(std::memory_order_release);
    return delivered;
  }

  /// Sharded delivery of one envelope (delivery-lock holder): partition
  /// its entries by owning worker with a shard-index computation each,
  /// push each touched worker's group straight into that worker's
  /// remote inbox (one multi-slot claim; no allocation — the scratch
  /// groups keep their capacity — and no key/payload copies: delivery
  /// owns the popped envelope, entries MOVE through the scratch into
  /// the ring slots), then queue the envelope header on the duty
  /// ring for the router's stream/ack bookkeeping. ORDER IS LOAD-
  /// BEARING: entries land in inboxes strictly before the header note
  /// is visible to the router, so an ack the router observes only ever
  /// vouches for entries already in worker inboxes — and workers drain
  /// those before any GC fold (see worker_pool.hpp).
  void deliver_sharded(ProcessId from, Envelope&& e) {
    // The owning workers emit the apply events on their own tracks.
    this->observe_delivery(from, e.entries, /*applied_here=*/false);
    const std::size_t nw = pool_->workers();
    for (auto& entry : e.entries) {
      const std::size_t engine = this->shard_index(entry.key);
      scratch_batches_[pool_->worker_of(engine)].push_back(
          {static_cast<std::uint32_t>(engine), from, std::move(entry.key),
           std::move(entry.msg)});
    }
    for (std::size_t w = 0; w < nw; ++w) {
      if (scratch_batches_[w].empty()) continue;
      // Not counted in ring_batch_claims_: those meter producer-side
      // multi-slot claims on the worker op rings.
      pool_->deliver_remote(w, scratch_batches_[w]);
    }
    inbox_deliveries_.fetch_add(e.entries.size(),
                                std::memory_order_relaxed);
    StreamNote note{from, e.epoch, e.seq, e.ack_clock};
    while (!duty_ring_.try_push(std::move(note))) {
      // Duty ring full — the router has not ticked in a long while.
      // Become the router briefly if the lock is free; otherwise the
      // holder is draining right now, just wait it out.
      std::unique_lock lock(router_mutex_, std::try_to_lock);
      if (lock.owns_lock()) {
        (void)drain_duty_locked();
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Router duty (router-lock holder): folds queued envelope headers
  /// into the store-wide stream/stability bookkeeping. The duty ring's
  /// single consumer is whoever holds the router lock, so per-sender
  /// note order (the delivery lock serialized the pushes) is preserved
  /// into note_stream.
  std::size_t drain_duty_locked() {
    std::size_t drained = 0;
    while (auto note = duty_ring_.try_pop()) {
      Envelope header{};
      header.epoch = note->epoch;
      header.seq = note->seq;
      header.ack_clock = note->ack_clock;
      this->note_stream(note->from, header);
      this->observe_ack(note->from, note->ack_clock);
      ++drained;
    }
    return drained;
  }

  std::uint64_t uid_;
  std::unique_ptr<Pool> pool_;
  std::unique_ptr<ClaimSlot[]> claim_slots_;
  std::atomic<std::size_t> producers_seen_{0};
  /// Store-wide (not per-router) state below is guarded by this lock:
  /// peers_, stability_, stats_, gc_floor_ — everything the duty drain
  /// and the flush tick touch outside the engines.
  mutable std::mutex router_mutex_;
  /// Delivery spinlock: serializes sharded inbox drains (per-sender
  /// envelope order into worker inboxes) without ever touching the
  /// router lock. try-acquired from the op surface, spin-acquired only
  /// in drain_until.
  std::atomic_flag deliver_lock_ = ATOMIC_FLAG_INIT;
  /// Envelope headers awaiting the router (single consumer: whoever
  /// holds router_mutex_). Sized so even a long gap between router
  /// ticks cannot fill it under realistic envelope rates; when it does
  /// fill, the delivery path drains it itself under a try-lock.
  MpscRing<StreamNote> duty_ring_{4096};
  /// Per-worker grouping scratch for deliver_sharded (delivery-lock
  /// holder only); deliver_remote clears each group with capacity
  /// intact, so steady-state delivery allocates nothing.
  std::vector<std::vector<typename Pool::RemoteItem>> scratch_batches_;
  std::atomic<std::uint64_t> published_reads_{0};
  std::atomic<std::uint64_t> ring_reads_{0};
  std::atomic<std::uint64_t> inbox_deliveries_{0};
  std::atomic<std::uint64_t> ring_batch_claims_{0};
  std::atomic<std::uint64_t> ring_batch_ops_{0};
  std::atomic<std::uint64_t> zero_copy_reads_{0};
  std::atomic<std::uint64_t> ryw_ring_fallbacks_{0};
};

}  // namespace ucw
