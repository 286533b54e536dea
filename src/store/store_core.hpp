// StoreCore: the transport-independent *router* of the UCStore.
//
// Everything per-shard — key→replica maps, the batch buffer and flush
// window, the GC fold, snapshot serve/install — lives in ShardEngine
// (store/shard_engine.hpp); shards never coordinate, so engines are the
// unit of parallelism a ThreadUcStore worker pool spreads across cores.
// What remains here is exactly the genuinely store-wide state:
//
//   * the atomic store-wide Lamport clock every keyed replica stamps
//     from (what makes per-process stability sound — and what lets any
//     number of client threads stamp while workers merge remote
//     clocks);
//   * the StoreStabilityTracker and the GC sweep driver (the floor is
//     one number per store; engines only fold to it);
//   * the catch-up session, per-sender stream views, and the (epoch,
//     seq) envelope stream — seq is atomic so concurrent worker flushes
//     still draw unique positions;
//   * envelope assembly: a flush drains the pending buffers of a set of
//     engines (all of them here; one worker's subset in a pool) into a
//     single broadcast.
//
// Both frontends derive from this core; the only hard requirement on
// Net is `broadcast_others(from, envelope)` + `size()`. Optional
// capabilities are concept-detected and light up features:
//
//   crashed(pid)        — a crashed sender's buffered updates die
//                         silently (crash-stop) and are counted as
//                         dropped, not sent;
//   in_flight_from(pid) — failure-detector stand-in: lets GC declare a
//                         crashed process (unpinning the stability
//                         floor) only once nothing of it is in flight;
//   send(from,to,e) + epoch(pid)
//                       — the catch-up protocol (request_sync /
//                         ShardSnapshot / stream guarding), p2p + the
//                         incarnation counter rejoin needs — and the
//                         heal-time anti-entropy exchange built on it;
//   same_partition(a,b) — topology knowledge: a donor will not claim a
//                         currently-unreachable sender's stream is
//                         settled (its envelopes may be being dropped,
//                         not merely absent).
//
// Partitions: a drop-mode split discards cross-group envelopes, so each
// receiver's view of a sender's (epoch, seq) stream becomes a set of
// contiguous segments (SeqCoverage). The store tracks that per sender,
// and three things key off it: (1) piggybacked acks from a *gapped*
// stream are ignored — under drops, "I received an envelope with ack
// clock t" no longer proves FIFO coverage of everything below t, and
// folding to an over-claimed floor would silently diverge; (2) coverage
// rows served to joiners claim only the proven prefix; (3) after heal,
// anti_entropy_round(peer) exchanges per-shard delta markers and ships
// only the keys that advanced since the last serve — on completion the
// peers' coverage (and, when stability is on, their rows) are adopted,
// which both repairs the gap bookkeeping and un-freezes the GC floor.
//
// Recovery layering (src/recovery/): all per-key replicas stamp from the
// one store clock, so a StoreStabilityTracker — one knowledge vector per
// *process*, fed by envelope-level acks — yields a single stability
// floor that the GC sweep pushes down into the engines on the flush
// tick. The same compacted form (base + floor + unstable suffix) is what
// ShardSnapshot ships to a rejoining replica, making catch-up
// O(live state + unstable suffix) instead of O(history).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/recorder.hpp"
#include "clock/timestamp.hpp"
#include "obs/store_obs.hpp"
#include "recovery/catchup.hpp"
#include "recovery/stability.hpp"
#include "store/envelope.hpp"
#include "store/shard.hpp"
#include "store/shard_engine.hpp"
#include "store/store_stats.hpp"

namespace ucw {

template <typename Store>
class StoreWorkerPool;  // drives per-worker flushes through the core

template <UqAdt A, typename Net, typename Key = std::string>
class StoreCore {
 public:
  using Adt = A;
  using KeyT = Key;
  using Entry = KeyedUpdate<A, Key>;
  using Envelope = BatchEnvelope<A, Key>;
  using Engine = ShardEngine<A, Key>;
  using Shard = StoreShard<A, Key>;
  using Snapshot = ShardSnapshot<A, Key>;

  enum class SyncState {
    kLive,       ///< normal operation (never synced, or sync retired)
    kSyncing,    ///< catch-up in progress: snapshots outstanding
    kGuarding,   ///< snapshots installed; live streams not yet verified
  };

  StoreCore(A adt, ProcessId pid, Net& net, StoreConfig config)
      : adt_(std::move(adt)),
        pid_(pid),
        config_(config),
        net_(&net),
        clock_(pid) {
    UCW_CHECK(config_.shard_count >= 1);
    UCW_CHECK(config_.batch_window >= 1);
    UCW_CHECK(config_.workers >= 1);
    if (config_.tracing) {
      obs_ = std::make_unique<obs::StoreObs>();
      obs_->tracer = config_.tracer;
      // Round the sampling period up to a power of two so the hot-path
      // "is this stamp sampled" test is a mask, not a division.
      std::uint64_t period = 1;
      while (period < std::max<std::uint64_t>(config_.trace_sample_every, 1))
        period <<= 1;
      obs_->sample_mask = period - 1;
    }
    if constexpr (kEpochAware) epoch_ = net_->epoch(pid_);
    peers_.resize(net_->size());
    snap_markers_.assign(net_->size(),
                         std::vector<std::uint64_t>(config_.shard_count, 0));
    snap_marker_epochs_.assign(net_->size(), 0);
    ae_.resize(net_->size());
    if (config_.gc) stability_.emplace(pid_, net_->size());
    typename ReplayReplica<A>::Config rep_cfg;
    rep_cfg.policy = config_.policy;
    rep_cfg.snapshot_interval = config_.snapshot_interval;
    // One clock across the keyspace: what makes per-process stability
    // (and snapshot floors) sound — see recovery/stability.hpp.
    rep_cfg.shared_clock = &clock_;
    // With store-level floors, a below-floor arrival is provably a
    // redelivery of a folded entry (at-least-once duplicates, or live
    // envelopes overlapping an installed snapshot), never a straggler.
    // Needed whenever a floor can rise above zero: GC folds, but also
    // catch-up alone — a gc=false store syncing from a compacted donor
    // installs bases with positive floors, and an overlapping live
    // envelope must be absorbed, not treated as a protocol violation.
    rep_cfg.absorb_below_floor = config_.gc || kCatchupCapable;
    // Mutation corpus (src/faults/): arbitration-order mutants live in
    // the log comparator. kMergeTiesByArrival perverts every replica the
    // same way (divergence needs ties to *arrive* in different orders);
    // kLwwTieSkew perverts only odd pids (mixed-version skew — replicas
    // disagree on the tie winner even for identical arrival orders).
    if (config_.fault.is(Fault::kMergeTiesByArrival)) {
      rep_cfg.stamp_order = StampOrder::kClockThenArrival;
    } else if (config_.fault.is(Fault::kLwwTieSkew) && pid_ % 2 == 1) {
      rep_cfg.stamp_order = StampOrder::kClockThenPidInverted;
    }
    engines_.reserve(config_.shard_count);
    engine_ptrs_.reserve(config_.shard_count);
    for (std::size_t i = 0; i < config_.shard_count; ++i) {
      engines_.push_back(
          std::make_unique<Engine>(adt_, pid, i, config_, rep_cfg));
      engine_ptrs_.push_back(engines_.back().get());
    }
  }

  StoreCore(const StoreCore&) = delete;
  StoreCore& operator=(const StoreCore&) = delete;

  // Thread-safety legend for this surface: "owner thread" = the single
  // thread driving an unpooled store (Sim's logical thread, or the one
  // client thread of a workers==1 ThreadUcStore); a pooled ThreadUcStore
  // shadows or re-documents every entry point whose contract widens.

  /// This process's id. Immutable — any thread.
  [[nodiscard]] ProcessId pid() const { return pid_; }
  /// The config the store was built with. Immutable — any thread.
  [[nodiscard]] const StoreConfig& config() const { return config_; }
  /// The ADT instance (pure functions only). Immutable — any thread.
  [[nodiscard]] const A& adt() const { return adt_; }
  /// Current store-wide Lamport clock value. Any thread (atomic read);
  /// instantly stale under concurrent stamping, like any clock read.
  [[nodiscard]] LogicalTime clock_now() const { return clock_.now(); }
  /// The stability tracker, or nullptr when `gc` is off. Owner thread
  /// (pooled stores mutate it under the router lock).
  [[nodiscard]] const StoreStabilityTracker* stability() const {
    return stability_ ? &*stability_ : nullptr;
  }

  /// Store-wide counters plus the per-engine operation counts, merged.
  /// Owner thread (a pooled ThreadUcStore shadows this to quiesce first
  /// and add its workers' flush/GC accounting and read-path counters).
  [[nodiscard]] StoreStats stats() const {
    StoreStats s = stats_;
    for (const auto& e : engines_) {
      s.local_updates += e->local_updates();
      s.remote_entries += e->remote_entries();
      s.duplicate_entries += e->duplicate_entries();
      s.queries += e->queries();
    }
    return s;
  }

  /// Derived-observability state when `tracing` is on, nullptr
  /// otherwise. Any thread — the contents are atomics and a wait-free
  /// histogram.
  [[nodiscard]] const obs::StoreObs* obs_state() const { return obs_.get(); }

  /// Attaches a caller-owned op-history recorder (audit pipeline), or
  /// detaches with nullptr. Same ownership discipline as the tracer:
  /// the store never owns it, recording-off costs one branch on a null
  /// pointer. Call before issuing ops (harness wiring time) — the
  /// pointer itself is not synchronized.
  void set_recorder(audit::OpRecorder<A, Key>* recorder) {
    recorder_ = recorder;
  }
  [[nodiscard]] audit::OpRecorder<A, Key>* recorder() const {
    return recorder_;
  }

  /// Wait-free keyed update: stamp from the store clock, apply to the
  /// owning engine's replica now (synchronous self-delivery), broadcast
  /// when the batch fills (or on the next flush tick). Returns the
  /// arbitration stamp. Never waits on any other process (Proposition
  /// 4 survives batching verbatim). Owner thread; the pooled frontend
  /// shadows it for concurrent client threads.
  Stamp update(const Key& key, typename A::Update u) {
    // A rejoining store may not stamp updates until its clock has been
    // re-based by the first installed snapshot: the fresh incarnation's
    // clock restarts at zero, and a reused (clock, pid) stamp would be
    // absorbed as a duplicate of a pre-crash update elsewhere. Reads
    // stay available throughout; updates resume right after bootstrap.
    UCW_CHECK_MSG(!bootstrapping_,
                  "update() on a store still bootstrapping from a "
                  "snapshot; wait for sync_state() to leave kSyncing");
    poll();
    const Stamp stamp = clock_.tick();
    if (obs_ && obs_->tracer && obs_->sampled(stamp.clock)) {
      obs_->tracer->instant(0, obs::TraceEventKind::kUpdateStamp,
                            stamp.clock);
    }
    if (recorder_) recorder_->record_update(0, key, stamp, u);
    engine_of(key).local_update(key, UpdateMessage<A>{stamp, std::move(u), {}});
    if (++pending_total_ >= config_.batch_window) {
      flush_now(FlushCause::kWindowFull);
    }
    return stamp;
  }

  /// Wait-free keyed query from the local replay; an untouched key
  /// answers from the ADT's initial state (and stays unmaterialized).
  /// Trivially reads-its-own-writes (self-delivery is synchronous).
  /// Owner thread; shadowed by the pooled frontend.
  [[nodiscard]] typename A::QueryOut query(const Key& key,
                                           const typename A::QueryIn& qi) {
    poll();
    typename A::QueryOut out = engine_of(key).query(key, qi);
    if (recorder_) recorder_->record_query(0, key, clock_.now(), out);
    return out;
  }

  /// Folds queued envelopes in when the transport has a pollable inbox
  /// (ThreadNetwork); a no-op on handler-driven transports (SimNetwork,
  /// whose deliveries arrive through the registered handler). Living
  /// here — not in the frontend — means update()/query() through a
  /// StoreCore& can never skip it. Owner thread; shadowed pooled.
  std::size_t poll() {
    std::size_t applied = 0;
    if constexpr (kPollableInbox) {
      while (auto env = net_->inbox(pid_).try_pop()) {
        deliver(env->from, env->payload);
        ++applied;
      }
    }
    return applied;
  }

  /// The converged state k's replica currently holds; initial() for keys
  /// never touched here. Owner thread (reads engine state directly).
  [[nodiscard]] typename A::State state_of(const Key& key) {
    return engine_of(key).state_of(key);
  }

  /// Ships the pending batch, if any, then runs the recovery tick:
  /// piggyback/heartbeat the stability ack, fold the stable prefix
  /// across the dirty engines, and retry a stalled catch-up. Returns
  /// entries flushed (dropped-on-crash entries are not "flushed").
  /// Never waits on receivers — the cost is the per-peer enqueue. Owner
  /// thread; shadowed pooled.
  std::size_t flush() {
    for (auto& e : engines_) e->on_flush_tick();
    const std::size_t flushed = flush_now(FlushCause::kManual);
    if (stability_) {
      maybe_send_ack(clock_.now());
      (void)collect_garbage();
    }
    sync_housekeeping();
    ae_housekeeping();
    sample_convergence_obs(clock_.now());
    return flushed;
  }

  /// Buffered (not yet flushed) keyed updates across every engine. Any
  /// thread technically (relaxed mirrors), exact on the owner thread.
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& e : engines_) n += e->pending_size();
    return n;
  }

  // ----- recovery: stability GC ----------------------------------------

  /// Pushes the store-wide stability floor down into the engines
  /// (Section VII-C fold, hoisted to store level). Runs on the flush
  /// tick; callable directly. Folds every *dirty* engine (clean ones
  /// are skipped in O(1) via the engine's min-unfolded cursor), and
  /// within one only the keys on its fold list — those holding entries
  /// or touched since its last sweep; the other keys' floors catch up
  /// lazily (ShardEngine::touch). Returns entries folded. Owner thread
  /// — it touches engine state; the pooled flush instead splits this
  /// into the router-side floor refresh and worker-side folds.
  std::size_t collect_garbage() {
    const LogicalTime floor = refresh_stability_floor(clock_.now());
    if (floor == 0) return 0;
    return fold_engines(engine_ptrs_, floor, stats_);
  }

  // ----- recovery: catch-up protocol -----------------------------------

  /// Asks `donor` to ship its snapshots (crash-restart or late join).
  /// Returns false on transports without p2p + epochs (ThreadNetwork).
  /// Owner thread.
  bool request_sync(ProcessId donor) {
    if constexpr (kCatchupCapable) {
      UCW_CHECK(donor != pid_ && donor < net_->size());
      send_sync_request(donor);
      // No snapshot yet → the clock is not re-based → no stamping.
      bootstrapping_ = !any_snapshot_installed_;
      return true;
    } else {
      (void)donor;
      return false;
    }
  }

  // ----- recovery: anti-entropy after a partition heals -----------------

  /// Heal-time reconciliation with `peer`: sends it this store's
  /// per-shard delta markers ("shard i of you I hold as of marker m_i");
  /// the peer replies with one delta snapshot per shard carrying only
  /// the keys that advanced since — including everything it learned
  /// second-hand from its partition side, so one exchange with a single
  /// representative of the other side reconciles the whole split. With
  /// `reciprocate` the peer also pulls from us, healing both directions
  /// in one call. On completing the delta batch, the peer's coverage
  /// rows are adopted (repairing this store's gapped view of every
  /// stream the peer can vouch for) and, when stability is on, its
  /// knowledge rows too — un-freezing the GC floor the partition pinned.
  ///
  /// Returns false on transports without p2p + epochs, while a catch-up
  /// session is open (the session's retry machinery owns recovery
  /// then), or when either end is crashed. Unlike request_sync this
  /// never pauses GC, never refuses updates, and has no retry loop: a
  /// round whose messages are lost (re-partition mid-exchange) is
  /// simply superseded by the next call. Owner thread.
  bool anti_entropy_round(ProcessId peer, bool reciprocate = true) {
    if constexpr (kCatchupCapable) {
      UCW_CHECK(peer != pid_ && peer < net_->size());
      if (session_.active()) return false;
      if constexpr (kCrashAware) {
        if (net_->crashed(pid_) || net_->crashed(peer)) return false;
      }
      ++stats_.ae_rounds_started;
      if (obs_ && obs_->tracer) {
        obs_->tracer->instant(0, obs::TraceEventKind::kAeRequest, peer,
                              ae_round_counter_ + 1);
      }
      AeRound& r = ae_[peer];
      r.active = true;
      r.round = ++ae_round_counter_;
      r.installed.assign(engines_.size(), false);
      r.installed_count = 0;
      r.sound = true;
      r.ticks_active = 0;
      Envelope req;
      req.kind = EnvelopeKind::kAntiEntropyRequest;
      req.epoch = epoch_;
      req.seq = r.round;  // p2p kinds reuse seq as the round token
      req.ae_reciprocate = reciprocate;
      if (config_.incremental_snapshots) {
        req.sync_markers = snap_markers_[peer];
        req.sync_markers_epoch = snap_marker_epochs_[peer];
      }
      // Coverage summary on the wire: ship our stability rows so the
      // donor can skip suffix entries we provably received live (rows
      // are raised only by gap-gated first-hand acks, so "stamp.clock
      // <= rows[origin]" really means "already held here" — even
      // across drops, because a gapped stream stops raising its row).
      if (stability_) req.ae_floors = stability_->rows();
      net_->send(pid_, peer, req);
      return true;
    } else {
      (void)peer;
      (void)reciprocate;
      return false;
    }
  }

  /// Whether the sender `q`'s live envelope stream currently has a gap
  /// here (cross-partition drops, or a mid-stream join not yet verified
  /// by catch-up). While gapped, q's piggybacked acks are ignored — see
  /// the header comment. Owner thread.
  [[nodiscard]] bool stream_gapped(ProcessId q) const {
    return q < peers_.size() && peers_[q].gapped;
  }

  /// Catch-up phase of this store (live / syncing / guarding). Owner
  /// thread.
  [[nodiscard]] SyncState sync_state() const {
    if (!session_.active()) return SyncState::kLive;
    return session_.awaiting() ? SyncState::kSyncing : SyncState::kGuarding;
  }
  /// True until the first snapshot re-bases the clock of a rejoining
  /// store; update() is refused while this holds (reads stay
  /// available). Owner thread.
  [[nodiscard]] bool bootstrapping() const { return bootstrapping_; }

  // ----- keyspace introspection ----------------------------------------
  // All owner-thread: these read engine-owned maps directly. The pooled
  // frontend shadows the commonly used ones behind a quiesce barrier.

  /// Number of shard engines (== StoreConfig::shard_count). Immutable —
  /// any thread.
  [[nodiscard]] std::size_t shard_count() const { return engines_.size(); }
  /// Direct access to shard i's key→replica map. Owner thread. An
  /// empty log read here may show a floor below its engine's last sweep
  /// (the catch-up is lazy — see ShardEngine::touch); bases and logs
  /// are exact.
  [[nodiscard]] Shard& shard(std::size_t i) { return engines_[i]->shard(); }
  /// Which shard (engine) owns `key` — a pure function of key and
  /// config, identical on every replica. Any thread.
  [[nodiscard]] std::size_t shard_index(const Key& key) const {
    return hash_value(key) % engines_.size();
  }
  /// Direct access to `key`'s shard. Owner thread; floors as shard().
  [[nodiscard]] Shard& shard_of(const Key& key) {
    return engine_of(key).shard();
  }

  /// Replicas materialized across all shards. Owner thread.
  [[nodiscard]] std::size_t keys_live() const {
    std::size_t n = 0;
    for (const auto& e : engines_) n += e->shard().keys_live();
    return n;
  }

  /// Every key materialized here (order unspecified). Owner thread.
  [[nodiscard]] std::vector<Key> keys() const {
    std::vector<Key> out;
    for (const auto& e : engines_) {
      auto ks = e->shard().keys();
      out.insert(out.end(), ks.begin(), ks.end());
    }
    return out;
  }

  /// One aggregate row per shard (print_shard_table). Owner thread.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const {
    std::vector<ShardStats> out;
    out.reserve(engines_.size());
    for (const auto& e : engines_) out.push_back(e->stats());
    return out;
  }

  /// Estimated resident bytes of live state + logs. Owner thread.
  [[nodiscard]] std::size_t approx_bytes() const {
    std::size_t n = 0;
    for (const auto& e : engines_) n += e->shard().stats().approx_bytes;
    return n;
  }

  /// Keys the next GC sweep would visit, across all engines: those
  /// holding unfolded entries, plus those touched since their engine's
  /// last sweep (order unspecified). Owner thread.
  [[nodiscard]] std::vector<Key> gc_listed_keys() const {
    std::vector<Key> out;
    for (const auto& e : engines_) {
      auto ks = e->gc_listed_keys();
      out.insert(out.end(), ks.begin(), ks.end());
    }
    return out;
  }

  /// Un-folded log entries resident across all keys. Owner thread.
  [[nodiscard]] std::uint64_t log_entries_resident() const {
    std::uint64_t n = 0;
    for (const auto& e : engines_) n += e->shard().stats().log_entries;
    return n;
  }

 protected:
  template <typename Store>
  friend class StoreWorkerPool;

  static constexpr bool kPollableInbox =
      requires(Net& net, ProcessId p) { net.inbox(p).try_pop(); };
  static constexpr bool kCrashAware = requires(const Net& net, ProcessId p) {
    { net.crashed(p) } -> std::convertible_to<bool>;
  };
  static constexpr bool kInFlightAware =
      requires(const Net& net, ProcessId p) {
        { net.in_flight_from(p) } -> std::convertible_to<std::uint64_t>;
      };
  static constexpr bool kPointToPoint =
      requires(Net& net, ProcessId a, ProcessId b, const Envelope& e) {
        net.send(a, b, e);
      };
  static constexpr bool kEpochAware = requires(const Net& net, ProcessId p) {
    { net.epoch(p) } -> std::convertible_to<std::uint64_t>;
  };
  static constexpr bool kCatchupCapable = kPointToPoint && kEpochAware;
  static constexpr bool kReachabilityAware =
      requires(const Net& net, ProcessId a, ProcessId b) {
        { net.same_partition(a, b) } -> std::convertible_to<bool>;
      };

  enum class FlushCause { kWindowFull, kManual };

  /// Flush ticks an anti-entropy round may stay open before
  /// ae_housekeeping re-issues it. Like sync_patience_ticks, it must
  /// exceed the request → last-delta round trip in flush ticks, or
  /// rounds are superseded before they can complete.
  static constexpr std::size_t kAePatienceTicks = 6;

  [[nodiscard]] Engine& engine(std::size_t i) { return *engines_[i]; }
  [[nodiscard]] Engine& engine_of(const Key& key) {
    return *engines_[shard_index(key)];
  }

  /// Ships one envelope carrying the pending batches of `engines` — all
  /// of them on the single-owner path, one worker's subset in a pool —
  /// charging the wire accounting to `st` (the router's stats here, a
  /// worker's slice in a pool; distinct slices keep concurrent flushes
  /// race-free). The (epoch, seq) stream position is drawn atomically.
  ///
  /// `piggyback_ack` is the FIFO-honesty switch. The ack contract is
  /// "everything this *process* ever broadcast with a stamp <= t has
  /// been shipped before this envelope" — true on the single-owner
  /// path, where one thread stamps and flushes in order. A pool worker
  /// cannot claim it: the store clock is global, so another worker may
  /// still be buffering an entry stamped *below* this worker's read of
  /// the clock, and a receiver folding to the overstated ack would
  /// absorb that in-flight entry as a below-floor duplicate — silent
  /// divergence. Pooled envelopes therefore ship ack_clock = 0 and the
  /// ack travels only on the router's flush-time heartbeat, clamped to
  /// the stamp *barrier* (ThreadUcStore::stamp_barrier): every stamp
  /// at or below it was in a ring before the flush ops, so after
  /// flush_all it provably sits behind the heartbeat in each
  /// receiver's FIFO inbox — even with client threads still stamping.
  /// `track` attributes the batch_flush span to the flushing thread's
  /// trace track (0 = router/single owner, w+1 = pool worker w).
  std::size_t flush_engines(const std::vector<Engine*>& engines,
                            FlushCause cause, StoreStats& st,
                            bool piggyback_ack = true,
                            std::uint16_t track = 0) {
    std::size_t n = 0;
    for (Engine* e : engines) n += e->pending_size();
    if (n == 0) return 0;
    if constexpr (kCrashAware) {
      if (net_->crashed(pid_)) {
        // Crash-stop: the buffered updates die with the sender. Counted
        // as dropped — not as sent, not as flushed — and the seq is not
        // consumed, so a restarted incarnation's stream starts clean and
        // nothing is double-counted in envelopes_sent.
        ++st.envelopes_dropped_crash;
        st.entries_dropped_crash += n;
        for (Engine* e : engines) (void)e->drop_pending();
        return 0;
      }
    }
    if (cause == FlushCause::kWindowFull) {
      ++st.flushes_full;
    } else {
      ++st.flushes_manual;
    }
    if (obs_ && obs_->tracer) {
      obs_->tracer->begin(track, obs::TraceEventKind::kBatchFlush, n);
    }
    Envelope env;
    env.epoch = epoch_;
    env.entries.reserve(n);
    for (Engine* e : engines) e->drain_pending(env.entries);
    env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    if (piggyback_ack) {
      // Piggybacked on every single-owner envelope: the ack is
      // receiver-side knowledge ("under FIFO, I now hold everything
      // this sender stamped <= t"), so even a gc=false store must ship
      // it — otherwise one such store in a compacting cluster would
      // pin every peer's floor at zero. Pool workers pass false (see
      // above) and leave acks to the router heartbeat.
      env.ack_clock = clock_.now();
      // FAULT kAckOverstatesClock: vouch for one stamp beyond what this
      // store has broadcast. A peer that trusts the ack folds its floor
      // past an entry still in flight (or about to be stamped), then
      // absorbs the real delivery below the floor.
      if (config_.fault.is(Fault::kAckOverstatesClock)) env.ack_clock += 1;
      raise_last_ack(env.ack_clock);
    }
    st.envelopes_sent += 1;
    st.entries_sent += n;
    st.bytes_batched += wire_size(env);
    st.bytes_unbatched += unbatched_wire_size(env);
    net_->broadcast_others(pid_, env);
    if (obs_ && obs_->tracer) {
      obs_->tracer->end(track, obs::TraceEventKind::kBatchFlush, n, env.seq);
    }
    return n;
  }

  /// Single-owner flush: every engine into one envelope.
  std::size_t flush_now(FlushCause cause) {
    const std::size_t n = flush_engines(engine_ptrs_, cause, stats_);
    pending_total_ = 0;
    return n;
  }

  /// Refreshes the store-wide stability floor (router side, no engine
  /// access — safe while workers run): failure-detector knowledge, the
  /// self row advanced to `self_clock`, the fold floor re-derived and
  /// recorded in stats. Returns the floor to fold to, 0 when nothing is
  /// foldable yet (stability off, catch-up session open, floor at 0).
  ///
  /// `self_clock` is the largest own stamp this store can vouch it has
  /// locally applied-or-queued-behind-the-fold: clock_now() on the
  /// single-owner path (self-delivery is synchronous there); the stamp
  /// *barrier* on a pooled store, where a client thread may hold a
  /// freshly drawn stamp that no ring has seen yet — advancing the self
  /// row past it could, in a 1-process cluster, fold ahead of the
  /// in-flight entry.
  [[nodiscard]] LogicalTime refresh_stability_floor(LogicalTime self_clock) {
    if (!stability_) return 0;
    // No folding while a catch-up session is open. Two races hide here:
    // (1) awaiting — donor rows adopted from the first installed shard
    // would push keys of a *not yet installed* shard past the snapshot
    // floor on a sparse live-delivery log, and install_base would then
    // refuse the donor base as "already covered"; (2) guarding — a
    // direct ack from a sender whose stream is not yet verified gap-free
    // claims a prefix this store provably dropped while down, and
    // folding over it would make the retry snapshot refusable the same
    // way. Rows are trustworthy exactly when the session retires. The
    // pause is bounded by the same events that already pin GC globally:
    // a partitioned-away peer freezes everyone's floor (its rows stop
    // advancing cluster-wide), and on heal its first envelope — or one
    // gap retry — verifies its stream here and retires the session.
    // FAULT kGcDuringCatchupSession: skip the pause and fold mid-sync
    // on exactly the untrustworthy rows described above.
    if (session_.active() &&
        !config_.fault.is(Fault::kGcDuringCatchupSession)) {
      return 0;
    }
    refresh_crash_knowledge();
    // Without the self row a read-only replica (whose clock moves only
    // by observation) would pin its *own* floor at zero and never
    // compact, even while its heartbeats let everyone else fold.
    stability_->advance_self(self_clock);
    const LogicalTime floor = stability_->floor();
    stats_.stability_floor = floor;
    stats_.stability_floor_lag = stability_->lag();
    if (floor > gc_floor_) gc_floor_ = floor;
    return gc_floor_;
  }

  /// The GC fold: every dirty engine of `engines` — all of them on the
  /// single-owner path, one worker's subset in a pool — folds its
  /// listed keys to `floor` (ShardEngine::fold_to), charging `st` (the
  /// router's stats, or the worker's slice) and attributing the gc_fold
  /// event to `track`. Clean engines cost one comparison each; a dirty
  /// one costs O(keys with resident entries), not O(live keys).
  std::size_t fold_engines(const std::vector<Engine*>& engines,
                           LogicalTime floor, StoreStats& st,
                           std::uint16_t track = 0) {
    std::size_t folded = 0;
    bool any = false;
    for (Engine* e : engines) {
      if (!e->gc_pending(floor)) continue;
      folded += e->fold_to(floor);
      any = true;
    }
    if (any) {
      ++st.gc_runs;
      st.gc_folded += folded;
    }
    if (obs_ && obs_->tracer && folded > 0) {
      obs_->tracer->instant(track, obs::TraceEventKind::kGcFold, folded,
                            floor);
    }
    return folded;
  }

  /// Delivery-side observability for one batch envelope's entries, on
  /// both delivery paths: the deliver event and the sampled
  /// replication-lag record — origin Lamport stamp vs the local clock
  /// at delivery, clamped at 0 (a stamp ahead of this clock is about to
  /// advance it — the update arrived "early", not late). Sampled like
  /// the other per-op hooks: a 1-in-N stamp-keyed sample keeps the
  /// histogram representative at a fraction of the per-entry cost (3
  /// atomic RMWs), which is what holds the tracing-on overhead inside
  /// the E10e budget. `applied_here` (the single-owner path, which
  /// applies the entries on this thread) also emits each sampled
  /// entry's apply_remote event on track 0; pool workers emit their
  /// own. Any thread: tracer rings are multi-writer and the histogram
  /// is atomic.
  void observe_delivery(ProcessId from, const std::vector<Entry>& entries,
                        bool applied_here) {
    if (!obs_ || entries.empty()) return;
    if (obs_->tracer) {
      obs_->tracer->instant(0, obs::TraceEventKind::kDeliver, from,
                            entries.size());
    }
    const LogicalTime now = clock_.now();
    for (const Entry& entry : entries) {
      const LogicalTime sc = entry.msg.stamp.clock;
      if (!obs_->sampled(sc)) continue;
      const std::uint64_t lag = now > sc ? now - sc : 0;
      obs_->replication_lag.record(lag);
      if (applied_here && obs_->tracer) {
        obs_->tracer->instant(0, obs::TraceEventKind::kApplyRemote, sc, lag);
      }
    }
  }

  /// Feeds a delivered envelope's piggybacked ack into stability, on
  /// both delivery paths (the pooled one calls it from the router's
  /// duty drain). A gapped stream's ack proves nothing: under FIFO
  /// *with drops*, holding an envelope that carries ack clock t no
  /// longer implies holding everything the sender stamped below t — the
  /// partition may have discarded some of it, and anti-entropy will
  /// deliver it later as genuinely-new below-floor entries. Observing
  /// such an ack would let GC fold over them. The gap clears (and acks
  /// resume) when an anti-entropy round or a catch-up session proves
  /// the prefix.
  void observe_ack(ProcessId from, LogicalTime ack_clock) {
    if (!stability_ || ack_clock == 0) return;
    // FAULT kFoldAcksAcrossGaps (the mutation corpus's founding member):
    // folding over a known gap lets GC absorb the floor past entries
    // anti-entropy has yet to redeliver, which the offline auditor must
    // catch as divergence.
    if (stream_gapped(from) && !config_.fault.is(Fault::kFoldAcksAcrossGaps)) {
      return;
    }
    stability_->observe_ack(from, ack_clock);
  }

  void deliver(ProcessId from, const Envelope& e) {
    switch (e.kind) {
      case EnvelopeKind::kSyncRequest:
        // p2p kinds reuse `seq` as the sync round token (they are not
        // part of the sender's broadcast stream).
        if constexpr (kCatchupCapable) serve_sync(from, e);
        return;
      case EnvelopeKind::kShardSnapshot:
        if constexpr (kCatchupCapable) {
          if (e.snapshot) install_snapshot(from, e);
        }
        return;
      case EnvelopeKind::kAntiEntropyRequest:
        if constexpr (kCatchupCapable) serve_anti_entropy(from, e);
        return;
      case EnvelopeKind::kAntiEntropyDelta:
        if constexpr (kCatchupCapable) {
          if (e.snapshot) install_anti_entropy(from, e);
        }
        return;
      case EnvelopeKind::kBatch:
        break;
    }
    note_stream(from, e);
    observe_delivery(from, e.entries, /*applied_here=*/true);
    for (const Entry& entry : e.entries) {
      (void)engine_of(entry.key).apply_remote(from, entry.key, entry.msg);
    }
    observe_ack(from, e.ack_clock);
  }

  // ----- recovery internals --------------------------------------------

  void send_sync_request(ProcessId donor) {
    if constexpr (kCatchupCapable) {
      const std::uint64_t round =
          session_.begin(donor, engines_.size(), net_->size());
      last_progress_mark_ = session_.progress();
      resync_needed_ = false;
      ++stats_.sync_requests_sent;
      Envelope req;
      req.kind = EnvelopeKind::kSyncRequest;
      req.epoch = epoch_;
      req.seq = round;  // echoed on every snapshot of the batch
      if (config_.incremental_snapshots) {
        // Echo what we already installed from this donor: a retry round
        // then ships only the keys that advanced since the previous
        // round, not every shard in full. A fresh store's markers are
        // all zero — the first round is always full.
        req.sync_markers = snap_markers_[donor];
        req.sync_markers_epoch = snap_marker_epochs_[donor];
      }
      net_->send(pid_, donor, req);
      if (obs_ && obs_->tracer) {
        obs_->tracer->instant(0, obs::TraceEventKind::kSyncRequest, donor,
                              round);
      }
    } else {
      (void)donor;
    }
  }

  /// Donor side of catch-up: compact, then ship one ShardSnapshot per
  /// engine (p2p), each echoing the requester's round token — as deltas
  /// against the markers the request carried, where valid.
  void serve_sync(ProcessId requester, const Envelope& req) {
    if constexpr (kCatchupCapable) {
      if (requester == pid_ || requester >= net_->size()) return;
      // A donor with an open catch-up session must not serve. Awaiting:
      // its bases are incomplete. Guarding is no better: build_coverage
      // advertises each sender's proven prefix, but a guarding store
      // has not yet *verified* that it holds the [0, first_seq) part of
      // those streams — serving would let a second joiner falsely
      // verify a stream whose gap entries this store is itself still
      // chasing, and retire into silent divergence. Defer; the
      // requester's stall retry rotates to another donor.
      if (session_.active()) return;
      ++stats_.sync_requests_served;
      if (obs_ && obs_->tracer) {
        obs_->tracer->instant(0, obs::TraceEventKind::kSyncServe, requester,
                              req.seq);
      }
      ship_snapshots(requester, req.seq, EnvelopeKind::kShardSnapshot,
                     req.sync_markers, req.sync_markers_epoch);
    }
  }

  /// Shared donor-side shipper for catch-up serves and anti-entropy
  /// replies: compact, build the honest coverage vector, then one
  /// snapshot per engine — full, or a delta from the requester's echoed
  /// markers when they are for this incarnation (a restarted donor's
  /// counters restart at zero, so stale-epoch markers must not be
  /// trusted) and incremental shipping is on.
  void ship_snapshots(ProcessId requester, std::uint64_t round,
                      EnvelopeKind kind,
                      const std::vector<std::uint64_t>& markers,
                      std::uint64_t markers_epoch,
                      const std::vector<LogicalTime>& requester_floors = {}) {
    if constexpr (kCatchupCapable) {
      // Snapshots ship base + unstable suffix: compact first — an
      // unfolded engine would ship already-stable entries in its suffix
      // and re-inflate the receiver's install cost.
      (void)collect_garbage();
      const bool deltas = config_.incremental_snapshots &&
                          markers_epoch == epoch_ &&
                          markers.size() == engines_.size();
      const auto coverage = build_coverage();
      for (std::size_t i = 0; i < engines_.size(); ++i) {
        auto snap = std::make_shared<Snapshot>(engines_[i]->encode_snapshot(
            engines_.size(), deltas ? markers[i] : 0, requester));
        // Entry-level dedup from the requester's coverage summary:
        // anything below its per-origin row rode a live envelope it
        // already delivered. Bases ship untouched — only the unstable
        // suffixes thin out.
        if (!requester_floors.empty()) {
          for (auto& ks : snap->keys) {
            const std::size_t before = ks.suffix.size();
            std::erase_if(ks.suffix, [&](const auto& entry) {
              return entry.stamp.pid < requester_floors.size() &&
                     entry.stamp.clock <= requester_floors[entry.stamp.pid];
            });
            stats_.ae_entries_skipped_covered += before - ks.suffix.size();
          }
        }
        snap->donor_clock = clock_.now();
        if (stability_) snap->donor_rows = stability_->rows();
        snap->coverage = coverage;
        stats_.snapshot_keys_served += snap->keys.size();
        stats_.snapshot_keys_skipped_delta +=
            snap->keys_total - snap->keys.size();
        Envelope env;
        env.kind = kind;
        env.epoch = epoch_;
        env.seq = round;
        env.snapshot = std::move(snap);
        const std::size_t bytes = wire_size(env);
        if (kind == EnvelopeKind::kShardSnapshot) {
          ++stats_.snapshots_served;
          stats_.snapshot_entries_served += env.snapshot->suffix_entries();
          stats_.snapshot_bytes_served += bytes;
        } else {
          stats_.ae_entries_served += env.snapshot->suffix_entries();
          stats_.ae_bytes_served += bytes;
        }
        net_->send(pid_, requester, env);
      }
    } else {
      (void)requester;
      (void)round;
      (void)kind;
      (void)markers;
      (void)markers_epoch;
      (void)requester_floors;
    }
  }

  /// Joiner side: adopt the donor's compacted state and bookkeeping.
  void install_snapshot(ProcessId from, const Envelope& e) {
    const Snapshot& snap = *e.snapshot;
    const std::uint64_t round = e.seq;
    UCW_CHECK_MSG(snap.shard_count == engines_.size(),
                  "snapshot from a store with a different shard_count");
    UCW_CHECK(snap.shard_index < engines_.size());
    ++stats_.snapshots_installed;
    if (obs_ && obs_->tracer) {
      obs_->tracer->instant(0, obs::TraceEventKind::kSnapshotInstall, from,
                            snap.shard_index);
    }
    (void)note_marker(from, e.epoch, snap);
    // Re-base the clock first: stamps issued from here on clear
    // everything the snapshot covers (including this process's own
    // pre-crash stream — the network model drains an incarnation before
    // its pid may restart, so the donor clock dominates it). The donor
    // *rows* must be observed too, not just its clock: the old
    // incarnation can have burned clock values no stamp ever used
    // (query ticks, ack heartbeats), and peers' fold floors track those
    // via rows[us] — a fresh stamp at or below such a floor would be
    // absorbed there as a folded-entry redelivery. Drain-before-restart
    // guarantees every old ack reached the donor, so its rows dominate
    // them; over-observing is always safe for a Lamport clock.
    clock_.observe(snap.donor_clock);
    for (const LogicalTime r : snap.donor_rows) clock_.observe(r);
    bootstrapping_ = false;
    any_snapshot_installed_ = true;
    for (const auto& ks : snap.keys) {
      bool floor_raised = false;
      stats_.catchup_entries +=
          engine_of(ks.key).install_key(ks, &floor_raised, from);
      if (floor_raised) ++stats_.catchup_keys;
    }
    engines_[snap.shard_index]->note_snapshot_installed();
    // Stale rounds (duplicates, batches overtaken by a retry) installed
    // their data above but must not satisfy the current round — retiring
    // on an old batch would let GC fold ahead of the fresh batch still
    // in flight and make its installs refusable.
    if (session_.active() && round == session_.round()) {
      session_.merge_coverage(snap.coverage);
      (void)session_.note_shard_installed(snap.shard_index);
      if (!session_.awaiting() && stability_ && !snap.donor_rows.empty()) {
        // Adopt the donor's stability rows only once this round's batch
        // is complete: the rows claim "everything below them is covered
        // here", which the round's snapshots only deliver in full. A
        // partial round's rows (donor crashed mid-batch) would raise
        // the floor past entries neither installed nor yet delivered
        // and GC would fold over them. Every snapshot of a round
        // carries the same rows, so adopting from the last-arriving one
        // is exactly the serve-time knowledge.
        stability_->adopt(snap.donor_rows);
        stability_->advance_self(clock_.now());
      }
      reevaluate_session();
    }
  }

  /// Donor side of anti-entropy: ship the delta batch, then pull back
  /// if the requester asked for a bidirectional heal. Refused while a
  /// catch-up session is open here — exactly the serve_sync reasons: an
  /// unverified store must not vouch for anyone's stream coverage.
  void serve_anti_entropy(ProcessId requester, const Envelope& req) {
    if constexpr (kCatchupCapable) {
      if (requester == pid_ || requester >= net_->size()) return;
      if (session_.active()) return;
      ++stats_.ae_rounds_served;
      if (obs_ && obs_->tracer) {
        obs_->tracer->instant(0, obs::TraceEventKind::kAeServe, requester,
                              req.seq);
      }
      ship_snapshots(requester, req.seq, EnvelopeKind::kAntiEntropyDelta,
                     req.sync_markers, req.sync_markers_epoch, req.ae_floors);
      if (req.ae_reciprocate) (void)anti_entropy_round(requester, false);
    }
  }

  /// Requester side of anti-entropy: install the delta (always safe —
  /// per-key logs are set-unions and bases install monotonically), and
  /// once the round's full batch has landed, adopt the peer's coverage
  /// rows (repairing gapped streams) and stability knowledge.
  void install_anti_entropy(ProcessId from, const Envelope& e) {
    const Snapshot& snap = *e.snapshot;
    UCW_CHECK_MSG(snap.shard_count == engines_.size(),
                  "anti-entropy with a store of a different shard_count");
    UCW_CHECK(snap.shard_index < engines_.size());
    ++stats_.ae_snapshots_installed;
    if (obs_ && obs_->tracer) {
      obs_->tracer->instant(0, obs::TraceEventKind::kAeInstall, from,
                            snap.shard_index);
    }
    for (const auto& ks : snap.keys) {
      bool floor_raised = false;
      stats_.ae_entries_installed +=
          engine_of(ks.key).install_key(ks, &floor_raised, from);
    }
    const bool marker_sound = note_marker(from, e.epoch, snap);
    if (from >= ae_.size()) return;
    AeRound& r = ae_[from];
    // Stale rounds (superseded exchanges, at-least-once duplicates)
    // installed their data above but must not complete the current
    // round — their coverage snapshot could predate a re-partition.
    if (!r.active || e.seq != r.round) return;
    if (!marker_sound) r.sound = false;
    if (!r.installed[snap.shard_index]) {
      r.installed[snap.shard_index] = true;
      ++r.installed_count;
    }
    r.coverage = snap.coverage;  // every snapshot of a round carries the same
    r.donor_rows = snap.donor_rows;
    // FAULT kAeAdoptOnFirstDelta: adopt the peer's coverage/stability
    // rows after the round's *first* installed delta instead of the
    // complete batch — vouching for data still riding in the round's
    // remaining shards. The gap clears early, acks resume, and GC can
    // fold over entries the unfinished deltas were about to deliver.
    if (r.installed_count < r.installed.size() &&
        !config_.fault.is(Fault::kAeAdoptOnFirstDelta)) {
      return;
    }
    r.active = false;
    ++stats_.ae_rounds_completed;
    if (obs_ && obs_->tracer) {
      obs_->tracer->instant(0, obs::TraceEventKind::kAeAdopt, from,
                            static_cast<std::uint64_t>(r.sound));
    }
    // A concurrently opened catch-up session owns stream trust now; its
    // own retire will seed coverage. And an unsound round (a delta
    // relative to a baseline we never installed — only possible across
    // interleaved restarts) must adopt nothing: the data helped, the
    // claims might not hold here.
    if (session_.active() || !r.sound) return;
    // Everything the peer held at serve time is now held here (previous
    // complete installs cover the clean keys, this batch the dirty
    // ones, and live arrivals only add), so its proven coverage of
    // *every* sender's stream — including its own — transfers verbatim.
    adopt_coverage(r.coverage);
    // Same argument makes the peer's stability rows direct knowledge
    // here: anything stamped below them is already installed, so a
    // later arrival below the resulting floor is provably a redelivery.
    if (stability_ && !r.donor_rows.empty()) {
      stability_->adopt(r.donor_rows);
      stability_->advance_self(clock_.now());
    }
  }

  /// Remembers the donor's delta marker for a shard we now hold — the
  /// value the next request echoes. Markers are per donor *incarnation*
  /// (a restarted donor's counters restart); a delta relative to a
  /// baseline we never installed returns false and advances nothing.
  bool note_marker(ProcessId from, std::uint64_t donor_epoch,
                   const Snapshot& snap) {
    if (from >= snap_markers_.size()) return false;
    auto& row = snap_markers_[from];
    if (snap_marker_epochs_[from] != donor_epoch) {
      row.assign(row.size(), 0);
      snap_marker_epochs_[from] = donor_epoch;
    }
    std::uint64_t& m = row[snap.shard_index];
    if (snap.delta_since > m) return false;
    if (snap.delta_marker > m) m = snap.delta_marker;
    return true;
  }

  /// Tracks each sender's live (epoch, seq) stream; a fresh incarnation
  /// or the first envelope after a (re)start re-arms the catch-up gap
  /// check for that sender. The per-epoch SeqCoverage records exactly
  /// which seqs are held — per-link FIFO makes live arrivals in-order,
  /// so a new segment boundary is a drop (partitioned away, or dropped
  /// while this store was down).
  void note_stream(ProcessId from, const Envelope& e) {
    if (from >= peers_.size()) return;
    PeerStream& ps = peers_[from];
    if (!ps.any || e.epoch > ps.epoch) {
      ps.any = true;
      ps.epoch = e.epoch;
      ps.first_seq = e.seq;
      ps.last_seq = e.seq;
      ps.recv.reset();
      ps.recv.add(e.seq);
      ps.gapped = false;
      refresh_gap(from);
      if (session_.active()) reevaluate_session();
    } else if (e.epoch == ps.epoch) {
      if (e.seq > ps.last_seq) ps.last_seq = e.seq;
      ps.recv.add(e.seq);
      refresh_gap(from);
    }
  }

  /// Re-derives the cached gap flag from the coverage segments; counts
  /// the intact→gapped transitions (one per drop episode per sender).
  void refresh_gap(ProcessId q) {
    PeerStream& ps = peers_[q];
    const bool intact = !ps.any || ps.recv.contiguous();
    if (intact) {
      ps.gapped = false;
    } else if (!ps.gapped) {
      ps.gapped = true;
      ++stats_.stream_gaps_detected;
    }
  }

  void reevaluate_session() {
    if constexpr (kCatchupCapable) {
      std::vector<PeerStreamView> views;
      views.reserve(peers_.size());
      for (const PeerStream& ps : peers_) {
        views.push_back(PeerStreamView{ps.any, ps.epoch, ps.first_seq});
      }
      if (session_.reevaluate(pid_, views)) resync_needed_ = true;
      if (session_.try_retire()) {
        // Retired: every stream verified, i.e. the installed snapshots
        // provably covered the [0, first live seq) prefix of each.
        ++stats_.syncs_completed;
        adopt_coverage(session_.coverage());
      }
    }
  }

  /// Folds a proven coverage vector (a retired session's merged donor
  /// coverage, or a completed anti-entropy round's) into the per-sender
  /// SeqCoverage, so mid-stream joins and partition drops stop reading
  /// as gaps (and those senders' acks resume feeding stability).
  /// Conservative: only same-epoch claims are adopted.
  void adopt_coverage(const std::vector<StreamCoverage>& cov) {
    for (ProcessId q = 0; q < cov.size() && q < peers_.size(); ++q) {
      if (q == pid_) continue;
      const StreamCoverage& c = cov[q];
      PeerStream& ps = peers_[q];
      if (!c.any || !ps.any || c.epoch != ps.epoch) continue;
      ps.recv.add_prefix(c.seq);
      refresh_gap(q);
    }
  }

  /// Flush-tick pacing of catch-up retries: a detected gap, or a session
  /// that made no progress since the last tick (lost request, crashed
  /// donor), re-requests — possibly from a new donor.
  void sync_housekeeping() {
    if constexpr (kCatchupCapable) {
      if (!session_.active()) return;
      // No progress for `sync_patience_ticks` re-requests. Awaiting:
      // the request or a snapshot was lost (crashed donor, or a donor
      // deferring because it is mid-sync itself). Guarding: some stream
      // is still unverified — usually its next live envelope settles it
      // within a tick, but a sender that went quiet (or crashed) after
      // an envelope of its was dropped here can only be resolved by a
      // re-serve with refreshed coverage, whose `drained` bit proves
      // the stream settled once nothing of it is in flight. Retries
      // therefore terminate: each re-serve either closes the gap or
      // the stream settles.
      if (session_.stalled_since(last_progress_mark_)) {
        ++stall_ticks_;
      } else {
        stall_ticks_ = 0;
      }
      last_progress_mark_ = session_.progress();
      const bool stalled = stall_ticks_ >= config_.sync_patience_ticks;
      if (!resync_needed_ && !stalled) return;
      // Gap retries go back to the same donor (it will have the missing
      // envelopes eventually). A stall rotates to the next live donor:
      // the current one may be crashed, or deferring because it is
      // mid-sync itself — two concurrently recovering stores must not
      // retry into each other forever.
      ProcessId donor = session_.donor();
      if (stalled) {
        bool found = false;
        for (std::size_t step = 1; step <= net_->size(); ++step) {
          const auto q = static_cast<ProcessId>(
              (session_.donor() + step) % net_->size());
          if (q == pid_) continue;
          if constexpr (kCrashAware) {
            if (net_->crashed(q)) continue;
          }
          donor = q;
          found = true;
          break;
        }
        if (!found) {
          session_.abandon();  // nobody left to sync from
          bootstrapping_ = false;
          return;
        }
      }
      stall_ticks_ = 0;
      ++stats_.sync_retries;
      send_sync_request(donor);  // opens the next round
    }
  }

  /// Flush-tick pacing of gap-triggered anti-entropy: every sender
  /// whose stream has a detected gap — and is reachable, alive, and not
  /// already mid-round — gets a pull from its origin (which trivially
  /// holds its own entries, so origin-alive gaps always close). A round
  /// whose messages were lost (re-split mid-exchange, crashed peer) is
  /// re-issued after kAePatienceTicks ticks rather than wedging.
  /// Skipped entirely while a catch-up session owns recovery.
  void ae_housekeeping() {
    if constexpr (kCatchupCapable) {
      if (!config_.auto_anti_entropy || session_.active()) return;
      for (ProcessId q = 0; q < peers_.size(); ++q) {
        if (q == pid_) continue;
        AeRound& r = ae_[q];
        if (r.active) {
          if (++r.ticks_active < kAePatienceTicks) continue;
        } else if (!peers_[q].gapped) {
          continue;
        }
        if constexpr (kCrashAware) {
          if (net_->crashed(q)) continue;
        }
        if constexpr (kReachabilityAware) {
          if (!net_->same_partition(pid_, q)) continue;
        }
        (void)anti_entropy_round(q, /*reciprocate=*/false);
      }
    }
  }

  /// Ack heartbeat: without one, a process that updates rarely (or only
  /// reads) would pin everyone's stability floor. Sent only when
  /// `ack_clock` moved past the last ack this store shipped. Callers
  /// gate on stability where piggybacked acks already flow
  /// (single-owner envelopes, which pass clock_now()); a pooled store
  /// calls it unconditionally — its batch envelopes carry no ack (see
  /// flush_engines), so the heartbeat is the only thing keeping it from
  /// pinning compacting peers' floors — and passes its stamp *barrier*,
  /// the largest clock it can honestly vouch for with client threads
  /// stamping concurrently (see ThreadUcStore::stamp_barrier).
  void maybe_send_ack(LogicalTime ack_clock) {
    if (ack_clock == 0 ||
        ack_clock <= last_ack_clock_.load(std::memory_order_relaxed)) {
      return;
    }
    if constexpr (kCrashAware) {
      if (net_->crashed(pid_)) {
        // Crash-stop mirror of the flush path: the heartbeat dies with
        // the sender and is counted as dropped — and the seq is *not*
        // consumed, so a restarted incarnation's stream starts clean on
        // the heartbeat path too.
        ++stats_.acks_dropped_crash;
        return;
      }
    }
    Envelope ack;
    ack.kind = EnvelopeKind::kBatch;
    ack.epoch = epoch_;
    ack.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    ack.ack_clock = ack_clock;
    // FAULT kAckOverstatesClock: heartbeat twin of the flush-path
    // perversion — vouch for a stamp not yet broadcast.
    if (config_.fault.is(Fault::kAckOverstatesClock)) ack.ack_clock += 1;
    raise_last_ack(ack.ack_clock);
    ++stats_.acks_sent;
    net_->broadcast_others(pid_, ack);
    if (obs_ && obs_->tracer) {
      obs_->tracer->instant(0, obs::TraceEventKind::kAckHeartbeat, ack_clock);
    }
  }

  /// Mirrors the transport's failure knowledge into the tracker. A
  /// crashed process is only declared once nothing of it can still be
  /// in flight (otherwise a straggler could land below the fold floor);
  /// hearing that a pid is back (restart) re-arms its row.
  void refresh_crash_knowledge() {
    if constexpr (kCrashAware) {
      for (ProcessId q = 0; q < net_->size(); ++q) {
        if (q == pid_) continue;
        if (!net_->crashed(q)) {
          stability_->set_crashed(q, false);
        } else if constexpr (kInFlightAware) {
          if (net_->in_flight_from(q) == 0) {
            stability_->set_crashed(q, true);
          }
        }
      }
    }
  }

  [[nodiscard]] std::vector<StreamCoverage> build_coverage() const {
    std::vector<StreamCoverage> cov(peers_.size());
    const std::uint64_t sent = next_seq_.load(std::memory_order_relaxed);
    for (ProcessId q = 0; q < peers_.size(); ++q) {
      if (q == pid_) {
        cov[q].any = sent > 0;
        cov[q].epoch = epoch_;
        cov[q].seq = sent > 0 ? sent - 1 : 0;
        // Our own stream is trivially complete here: the local log holds
        // everything we ever broadcast, so the snapshot covers it, and
        // anything of ours still in flight reaches the (alive) requester
        // directly. Without this, a joiner in a quiet cluster could
        // never verify its donor's stream and would re-request forever.
        cov[q].drained = true;
        continue;
      }
      const PeerStream& ps = peers_[q];
      // Claim only the *proven* prefix. `last_seq` was a valid FIFO
      // shortcut before drop-mode partitions existed; with drops it
      // over-claims — the segments beyond the first hole were received,
      // but nothing proves the hole's envelopes are held here.
      // FAULT kCoverageClaimsLastSeq: resurrect exactly that shortcut —
      // claim through the last seq seen and call gapped streams drained,
      // so a joiner "verifies" streams whose hole entries nobody ships.
      const bool claim_last =
          config_.fault.is(Fault::kCoverageClaimsLastSeq);
      cov[q].any = claim_last ? ps.any : ps.any && ps.recv.has_prefix();
      cov[q].epoch = ps.epoch;
      cov[q].seq = !cov[q].any ? 0
                   : claim_last ? ps.recv.last()
                                : ps.recv.prefix();
      if constexpr (kInFlightAware) {
        // Settled stream (crashed or merely silent): with nothing of q
        // in flight, this store's prefix is q's complete output so far.
        // Unless the stream has a gap (the hole's envelopes are gone,
        // not in flight), or q is currently partitioned away (its sends
        // are being dropped before they ever count as in flight).
        bool reachable = true;
        if constexpr (kReachabilityAware) {
          reachable = net_->same_partition(pid_, q);
        }
        cov[q].drained = net_->in_flight_from(q) == 0 &&
                         (claim_last || !ps.gapped) && reachable;
      }
    }
    return cov;
  }

  /// Flush-tick sampling of the derived convergence gauges: floor lag
  /// (clock − stability floor), published-view staleness (clock − the
  /// stalest engine's last applied stamp), and the replication-lag p99
  /// so far — stored for the metrics snapshot and, with a tracer,
  /// emitted as counter-track events. Reads only atomics, so a pooled
  /// router may call it while workers run. No-op when obs is off.
  void sample_convergence_obs(LogicalTime now) {
    if (!obs_) return;
    obs_->floor_lag.store(stats_.stability_floor_lag,
                          std::memory_order_relaxed);
    LogicalTime oldest = 0;
    bool any = false;
    for (const auto& e : engines_) {
      const LogicalTime a = e->last_applied_clock();
      if (a == 0) continue;
      if (!any || a < oldest) {
        oldest = a;
        any = true;
      }
    }
    const std::uint64_t stale = any && now > oldest ? now - oldest : 0;
    obs_->view_staleness.store(stale, std::memory_order_relaxed);
    if (obs_->tracer) {
      obs_->tracer->counter(0, obs::TraceEventKind::kFloorLag,
                            stats_.stability_floor_lag);
      obs_->tracer->counter(0, obs::TraceEventKind::kViewStaleness, stale);
      if (!obs_->replication_lag.empty()) {
        obs_->tracer->counter(
            0, obs::TraceEventKind::kReplicationLag,
            static_cast<std::uint64_t>(obs_->replication_lag.percentile(99)));
      }
    }
  }

  /// Monotone max on the last-shipped ack clock (concurrent worker
  /// flushes may race the heartbeat path; the max is the honest value).
  void raise_last_ack(LogicalTime t) {
    LogicalTime cur = last_ack_clock_.load(std::memory_order_relaxed);
    while (t > cur && !last_ack_clock_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  /// One sender's live stream as observed here since (re)start.
  struct PeerStream {
    bool any = false;
    std::uint64_t epoch = 0;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    /// Proven-held seqs of the current epoch: live arrivals plus the
    /// prefixes proven by snapshot installs / anti-entropy completions.
    SeqCoverage recv;
    /// Cached "recv is not a contiguous prefix" — the ack-gating bit.
    bool gapped = false;
  };

  /// One in-flight anti-entropy exchange with a peer (requester side).
  struct AeRound {
    bool active = false;
    std::uint64_t round = 0;
    std::vector<bool> installed;
    std::size_t installed_count = 0;
    bool sound = true;
    std::size_t ticks_active = 0;  ///< re-issue pacing (ae_housekeeping)
    std::vector<StreamCoverage> coverage;
    std::vector<LogicalTime> donor_rows;
  };

  A adt_;
  ProcessId pid_;
  StoreConfig config_;
  Net* net_;
  /// Store-wide atomic Lamport clock; shared by every keyed replica of
  /// every engine (see AtomicLamportClock).
  AtomicLamportClock clock_;
  std::optional<StoreStabilityTracker> stability_;
  CatchupSession session_;
  std::vector<PeerStream> peers_;
  /// Per donor, per shard: the delta marker of the last snapshot batch
  /// installed from it (echoed on requests), and the donor incarnation
  /// the markers belong to.
  std::vector<std::vector<std::uint64_t>> snap_markers_;
  std::vector<std::uint64_t> snap_marker_epochs_;
  std::vector<AeRound> ae_;  ///< per peer
  std::uint64_t ae_round_counter_ = 0;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Engine*> engine_ptrs_;  ///< the all-engines flush set
  std::uint64_t epoch_ = 0;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<LogicalTime> last_ack_clock_{0};
  std::size_t pending_total_ = 0;  ///< single-owner path's buffered count
  LogicalTime gc_floor_ = 0;
  std::uint64_t last_progress_mark_ = 0;
  std::size_t stall_ticks_ = 0;
  bool resync_needed_ = false;
  bool bootstrapping_ = false;
  bool any_snapshot_installed_ = false;
  /// Store-wide counters only (wire, GC, catch-up); the per-engine
  /// operation counts are merged in by stats().
  StoreStats stats_;
  /// Allocated iff config_.tracing — the "off ≈ one branch" gate every
  /// instrumentation hook tests.
  std::unique_ptr<obs::StoreObs> obs_;
  /// Caller-owned op-history recorder, null when auditing is off (same
  /// lifetime discipline as the tracer). Protected like the rest: the
  /// pooled frontend records through it with real producer slots
  /// instead of thread 0.
  audit::OpRecorder<A, Key>* recorder_ = nullptr;
};

}  // namespace ucw
