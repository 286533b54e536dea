// ShardEngine: everything the store owns *per shard*, behind one owner.
//
// Algorithm 1's wait-freedom means per-key replicas never coordinate,
// and nothing in update consistency arbitrates across keys — shards are
// embarrassingly parallel. The engine is the unit that exploits that:
// it owns the shard's key→replica map, its batch buffer, its slice of
// the GC fold, and snapshot serve/install for its keys. One *owner*
// (the Sim store's single thread, or one worker of a ThreadUcStore
// pool) drives an engine at a time; the only state shared
// across owners is the atomic store clock the replicas stamp from, two
// relaxed mirror counters (pending size, distinct applies) that other
// threads may read, and the router-held stability tracker the engine
// never touches — per-engine output (batches, fold results) is drained
// by whoever owns the flush, which is what keeps the single-owner
// discipline intact while engines spread across cores.
//
// The engine also hosts the two per-shard optimizations the monolithic
// StoreCore could not express:
//
//   * the GC dirty cursor and fold list — the engine tracks the minimum
//     stamp of any entry it holds that has not been folded, so a sweep
//     skips clean engines in O(1), and it lists the keys that hold
//     unfolded entries (or were created since the last sweep), so a
//     sweep of a dirty engine visits those keys only, not every key of
//     the shard. A sweep also raises the floor of empty logs; an
//     unlisted key's floor catches up to the last sweep's floor lazily,
//     the next time anything could observe it: touch() before an apply
//     or install, encode_snapshot() before it reads floors. Every
//     (base, floor, log) seen through those paths is what a walk of
//     every key on every sweep would have left;
//   * published read views — per *hot* key, a seqlock-versioned
//     snapshot of the replica state (util/seqlock_view.hpp) that any
//     client thread reads wait-free, without riding the owner's ring.
//     A key turns hot the first time a get() falls back to the engine
//     through the ring (`promote`; plain query() never promotes, so
//     only keys actually read through get() pay the republish cost);
//     from then on every apply republishes. The
//     view registry is itself published as an immutable snapshot map
//     through its own SeqlockView, so the read side is bounded end to
//     end: registry snapshot → hash lookup → seqlock read, each a
//     bounded-retry step. The owner reads its plain master registry
//     directly, so the apply path pays one local hash probe, not a
//     snapshot load.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/replica.hpp"
#include "recovery/catchup.hpp"
#include "store/envelope.hpp"
#include "store/shard.hpp"
#include "util/seqlock_view.hpp"

namespace ucw {

template <UqAdt A, typename Key = std::string>
class ShardEngine {
 public:
  using Entry = KeyedUpdate<A, Key>;
  using Shard = StoreShard<A, Key>;
  using Snapshot = ShardSnapshot<A, Key>;
  using View = SeqlockView<typename A::State>;
  using ViewMap =
      std::unordered_map<Key, std::shared_ptr<View>, ValueHash>;

  /// Sentinel "no install provenance" pid for the dirty marks (live
  /// traffic, or an install whose donor should not be credited).
  static constexpr ProcessId kNoDonor = static_cast<ProcessId>(-1);

  ShardEngine(const A& adt, ProcessId pid, std::size_t index,
              const StoreConfig& config,
              const typename ReplayReplica<A>::Config& rep_cfg)
      : adt_(adt),
        index_(index),
        fault_(config.fault),
        shard_(adt, pid, rep_cfg) {}

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] Shard& shard() { return shard_; }
  [[nodiscard]] const Shard& shard() const { return shard_; }

  // ----- operation surface (owner thread only) -------------------------

  /// Applies a locally issued, pre-stamped update to its replica
  /// (synchronous self-delivery) and buffers it for the next flush.
  void local_update(const Key& key, UpdateMessage<A> msg) {
    note_stamp(msg.stamp.clock);
    mark_dirty(key);
    auto& rep = touch(key);
    rep.apply_local(msg);
    ++local_updates_;
    pending_.push_back(Entry{key, std::move(msg)});
    pending_count_.store(pending_.size(), std::memory_order_relaxed);
    applied_distinct_.fetch_add(1, std::memory_order_release);
    maybe_republish(key, rep);
  }

  /// Applies one keyed update from a remote envelope; returns true when
  /// the per-key log absorbed it as a replay.
  bool apply_remote(ProcessId from, const Key& key,
                    const UpdateMessage<A>& msg) {
    auto& rep = touch(key);
    const std::uint64_t dups_before = rep.stats().duplicate_updates;
    rep.apply(from, msg);
    ++remote_entries_;
    if (rep.stats().duplicate_updates != dups_before) {
      ++duplicate_entries_;
      return true;
    }
    note_stamp(msg.stamp.clock);
    mark_dirty(key);
    applied_distinct_.fetch_add(1, std::memory_order_release);
    maybe_republish(key, rep);
    return false;
  }

  [[nodiscard]] typename A::QueryOut query(const Key& key,
                                           const typename A::QueryIn& qi) {
    ++queries_;
    if (auto* rep = shard_.find(key)) return rep->query(qi);
    return adt_.output(adt_.initial(), qi);
  }

  [[nodiscard]] typename A::State state_of(const Key& key) {
    if (auto* rep = shard_.find(key)) return rep->current_state();
    return adt_.initial();
  }

  // ----- published read views (the wait-free read path) ----------------

  /// Marks `key` hot (owner thread only; idempotent): creates its view
  /// and publishes the current state. The *registry* snapshot readers
  /// navigate by is NOT republished per promotion — that made a get()
  /// scan over N cold keys cost O(N²) map copies. Instead the republish
  /// is amortized geometrically: ship a fresh registry only once the
  /// hot set has doubled since the last one (total copy work across N
  /// promotions: 1+2+4+…≈2N = O(N)), plus once per flush tick whenever
  /// promotions are pending (bounded staleness — an unlisted hot key
  /// just keeps falling back to the ring until the next tick, which is
  /// correct, merely not yet fast).
  void promote(const Key& key) {
    if (views_owner_.count(key) > 0) return;
    auto view = std::make_shared<View>();
    view->publish(state_of(key));
    views_owner_.emplace(key, std::move(view));
    ++pending_promotions_;
    if (views_owner_.size() >= 2 * last_registry_size_) {
      republish_registry();
    }
  }

  /// Wait-free read of `key`'s published state from *any* thread:
  /// immutable registry-snapshot load → hash lookup → bounded-retry
  /// seqlock read. The returned pointer is an immutable shared snapshot
  /// — ZERO state copies on this path; later applies publish new
  /// snapshots and never mutate this one. Null when the key is cold
  /// (never promoted, or promoted but not yet listed in the registry
  /// snapshot) or a racing publish exhausted the retry budget — the
  /// caller falls back to the ring round trip (which promotes).
  [[nodiscard]] std::shared_ptr<const typename A::State> try_read_published(
      const Key& key) const {
    const std::shared_ptr<const ViewMap> views = views_.try_read_shared();
    if (!views) return nullptr;
    const auto it = views->find(key);
    if (it == views->end()) return nullptr;
    return it->second->try_read_shared();
  }

  /// Live published views (hot keys) of this engine. Owner thread.
  [[nodiscard]] std::size_t published_keys() const {
    return views_owner_.size();
  }

  // ----- batch buffer --------------------------------------------------

  /// Mirror of the buffer size; readable from any thread (relaxed).
  [[nodiscard]] std::size_t pending_size() const {
    return pending_count_.load(std::memory_order_relaxed);
  }

  /// Moves the buffered entries into `out` (envelope assembly — the
  /// flush owner carpools every engine it owns into one envelope).
  void drain_pending(std::vector<Entry>& out) {
    for (auto& e : pending_) out.push_back(std::move(e));
    pending_.clear();
    pending_count_.store(0, std::memory_order_relaxed);
  }

  /// Crash-stop: the buffered updates die with the sender.
  std::size_t drop_pending() {
    const std::size_t n = pending_.size();
    pending_.clear();
    pending_count_.store(0, std::memory_order_relaxed);
    return n;
  }

  /// Flush tick: lists views promoted since the last registry publish
  /// (the bounded-staleness half of promote()'s schedule).
  void on_flush_tick() {
    if (pending_promotions_ > 0) republish_registry();
  }

  // ----- GC (store-wide floor, engine-local fold) ----------------------

  /// Whether this engine holds any unfolded entry at or below `floor` —
  /// the dirty check that lets a sweep skip clean engines in O(1).
  [[nodiscard]] bool gc_pending(LogicalTime floor) const {
    return min_unfolded_ <= floor;
  }

  /// Folds the listed replicas to `floor`, unlists those whose logs
  /// are now empty, and re-anchors the dirty cursor at the smallest
  /// entry still resident. Cost O(listed keys), not O(live keys): the
  /// unlisted ones hold no entries, and their floors catch up to
  /// `folded_floor_` lazily (touch, encode_snapshot).
  std::size_t fold_to(LogicalTime floor) {
    std::size_t folded = 0;
    LogicalTime min_left = kNoUnfolded;
    std::size_t kept = 0;
    for (Node* node : gc_list_) {
      Slot& slot = node->second;
      folded += slot.replica.fold_to(floor);
      const auto& log = slot.replica.log();
      if (log.size() == 0) {
        slot.listed = false;
        continue;
      }
      if (log.at(0).stamp.clock < min_left) min_left = log.at(0).stamp.clock;
      gc_list_[kept++] = node;
    }
    gc_list_.resize(kept);
    if (floor > folded_floor_) folded_floor_ = floor;
    min_unfolded_ = min_left;
    return folded;
  }

  /// Keys the next sweep visits: those holding unfolded entries, plus
  /// those touched since the last sweep. Owner thread.
  [[nodiscard]] std::vector<Key> gc_listed_keys() const {
    std::vector<Key> out;
    out.reserve(gc_list_.size());
    for (const Node* node : gc_list_) out.push_back(node->first);
    return out;
  }

  // ----- snapshot serve / install --------------------------------------

  /// Encodes this shard's snapshot. `since_marker == 0` ships every
  /// live key (full); otherwise only the keys whose advance mark is
  /// newer — the dirty-set — which is a complete statement relative to
  /// a receiver already holding this shard's state as of that marker.
  /// `requester` enables echo suppression: a key whose every advance
  /// since the marker was an install of *that requester's own served
  /// content* is skipped too — the requester holds it by construction,
  /// and without this a bidirectional heal would bounce the whole first
  /// sync back on the second round.
  [[nodiscard]] Snapshot encode_snapshot(std::size_t shard_count,
                                         std::uint64_t since_marker = 0,
                                         ProcessId requester = kNoDonor) {
    // Snapshots carry every key's floor: settle the lazy ones first.
    shard_.for_each_slot([&](const Key&, Slot& slot) {
      if (!slot.listed) (void)slot.replica.fold_to(folded_floor_);
    });
    Snapshot snap = encode_shard_snapshot(
        shard_, index_, shard_count, [&](const Key& k) {
          if (since_marker == 0) return true;
          const auto it = dirty_marks_.find(k);
          if (it == dirty_marks_.end()) return false;
          const DirtyMark& d = it->second;
          // FAULT kEchoSuppressThirdParty: suppress on last-donor alone,
          // ignoring the non_donor_mark anchor — third-party content
          // that rode in since the requester's baseline is dropped too,
          // and the heal-time relay silently loses it.
          const std::uint64_t effective =
              d.donor != requester ? d.mark
              : fault_.is(Fault::kEchoSuppressThirdParty)
                  ? 0
                  : d.non_donor_mark;
          return effective > since_marker;
        });
    snap.delta_marker = advance_marker_;
    snap.delta_since = since_marker;
    return snap;
  }

  /// The engine's advance counter (== the `delta_marker` the next
  /// encode_snapshot would stamp).
  [[nodiscard]] std::uint64_t dirty_marker() const { return advance_marker_; }

  /// Installs one key of a catch-up snapshot; returns suffix entries
  /// replayed and reports via `floor_raised` whether the key's compacted
  /// prefix actually grew (the transfer-volume stat). `donor` is the
  /// provenance recorded on the dirty mark: installed knowledge dirties
  /// the key here too — a later delta served *from* this store must
  /// relay what it learned second-hand (that transitivity is what lets
  /// one representative per partition side reconcile a whole split) —
  /// but a delta back to the donor itself may skip it.
  std::size_t install_key(const KeySnapshot<A, Key>& ks, bool* floor_raised,
                          ProcessId donor = kNoDonor) {
    auto& rep = touch(ks.key);
    const LogicalTime floor_before = rep.log().floor();
    const std::size_t log_before = rep.log().size();
    std::size_t replayed = 0;
    if (fault_.is(Fault::kInstallSkipsSuffix)) {
      // FAULT: adopt the donor's compacted base but never replay the
      // unstable suffix — every entry only this snapshot could deliver
      // is silently lost, and nothing ever redelivers it (the donor
      // thinks it shipped).
      (void)rep.install_base(ks.base, ks.floor);
    } else {
      replayed = install_key_snapshot(rep, ks);
    }
    *floor_raised = rep.log().floor() > floor_before;
    if (*floor_raised || rep.log().size() > log_before) {
      // FAULT kInstallSkipsDirtyMark: installed knowledge never joins
      // the dirty set, so deltas served from this store omit everything
      // it learned second-hand and relays stop at one hop.
      if (!fault_.is(Fault::kInstallSkipsDirtyMark)) {
        mark_dirty_from(ks.key, donor);
      }
    }
    if (!fault_.is(Fault::kInstallSkipsSuffix)) {
      for (const auto& e : ks.suffix) note_stamp(e.stamp.clock);
    }
    maybe_republish(ks.key, rep);
    return replayed;
  }

  void note_snapshot_installed() { shard_.note_snapshot_installed(); }

  // ----- accounting ----------------------------------------------------

  [[nodiscard]] std::uint64_t local_updates() const { return local_updates_; }
  [[nodiscard]] std::uint64_t remote_entries() const {
    return remote_entries_;
  }
  [[nodiscard]] std::uint64_t duplicate_entries() const {
    return duplicate_entries_;
  }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }

  /// Distinct keyed updates applied from any source (replays excluded);
  /// readable from any thread — the release pairs with the acquire in
  /// drain barriers, so a reader that observed the count also observes
  /// the replica state behind it.
  [[nodiscard]] std::uint64_t applied_distinct() const {
    return applied_distinct_.load(std::memory_order_acquire);
  }

  /// Lamport clock of the newest entry this engine has applied (local,
  /// remote, or snapshot suffix). A relaxed mirror like pending_count_:
  /// the router's flush-tick staleness sampler (obs layer) reads it
  /// while the owning worker applies — approximate by design.
  [[nodiscard]] LogicalTime last_applied_clock() const {
    return last_applied_clock_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ShardStats stats() const {
    ShardStats s = shard_.stats();
    s.published_keys = views_owner_.size();
    s.view_registry_publishes = registry_publishes_;
    s.view_registry_keys_copied = registry_keys_copied_;
    return s;
  }

 private:
  using Slot = typename Shard::Slot;
  using Node = typename Shard::Node;

  static constexpr LogicalTime kNoUnfolded =
      std::numeric_limits<LogicalTime>::max();

  /// The replica for `key`, listed for the next sweep — the one way the
  /// operation surface reaches a replica it may change, in the shard
  /// map's single hash lookup. An existing unlisted slot first catches
  /// its floor up to the last sweep's (its log is empty: the sweep that
  /// unlisted it folded everything). A new slot keeps floor 0 until the
  /// next sweep, exactly as it would under a walk of every key.
  ReplayReplica<A>& touch(const Key& key) {
    const auto [node, created] = shard_.slot(key);
    Slot& slot = node->second;
    if (!slot.listed) {
      if (!created) (void)slot.replica.fold_to(folded_floor_);
      slot.listed = true;
      gc_list_.push_back(node);
    }
    return slot.replica;
  }

  void note_stamp(LogicalTime t) {
    if (t < min_unfolded_) min_unfolded_ = t;
    // Owner-thread-only writer, so load+store (no CAS) keeps the mirror
    // monotone.
    if (t > last_applied_clock_.load(std::memory_order_relaxed)) {
      last_applied_clock_.store(t, std::memory_order_relaxed);
    }
  }

  /// The key's log gained information from live traffic (a distinct
  /// local or remote entry): stamp it with the next advance mark, so a
  /// delta snapshot relative to an older mark ships it. GC folds are
  /// *not* advances — they move entries into the base without new
  /// information, and dirtying on fold would re-ship the whole keyspace
  /// every sweep.
  void mark_dirty(const Key& key) {
    DirtyMark& d = dirty_marks_[key];
    d.mark = ++advance_marker_;
    d.donor = kNoDonor;
    d.non_donor_mark = d.mark;
  }

  /// As mark_dirty, but the information arrived as an installed
  /// snapshot from `donor`: remember the provenance, and keep
  /// `non_donor_mark` anchored at the last advance that did NOT come
  /// from this donor — the echo-suppression invariant is "if
  /// non_donor_mark <= the requester's baseline and the last donor is
  /// the requester, every advance since the baseline was its own
  /// content".
  void mark_dirty_from(const Key& key, ProcessId donor) {
    if (donor == kNoDonor) {
      mark_dirty(key);
      return;
    }
    DirtyMark& d = dirty_marks_[key];
    if (d.donor != donor) d.non_donor_mark = d.mark;
    d.donor = donor;
    d.mark = ++advance_marker_;
  }

  /// Republishes `key`'s view after an apply, if the key is hot. One
  /// local hash probe on the cold path; a state copy onto the heap on
  /// the hot one (the price of giving readers a lock-free snapshot).
  void maybe_republish(const Key& key, ReplayReplica<A>& rep) {
    if (views_owner_.empty()) return;
    const auto it = views_owner_.find(key);
    if (it == views_owner_.end()) return;
    it->second->publish(rep.current_state());
  }

  /// Ships a fresh immutable registry snapshot to readers and resets
  /// the amortization bookkeeping. O(hot set) per call — the geometric
  /// schedule in promote() bounds the total to O(hot set), not O(N²).
  void republish_registry() {
    views_.publish(views_owner_);
    ++registry_publishes_;
    registry_keys_copied_ += views_owner_.size();
    last_registry_size_ = views_owner_.size();
    pending_promotions_ = 0;
  }

  A adt_;
  std::size_t index_;
  FaultSpec fault_;  ///< mutation-corpus switch (src/faults/)
  Shard shard_;
  std::vector<Entry> pending_;
  std::atomic<std::size_t> pending_count_{0};
  /// Owner-side master registry — the hot set (which keys republish on
  /// apply) and the source each promotion snapshots into views_.
  ViewMap views_owner_;
  /// Reader-side registry: an immutable snapshot map, republished on
  /// promotion (rare once the hot set stabilizes), so the get() path
  /// never sees a rehashing map — registry load, hash lookup, view
  /// read, all bounded.
  SeqlockView<ViewMap> views_;
  /// Registry-republish amortization (see promote()).
  std::size_t last_registry_size_ = 0;   ///< hot-set size at last publish
  std::size_t pending_promotions_ = 0;   ///< views not yet in a snapshot
  std::uint64_t registry_publishes_ = 0;
  std::uint64_t registry_keys_copied_ = 0;
  LogicalTime min_unfolded_ = kNoUnfolded;  ///< GC dirty cursor anchor
  /// Slots the next sweep folds (each has `listed` set); see touch().
  std::vector<Node*> gc_list_;
  LogicalTime folded_floor_ = 0;  ///< highest floor a sweep folded to
  /// Delta-snapshot dirty-set entry: the advance mark of the key's last
  /// log-growing apply/install, plus install provenance for echo
  /// suppression (three words per live key).
  struct DirtyMark {
    std::uint64_t mark = 0;
    std::uint64_t non_donor_mark = 0;
    ProcessId donor = kNoDonor;
  };
  std::unordered_map<Key, DirtyMark, ValueHash> dirty_marks_;
  std::uint64_t advance_marker_ = 0;
  std::uint64_t local_updates_ = 0;
  std::uint64_t remote_entries_ = 0;
  std::uint64_t duplicate_entries_ = 0;
  std::uint64_t queries_ = 0;
  std::atomic<std::uint64_t> applied_distinct_{0};
  std::atomic<LogicalTime> last_applied_clock_{0};
};

}  // namespace ucw
