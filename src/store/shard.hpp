// One shard of the UCStore keyspace: key → lazily-instantiated replica.
//
// Every key is an independent Algorithm-1 object (the per-key logs never
// interact — Mostéfaoui–Perrin–Raynal's observation that the log-replay
// machinery generalizes object-by-object). A shard owns the replicas for
// the keys that hash into it, creating each one on first touch so a
// billion-key keyspace costs memory only for the keys actually used.
// Sharding keeps the per-key lookup maps small and gives the stats a
// natural aggregation unit; it is purely local structure — nothing on
// the wire knows shard boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/replica.hpp"
#include "faults/fault_spec.hpp"
#include "store/envelope.hpp"
#include "util/hash.hpp"

namespace ucw {

namespace obs {
class Tracer;  // see obs/trace.hpp; StoreConfig carries only a pointer
}  // namespace obs

/// Store-level tuning shared by the Sim and Thread frontends.
struct StoreConfig {
  std::size_t shard_count = 16;
  /// Keyed updates buffered before an automatic flush; 1 = unbatched.
  std::size_t batch_window = 8;
  /// Worker threads a pooled ThreadUcStore spreads its shard engines
  /// across (shard → worker by index modulo workers, so the assignment
  /// is a pure function of key and config — stable across restarts).
  /// 1 = the classic single-owner store; Sim stores are always 1.
  std::size_t workers = 1;
  /// Distinct client threads a pooled ThreadUcStore accepts on its
  /// update()/query()/get() surface. Each thread is lazily assigned one
  /// stamp-claim slot (the per-producer bookkeeping behind the honest
  /// flush-time ack — see ThreadUcStore::stamp_barrier); exceeding the
  /// cap is a programming error and CHECK-fails. Irrelevant unpooled
  /// (workers == 1 keeps the classic one-owner-thread contract).
  std::size_t max_producers = 64;
  ReplayPolicy policy = ReplayPolicy::CachedPrefix;
  std::size_t snapshot_interval = 64;
  /// Store-level stability tracking + log compaction: folds the
  /// store-wide stability floor into every live per-key log on the
  /// flush tick, and sends ack heartbeats so silent processes do not
  /// pin the floor. Requires FIFO links (see recovery/stability.hpp).
  /// Mixed clusters work: every store piggybacks its clock on each
  /// envelope regardless of this flag (so compacting peers can fold),
  /// but a gc=false store sends no heartbeats — if it also goes quiet,
  /// it pins the cluster floor exactly like any silent process.
  bool gc = false;
  /// Flush ticks a catch-up session waits without progress before
  /// re-requesting the sync. Must exceed the request → last-snapshot
  /// round trip in ticks, or the joiner opens a new round before the
  /// previous batch can land and spins; 1 retries on the very next tick
  /// (unit tests with drained networks).
  std::size_t sync_patience_ticks = 6;
  /// Incremental snapshot shipping: when a requester echoes the delta
  /// markers it installed before (catch-up retry, anti-entropy round),
  /// serve only the keys whose log advanced since — instead of every
  /// shard in full, every round. Off forces full snapshots always (the
  /// control arm of the delta benches/tests). Never changes *what* the
  /// receiver ends up holding, only how much of it rides the wire.
  bool incremental_snapshots = true;
  /// Gap-triggered anti-entropy on the flush tick: a sender's stream
  /// with a detected gap (drop-mode partition) that is reachable and
  /// alive gets one anti_entropy_round() pull, re-issued every
  /// StoreCore::kAePatienceTicks ticks until the round completes and
  /// clears the gap. This is what makes a heal self-repairing: envelopes
  /// still in flight *inside* a group when the heal-time exchange served
  /// are caught by the next tick's pull from their origin, instead of
  /// leaking as permanent divergence. Off = anti-entropy only when the
  /// application calls anti_entropy_round() itself.
  bool auto_anti_entropy = true;
  /// Opt-in core affinity: worker w of a pooled ThreadUcStore pins
  /// itself to core w mod hardware_concurrency() on startup (Linux
  /// only; a no-op hint elsewhere — see util/affinity.hpp). Producer
  /// threads belong to the application and pin themselves via
  /// pin_current_thread_to_core() when they care.
  bool pin_workers = false;

  // ----- observability (src/obs/) --------------------------------------
  /// Master switch for the tracing + derived-metrics hooks. Always
  /// compiled in; off costs one branch on a pointer that stays null
  /// for the store's lifetime.
  bool tracing = false;
  /// Span sink for life-of-an-update events. Owned by the *caller*,
  /// never the store: a tracer that outlives the store lets a
  /// crash-restarted incarnation keep appending to the same
  /// per-process tracks, so one trace holds the whole timeline. Null
  /// with tracing=true = derived metrics only, no spans.
  obs::Tracer* tracer = nullptr;
  /// Per-op span events (update stamp, local/remote apply) are
  /// recorded for 1 in this many stamps (rounded up to a power of two;
  /// keyed on the stamp clock, so the same update is sampled
  /// consistently at origin and replicas). Batch, recovery,
  /// anti-entropy, partition, and gauge events are never sampled out.
  /// 1 = full fidelity; the default keeps the hot path inside the
  /// tracing-overhead budget.
  std::size_t trace_sample_every = 16;
  /// TEST-ONLY consistency-bug injection for the audit/fuzz pipeline:
  /// selects one mutant from the mutation corpus (src/faults/) — a
  /// deliberately broken merge/GC/ack/recovery variant the black-box
  /// auditor must catch. Fault::kNone (the default) is the clean store.
  /// Never set a fault outside the audit/fuzz tests.
  FaultSpec fault{};
};

/// Per-shard aggregate view (rendered by print_shard_table in
/// store_stats.hpp).
struct ShardStats {
  std::size_t keys_live = 0;         ///< replicas instantiated
  std::uint64_t local_updates = 0;   ///< across all keys in the shard
  std::uint64_t remote_updates = 0;
  std::uint64_t duplicate_updates = 0;
  std::uint64_t queries = 0;
  /// Keys with a live published read view (promoted hot keys); 0 on Sim
  /// stores and bare shards — only pooled ThreadUcStore queries promote.
  std::size_t published_keys = 0;
  std::uint64_t log_entries = 0;     ///< resident log length, summed
  std::uint64_t gc_folded = 0;       ///< log entries folded by GC
  std::uint64_t snapshots_exported = 0;  ///< served to catching-up peers
  std::uint64_t snapshots_installed = 0; ///< installed during catch-up
  std::size_t approx_bytes = 0;
  /// Read-view registry copy accounting (pooled stores only). Promotion
  /// publishes an immutable snapshot of the key→view registry map;
  /// `view_registry_keys_copied` is the total keys copied across all
  /// such publishes. The geometric republish schedule keeps this O(live
  /// views) even under a cold-key get() scan — the regression test in
  /// store_read_path_test.cpp pins that bound.
  std::uint64_t view_registry_publishes = 0;
  std::uint64_t view_registry_keys_copied = 0;
};

template <UqAdt A, typename Key = std::string>
class StoreShard {
 public:
  using Replica = ReplayReplica<A>;

  /// One map slot: the key's replica plus the owning engine's GC-list
  /// flag (ShardEngine::touch). The flag lives in the slot so listing a
  /// key costs no second hash lookup on the update path.
  struct Slot {
    Slot(const A& adt, ProcessId pid, const typename Replica::Config& cfg)
        : replica(adt, pid, cfg) {}
    Replica replica;
    bool listed = false;
  };
  /// Map nodes are address-stable across rehashes, so an engine may
  /// keep pointers to them.
  using Node = std::pair<const Key, Slot>;

  StoreShard(A adt, ProcessId pid, typename Replica::Config config)
      : adt_(std::move(adt)), pid_(pid), config_(config) {}

  /// The replica for `key`, instantiated on first touch.
  [[nodiscard]] Replica& replica(const Key& key) {
    return slot(key).first->second.replica;
  }

  /// The slot for `key`, instantiated on first touch, in one hash
  /// lookup; `second` is true when this call created it.
  [[nodiscard]] std::pair<Node*, bool> slot(const Key& key) {
    auto [it, created] = replicas_.try_emplace(key, adt_, pid_, config_);
    return {&*it, created};
  }

  /// The replica for `key` if it was ever touched, else nullptr.
  [[nodiscard]] const Replica* find(const Key& key) const {
    auto it = replicas_.find(key);
    return it == replicas_.end() ? nullptr : &it->second.replica;
  }
  [[nodiscard]] Replica* find(const Key& key) {
    auto it = replicas_.find(key);
    return it == replicas_.end() ? nullptr : &it->second.replica;
  }

  [[nodiscard]] std::size_t keys_live() const { return replicas_.size(); }

  /// Every key this shard has materialized (deterministic order not
  /// guaranteed; callers sort when reporting).
  [[nodiscard]] std::vector<Key> keys() const {
    std::vector<Key> out;
    out.reserve(replicas_.size());
    for (const auto& [k, _] : replicas_) out.push_back(k);
    return out;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [k, s] : replicas_) fn(k, s.replica);
  }

  template <typename Fn>
  void for_each_slot(Fn&& fn) {
    for (auto& [k, s] : replicas_) fn(k, s);
  }

  // Snapshot traffic accounting (bumped by the catch-up codec/installer).
  void note_snapshot_exported() { ++snapshots_exported_; }
  void note_snapshot_installed() { ++snapshots_installed_; }

  [[nodiscard]] ShardStats stats() const {
    ShardStats s;
    s.keys_live = replicas_.size();
    s.snapshots_exported = snapshots_exported_;
    s.snapshots_installed = snapshots_installed_;
    for (const auto& [k, slot] : replicas_) {
      const Replica& r = slot.replica;
      const ReplicaStats& rs = r.stats();
      s.local_updates += rs.local_updates;
      s.remote_updates += rs.remote_updates;
      s.duplicate_updates += rs.duplicate_updates;
      s.queries += rs.queries;
      s.log_entries += r.log().size();
      s.gc_folded += rs.gc_folded;
      s.approx_bytes += key_wire_bytes(k) + r.approx_bytes();
    }
    return s;
  }

 private:
  A adt_;
  ProcessId pid_;
  typename Replica::Config config_;
  std::unordered_map<Key, Slot, ValueHash> replicas_;
  std::uint64_t snapshots_exported_ = 0;
  std::uint64_t snapshots_installed_ = 0;
};

}  // namespace ucw
