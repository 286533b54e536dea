// Aggregate statistics for the UCStore, in the house table format.
//
// The batching counters answer the question the store exists to answer:
// how many broadcasts (and estimated wire bytes) did coalescing save
// versus Algorithm 1's one-broadcast-per-update baseline? `entries_sent`
// is exactly the broadcast count the unbatched store would have issued,
// so `entries_sent / envelopes_sent` is both the mean batch occupancy
// and the broadcast-reduction factor.
//
// The recovery counters answer the subsystem's two questions: how much
// log did store-level stability fold (gc_*, stability_floor_lag — the
// unstable window a snapshot would have to ship), and how much did a
// catch-up actually transfer (catchup_* / snapshot_*) versus the full
// history a log-replay rejoin would replay.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/sim_network.hpp"
#include "store/shard.hpp"
#include "util/table.hpp"

namespace ucw {

struct StoreStats {
  std::uint64_t local_updates = 0;
  std::uint64_t remote_entries = 0;   ///< keyed updates applied on delivery
  std::uint64_t duplicate_entries = 0;  ///< of those, log-absorbed replays
  std::uint64_t queries = 0;

  // -- the pooled read path (ThreadUcStore::get()). Together they split
  //    every get() by how it was answered; `queries` above counts the
  //    reads that reached an engine (query() calls plus the ring_reads
  //    fallbacks), so published_reads is exactly the engine work the
  //    seqlock views absorbed.
  std::uint64_t published_reads = 0;  ///< answered from a seqlock view,
                                      ///< no ring enqueue at all
  std::uint64_t ring_reads = 0;       ///< get() fell back to a ring
                                      ///< round trip (cold key/racing
                                      ///< publisher); promotes the key

  // -- single-node saturation (pooled ThreadUcStore hot paths).
  /// Remote entries shipped straight into worker remote inboxes by the
  /// sharded delivery path (no router lock).
  std::uint64_t inbox_deliveries = 0;
  /// Producer-side multi-slot ring claims (one CAS covering >1 op) and
  /// the logical ops they carried — update_batch's per-worker groups.
  /// ring_batch_ops / ring_batch_claims is the mean ops amortized per
  /// CAS; singles (plain update()) pay one CAS each on top of these.
  std::uint64_t ring_batch_claims = 0;
  std::uint64_t ring_batch_ops = 0;
  /// get()s answered from the immutable shared snapshot — zero state
  /// copies (a subset split-out of published_reads; equal to it unless
  /// a future read path copies).
  std::uint64_t zero_copy_reads = 0;
  /// get()s that took the ring because the caller's own last write to
  /// the owning worker was not yet applied (read-your-writes fallback).
  std::uint64_t ryw_ring_fallbacks = 0;
  /// Pool idle policy (worker_pool.hpp): times a worker parked, and
  /// producer-side notifies that woke a parked one. Plain updates wake
  /// a worker only once a flush window is waiting, so on a busy pool
  /// wakes stay near updates / batch_window.
  std::uint64_t worker_parks = 0;
  std::uint64_t worker_wakes = 0;
  std::uint64_t envelopes_sent = 0;   ///< reliable broadcasts issued
  std::uint64_t entries_sent = 0;     ///< keyed updates those carried
  std::uint64_t flushes_full = 0;     ///< batch window filled
  std::uint64_t flushes_manual = 0;   ///< explicit flush()/tick
  std::uint64_t bytes_batched = 0;    ///< est. wire bytes actually sent
  std::uint64_t bytes_unbatched = 0;  ///< est. bytes one-per-update would cost

  // -- crash accounting (crash-stop: buffered updates die, uncounted
  //    above — nothing hit the wire, nothing double-counts on restart).
  std::uint64_t envelopes_dropped_crash = 0;
  std::uint64_t entries_dropped_crash = 0;
  /// Ack heartbeats a crashed sender would have shipped — dropped like
  /// the flush path (and the seq is not consumed), so a restarted
  /// incarnation's stream starts clean on the heartbeat path too.
  std::uint64_t acks_dropped_crash = 0;

  // -- store-level stability / GC.
  std::uint64_t gc_runs = 0;          ///< sweeps that folded something
  std::uint64_t gc_folded = 0;        ///< log entries folded, all keys
  std::uint64_t acks_sent = 0;        ///< ack heartbeats (no entries)
  LogicalTime stability_floor = 0;    ///< last pushed-down fold floor
  LogicalTime stability_floor_lag = 0;  ///< own clock − floor (unstable window)

  // -- catch-up / snapshot shipping.
  std::uint64_t sync_requests_sent = 0;
  std::uint64_t sync_requests_served = 0;
  std::uint64_t sync_retries = 0;       ///< gap or stall re-requests
  std::uint64_t syncs_completed = 0;    ///< sessions verified + retired
  std::uint64_t snapshots_served = 0;   ///< ShardSnapshots shipped out
  std::uint64_t snapshots_installed = 0;
  std::uint64_t snapshot_entries_served = 0;  ///< suffix entries shipped
  /// Est. wire bytes of served snapshots (bases sized by live-state
  /// element count + suffixes) — the transfer cost of playing donor.
  std::uint64_t snapshot_bytes_served = 0;
  /// Key installs that raised a per-key floor — cumulative across sync
  /// rounds, so a key re-shipped by a retry counts again (this measures
  /// transfer volume, not distinct keys; it can exceed the keyspace).
  std::uint64_t catchup_keys = 0;
  std::uint64_t catchup_entries = 0;  ///< suffix entries replayed on install
  /// Keyed snapshots shipped while playing donor (catch-up + AE), and
  /// how many live keys the delta codec *skipped* as clean — together
  /// they are the incremental-snapshot win: skipped / (served + skipped)
  /// of the keyspace never hit the wire on retries and AE rounds.
  std::uint64_t snapshot_keys_served = 0;
  std::uint64_t snapshot_keys_skipped_delta = 0;

  // -- partitions / anti-entropy. A drop-mode partition discards
  //    cross-group envelopes, so a sender's (epoch, seq) stream grows a
  //    gap at the receiver; gapped streams stop feeding the stability
  //    floor (their acks no longer prove FIFO coverage) until a heal-
  //    time anti-entropy round re-proves coverage and ships the missing
  //    state as delta snapshots.
  std::uint64_t stream_gaps_detected = 0;  ///< intact→gapped transitions
  std::uint64_t ae_rounds_started = 0;     ///< anti_entropy_round() calls
  std::uint64_t ae_rounds_served = 0;      ///< requests served as donor
  std::uint64_t ae_rounds_completed = 0;   ///< full delta batch installed
  std::uint64_t ae_snapshots_installed = 0;
  std::uint64_t ae_entries_installed = 0;  ///< suffix entries via AE
  std::uint64_t ae_entries_served = 0;     ///< suffix entries shipped as donor
  std::uint64_t ae_bytes_served = 0;       ///< est. wire bytes, AE serves
  /// Suffix entries a donor did NOT ship because the requester's AE
  /// request carried stability rows proving it received them live
  /// (coverage summaries on the wire — entry-level dedup on top of the
  /// per-key delta codec).
  std::uint64_t ae_entries_skipped_covered = 0;

  /// Mean keyed updates per envelope (== broadcast-reduction factor).
  [[nodiscard]] double batch_occupancy() const {
    return envelopes_sent == 0
               ? 0.0
               : static_cast<double>(entries_sent) /
                     static_cast<double>(envelopes_sent);
  }

  /// Fraction of the unbatched wire bytes that batching avoided.
  [[nodiscard]] double bytes_saved_ratio() const {
    return bytes_unbatched == 0
               ? 0.0
               : 1.0 - static_cast<double>(bytes_batched) /
                           static_cast<double>(bytes_unbatched);
  }
};

/// Renders one row per process plus the cluster-wide network totals, in
/// the house table format the bench binaries use.
inline void print_store_table(std::ostream& os,
                              const std::vector<StoreStats>& per_process,
                              const NetworkStats& net) {
  TextTable t({"process", "updates", "queries", "pub reads", "ring reads",
               "envelopes", "entries", "occupancy", "bytes sent (est)",
               "bytes saved"});
  // Signed: an envelope carrying a single entry costs a few bytes *more*
  // than a bare message (the header fields), so low-occupancy rows go
  // slightly negative instead of wrapping.
  const auto saved = [](const StoreStats& s) {
    return static_cast<std::int64_t>(s.bytes_unbatched) -
           static_cast<std::int64_t>(s.bytes_batched);
  };
  StoreStats total;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    const StoreStats& s = per_process[p];
    t.add(p, s.local_updates, s.queries, s.published_reads, s.ring_reads,
          s.envelopes_sent, s.entries_sent, s.batch_occupancy(),
          s.bytes_batched, saved(s));
    total.local_updates += s.local_updates;
    total.queries += s.queries;
    total.published_reads += s.published_reads;
    total.ring_reads += s.ring_reads;
    total.envelopes_sent += s.envelopes_sent;
    total.entries_sent += s.entries_sent;
    total.bytes_batched += s.bytes_batched;
    total.bytes_unbatched += s.bytes_unbatched;
  }
  t.add("total", total.local_updates, total.queries, total.published_reads,
        total.ring_reads, total.envelopes_sent, total.entries_sent,
        total.batch_occupancy(), total.bytes_batched, saved(total));
  t.print(os);
  os << "network: " << net.broadcasts << " broadcasts, "
     << net.messages_sent << " p2p messages, " << net.messages_delivered
     << " delivered, " << net.messages_duplicated << " duplicated, "
     << net.restarts << " restarts\n";
}

/// One line of cluster-wide single-node-saturation counters: remote
/// entries delivered into sharded inboxes, how well ring CAS claims
/// amortized, how the read path split between zero-copy snapshots and
/// read-your-writes fallbacks, and how often pool workers parked and
/// were woken. Printed by print_observability whenever any of them is
/// nonzero.
inline void print_saturation_line(
    std::ostream& os, const std::vector<StoreStats>& per_process) {
  StoreStats t;
  for (const StoreStats& s : per_process) {
    t.inbox_deliveries += s.inbox_deliveries;
    t.ring_batch_claims += s.ring_batch_claims;
    t.ring_batch_ops += s.ring_batch_ops;
    t.zero_copy_reads += s.zero_copy_reads;
    t.ryw_ring_fallbacks += s.ryw_ring_fallbacks;
    t.worker_parks += s.worker_parks;
    t.worker_wakes += s.worker_wakes;
  }
  if (t.inbox_deliveries + t.ring_batch_claims + t.zero_copy_reads +
          t.ryw_ring_fallbacks + t.worker_parks + t.worker_wakes ==
      0) {
    return;
  }
  const double ops_per_claim =
      t.ring_batch_claims == 0
          ? 0.0
          : static_cast<double>(t.ring_batch_ops) /
                static_cast<double>(t.ring_batch_claims);
  os << "saturation: " << t.inbox_deliveries << " inbox deliveries, "
     << t.ring_batch_claims << " batch claims (" << ops_per_claim
     << " ops/claim), " << t.zero_copy_reads << " zero-copy reads, "
     << t.ryw_ring_fallbacks << " ryw fallbacks, " << t.worker_parks
     << " worker parks, " << t.worker_wakes << " worker wakes\n";
}

/// One row per process of recovery activity: GC folds, the stability
/// floor and its lag (the unstable window), ack heartbeats, and the
/// catch-up traffic in both roles (donor / joiner).
inline void print_recovery_table(
    std::ostream& os, const std::vector<StoreStats>& per_process) {
  TextTable t({"process", "gc folded", "floor", "floor lag", "acks",
               "acks drop", "sync req", "sync served", "retries",
               "snaps out", "snap bytes", "snaps in", "catchup keys",
               "catchup entries", "dropped@crash"});
  StoreStats total;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    const StoreStats& s = per_process[p];
    t.add(p, s.gc_folded, s.stability_floor, s.stability_floor_lag,
          s.acks_sent, s.acks_dropped_crash, s.sync_requests_sent,
          s.sync_requests_served, s.sync_retries, s.snapshots_served,
          s.snapshot_bytes_served, s.snapshots_installed, s.catchup_keys,
          s.catchup_entries, s.entries_dropped_crash);
    total.gc_folded += s.gc_folded;
    total.acks_sent += s.acks_sent;
    total.acks_dropped_crash += s.acks_dropped_crash;
    total.sync_requests_sent += s.sync_requests_sent;
    total.sync_requests_served += s.sync_requests_served;
    total.sync_retries += s.sync_retries;
    total.snapshots_served += s.snapshots_served;
    total.snapshot_bytes_served += s.snapshot_bytes_served;
    total.snapshots_installed += s.snapshots_installed;
    total.catchup_keys += s.catchup_keys;
    total.catchup_entries += s.catchup_entries;
    total.entries_dropped_crash += s.entries_dropped_crash;
  }
  t.add("total", total.gc_folded, "-", "-", total.acks_sent,
        total.acks_dropped_crash, total.sync_requests_sent,
        total.sync_requests_served, total.sync_retries,
        total.snapshots_served, total.snapshot_bytes_served,
        total.snapshots_installed, total.catchup_keys,
        total.catchup_entries, total.entries_dropped_crash);
  t.print(os);
}

/// One row per process of partition/anti-entropy activity: stream gaps
/// observed, AE rounds in both roles, and the delta-codec economics
/// (keys shipped vs skipped as clean, entries and bytes served).
inline void print_anti_entropy_table(
    std::ostream& os, const std::vector<StoreStats>& per_process) {
  TextTable t({"process", "gaps", "ae started", "ae served", "ae done",
               "ae snaps in", "ae entries in", "ae entries out",
               "ae skip covered", "ae bytes out", "keys served",
               "keys skipped"});
  StoreStats total;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    const StoreStats& s = per_process[p];
    t.add(p, s.stream_gaps_detected, s.ae_rounds_started, s.ae_rounds_served,
          s.ae_rounds_completed, s.ae_snapshots_installed,
          s.ae_entries_installed, s.ae_entries_served,
          s.ae_entries_skipped_covered, s.ae_bytes_served,
          s.snapshot_keys_served, s.snapshot_keys_skipped_delta);
    total.stream_gaps_detected += s.stream_gaps_detected;
    total.ae_rounds_started += s.ae_rounds_started;
    total.ae_rounds_served += s.ae_rounds_served;
    total.ae_rounds_completed += s.ae_rounds_completed;
    total.ae_snapshots_installed += s.ae_snapshots_installed;
    total.ae_entries_installed += s.ae_entries_installed;
    total.ae_entries_served += s.ae_entries_served;
    total.ae_entries_skipped_covered += s.ae_entries_skipped_covered;
    total.ae_bytes_served += s.ae_bytes_served;
    total.snapshot_keys_served += s.snapshot_keys_served;
    total.snapshot_keys_skipped_delta += s.snapshot_keys_skipped_delta;
  }
  t.add("total", total.stream_gaps_detected, total.ae_rounds_started,
        total.ae_rounds_served, total.ae_rounds_completed,
        total.ae_snapshots_installed, total.ae_entries_installed,
        total.ae_entries_served, total.ae_entries_skipped_covered,
        total.ae_bytes_served, total.snapshot_keys_served,
        total.snapshot_keys_skipped_delta);
  t.print(os);
}

/// Folds one flush-owner's accounting (a pool worker's slice) into an
/// aggregate — exactly the counters flush_engines/heartbeats charge,
/// plus the GC fold counters a pooled store's workers charge when the
/// router hands them the floor (StoreWorkerPool::gc_all).
inline void merge_wire_counters(StoreStats& into, const StoreStats& slice) {
  into.envelopes_sent += slice.envelopes_sent;
  into.entries_sent += slice.entries_sent;
  into.flushes_full += slice.flushes_full;
  into.flushes_manual += slice.flushes_manual;
  into.bytes_batched += slice.bytes_batched;
  into.bytes_unbatched += slice.bytes_unbatched;
  into.envelopes_dropped_crash += slice.envelopes_dropped_crash;
  into.entries_dropped_crash += slice.entries_dropped_crash;
  into.acks_sent += slice.acks_sent;
  into.acks_dropped_crash += slice.acks_dropped_crash;
  into.gc_runs += slice.gc_runs;
  into.gc_folded += slice.gc_folded;
}

/// Renders one row per shard plus a totals row, matching the table style
/// of the bench binaries.
inline void print_shard_table(std::ostream& os,
                              const std::vector<ShardStats>& shards) {
  TextTable t({"shard", "keys", "views", "local", "remote", "dup",
               "queries", "log entries", "gc folded", "snap out", "snap in",
               "~bytes"});
  ShardStats total;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& s = shards[i];
    t.add(i, s.keys_live, s.published_keys, s.local_updates,
          s.remote_updates, s.duplicate_updates, s.queries, s.log_entries,
          s.gc_folded, s.snapshots_exported, s.snapshots_installed,
          s.approx_bytes);
    total.keys_live += s.keys_live;
    total.published_keys += s.published_keys;
    total.local_updates += s.local_updates;
    total.remote_updates += s.remote_updates;
    total.duplicate_updates += s.duplicate_updates;
    total.queries += s.queries;
    total.log_entries += s.log_entries;
    total.gc_folded += s.gc_folded;
    total.snapshots_exported += s.snapshots_exported;
    total.snapshots_installed += s.snapshots_installed;
    total.approx_bytes += s.approx_bytes;
  }
  t.add("total", total.keys_live, total.published_keys,
        total.local_updates, total.remote_updates, total.duplicate_updates,
        total.queries, total.log_entries, total.gc_folded,
        total.snapshots_exported, total.snapshots_installed,
        total.approx_bytes);
  t.print(os);
}

}  // namespace ucw
