// Low-overhead event tracing: bounded lock-free rings of typed events.
//
// A Tracer owns one ring per *track* — track 0 is the router/client
// track of a process, tracks 1..W its worker threads — and every hook
// in the store is a single `record()` call: read the clock, bump the
// ring head, write one POD slot. The ring is the overwriting cousin of
// `util/mpsc_ring.hpp`: same power-of-two indexing and cache-aligned
// head counter, but instead of back-pressure a full ring silently
// overwrites its oldest slot and counts the loss. Tracing must never
// block a worker; dropping the oldest history is the correct failure
// mode for a flight recorder.
//
// Multi-writer safety: `head_.fetch_add` gives each writer a private
// slot, so concurrent writers (client threads stamping on track 0)
// never contend beyond the fetch_add. Two writers hit the *same* slot
// only when one laps the other by a full ring — a torn event is
// possible then; the exporter's span-pairing pass drops any fallout.
//
// Tracers are owned by the caller (harness / example / bench), not the
// store: a restarted store incarnation keeps appending to the same
// per-process tracks, so a crash–recover timeline stays in one trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace ucw::obs {

/// Everything the store layer can put on a timeline. Names (see
/// `trace_event_name`) are the strings that appear in chrome://tracing
/// and that `tools/check_trace.py --require` matches on.
enum class TraceEventKind : std::uint8_t {
  // Life of an update.
  kUpdateStamp,    // client draws a Lamport stamp (+ MPSC enqueue, pooled)
  kApplyLocal,     // a shard engine applies a local update
  kBatchFlush,     // span: assemble + broadcast one batch envelope
  kDeliver,        // a batch envelope arrives from a peer
  kApplyRemote,    // a shard engine applies a remote entry
  kAckHeartbeat,   // stability ack broadcast
  kGcFold,         // span: stability fold / log GC sweep
  // Recovery.
  kSyncRequest,    // restarted process asks a peer for state
  kSyncServe,      // donor serves a sync request
  kSnapshotInstall,  // recovering process installs one shard snapshot
  // Anti-entropy.
  kAeRequest,      // pull request sent to a peer
  kAeServe,        // peer serves a delta
  kAeInstall,      // one anti-entropy shard delta installed
  kAeAdopt,        // a full anti-entropy round completed
  // Partitions (recorded by SimNetwork).
  kPartitionCut,   // drop-mode partition imposed
  kPartitionDrop,  // a message was dropped at a partition boundary
  kPartitionHeal,  // partition healed
  // Derived gauges, sampled on the flush tick (counter-phase events).
  kFloorLag,         // local clock − stability floor
  kReplicationLag,   // p99 of origin-stamp→local-apply lag so far
  kViewStaleness,    // local clock − oldest engine's last applied stamp
};

[[nodiscard]] const char* trace_event_name(TraceEventKind kind);

/// Chrome trace_event phases we emit: B/E span pairs, thread-scoped
/// instants, and counters.
enum class TracePhase : std::uint8_t { kBegin, kEnd, kInstant, kCounter };

/// One POD slot. `a`/`b` are event-specific payloads (documented per
/// hook; typically a Lamport clock, peer pid, or entry count) exported
/// as JSON args.
struct TraceEvent {
  double ts_us = 0.0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  TraceEventKind kind{};
  TracePhase phase{};
  std::uint16_t track = 0;
};

/// Overwriting multi-writer ring. Push never blocks and never fails;
/// once `recorded() > capacity()` the oldest events have been lost and
/// `dropped()` says how many. Snapshot is meant for quiesced reads
/// (export after a run); during concurrent writes it may observe torn
/// slots, which the exporter tolerates.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_pow2 = 1 << 14)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {
    UCW_CHECK_MSG(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
                  "TraceRing capacity must be a power of two >= 2");
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void push(const TraceEvent& e) {
    const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
    buf_[i & mask_] = e;
  }

  /// Total events ever pushed.
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Events lost to overwriting (oldest-first).
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > buf_.size() ? n - buf_.size() : 0;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// The surviving events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

/// Time source for a tracer: returns "now" in microseconds. A plain
/// function pointer + context so a hook costs one indirect call, and so
/// the sim harness can point it at the scheduler's virtual clock.
using TraceNowFn = double (*)(void* ctx);

/// Per-process trace sink: pid + one ring per track + a clock.
class Tracer {
 public:
  /// `tracks` = 1 (router only) + worker count for pooled stores.
  /// Default clock is wall time (steady, µs since first tracer).
  explicit Tracer(std::uint32_t pid, std::size_t tracks = 1,
                  std::size_t ring_capacity_pow2 = 1 << 14,
                  TraceNowFn now = nullptr, void* now_ctx = nullptr);

  [[nodiscard]] double now_us() const {
    if (now_ != nullptr) return now_(now_ctx_);
    return default_now_us();
  }

  void record(std::uint16_t track, TraceEventKind kind, TracePhase phase,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    TraceEvent e;
    e.ts_us = now_us();
    e.a = a;
    e.b = b;
    e.kind = kind;
    e.phase = phase;
    e.track = track < rings_.size() ? track : std::uint16_t{0};
    rings_[e.track]->push(e);
  }

  void begin(std::uint16_t track, TraceEventKind kind, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    record(track, kind, TracePhase::kBegin, a, b);
  }
  void end(std::uint16_t track, TraceEventKind kind, std::uint64_t a = 0,
           std::uint64_t b = 0) {
    record(track, kind, TracePhase::kEnd, a, b);
  }
  void instant(std::uint16_t track, TraceEventKind kind, std::uint64_t a = 0,
               std::uint64_t b = 0) {
    record(track, kind, TracePhase::kInstant, a, b);
  }
  void counter(std::uint16_t track, TraceEventKind kind, std::uint64_t value) {
    record(track, kind, TracePhase::kCounter, value, 0);
  }

  [[nodiscard]] std::uint32_t pid() const { return pid_; }
  [[nodiscard]] std::size_t tracks() const { return rings_.size(); }
  [[nodiscard]] const TraceRing& ring(std::size_t track) const {
    return *rings_[track];
  }

  /// Total events lost to ring overwrites, across all tracks.
  [[nodiscard]] std::uint64_t dropped_total() const;

 private:
  static double default_now_us();

  std::uint32_t pid_;
  TraceNowFn now_;
  void* now_ctx_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace ucw::obs
