// Live op-history recorder: the capture half of the audit pipeline.
//
// One OpRecorder per process captures every client-visible operation
// (update invocations with their arbitration stamp, query responses,
// and the post-quiescence "final read" of each key that plays the role
// of the paper's ω-queries) so an *offline* checker can certify update
// consistency from the recorded history alone — black-box, without
// trusting the store's own convergence report.
//
// Capture discipline reuses the src/obs/ ring idea (per-writer
// storage, one atomic cursor, no locks on the hot path) with one twist:
// where the trace ring overwrites its oldest events (newest are the
// interesting ones for a flight recorder), the history recorder drops
// the *newest* records once a ring is full. An audit needs a
// contiguous program-order prefix per thread — a hole in the middle of
// a chain would silently weaken the program order the checker reasons
// over, while a truncated tail is detectable and reported honestly
// (`dropped()`, exported in the JSONL meta line and surfaced as the
// `dropped_history_records` counter; the auditor refuses to certify an
// incomplete history).
//
// A ring's storage grows as records arrive, in geometric segments that
// are allocated uninitialized on their first write and never move, so
// `capacity` is purely the drop-newest cap: a 1<<21-record ring that
// captures 300 records touches memory for 300. A push never relocates
// an earlier record, which matters because pushes run inside store
// update() calls on producer threads.
//
// Like the tracer, the recorder is owned by the caller (harness/test),
// never by the store: stores hold a raw pointer that is null when
// recording is off, so the cost of the feature when unused is one
// branch per operation.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "adt/concepts.hpp"
#include "clock/timestamp.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace ucw::audit {

enum class OpKind : std::uint8_t {
  kUpdate = 0,    ///< update invocation, stamped
  kQuery = 1,     ///< mid-run query response (does not constrain UC)
  kFinalRead = 2  ///< post-quiescence read — the ω-observation
};

/// One invocation/response record. `thread` is the client thread's
/// producer slot (0 for single-threaded frontends), which together
/// with `pid` names the program-order chain the op belongs to.
template <UqAdt A, typename Key = std::string>
struct OpRecord {
  OpKind kind = OpKind::kUpdate;
  ProcessId pid = 0;
  std::uint32_t thread = 0;
  Key key{};
  /// Updates: the arbitration stamp. Queries: local clock at response
  /// (clock only; pid mirrors the recorder's process).
  Stamp stamp{};
  typename A::Update update{};   ///< valid iff kind == kUpdate
  typename A::QueryOut out{};    ///< valid iff kind != kUpdate
  double ts = 0.0;               ///< wall/virtual time (µs)
};

/// Per-process history recorder: one single-writer ring per client
/// thread plus an unbounded (harness-thread-only) list for final
/// reads. Thread-safe for its intended sharing: thread t writes only
/// ring t, counters are relaxed atomics, aggregation happens after the
/// run quiesces.
template <UqAdt A, typename Key = std::string>
class OpRecorder {
 public:
  using Record = OpRecord<A, Key>;

  /// Records in a ring's first storage segment; segment k holds
  /// kFirstSegment << k records.
  static constexpr std::size_t kFirstSegment = 64;
  /// `threads` rings that each keep at most `capacity` records; storage
  /// is allocated as records arrive. `now`/`now_ctx` follow the
  /// tracer's injected-clock convention (virtual time under the DES,
  /// wall time in thread runs; null = all timestamps zero).
  OpRecorder(ProcessId pid, std::size_t threads, std::size_t capacity,
             obs::TraceNowFn now = nullptr, void* now_ctx = nullptr)
      : pid_(pid), capacity_(capacity), now_(now), now_ctx_(now_ctx) {
    UCW_CHECK(threads > 0 && capacity > 0 && capacity <= kMaxCapacity);
    rings_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      rings_.push_back(std::make_unique<Ring>());
    }
  }

  ~OpRecorder() {
    for (auto& ring : rings_) {
      for_each_kept(*ring, [](Record& r) { std::destroy_at(&r); });
    }
  }

  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;

  [[nodiscard]] ProcessId pid() const { return pid_; }
  [[nodiscard]] std::size_t threads() const { return rings_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void record_update(std::size_t thread, const Key& key, const Stamp& stamp,
                     const typename A::Update& u) {
    Record r;
    r.kind = OpKind::kUpdate;
    r.key = key;
    r.stamp = stamp;
    r.update = u;
    push(thread, std::move(r));
  }

  void record_query(std::size_t thread, const Key& key, LogicalTime clock,
                    const typename A::QueryOut& out) {
    Record r;
    r.kind = OpKind::kQuery;
    r.key = key;
    r.stamp = Stamp{clock, pid_};
    r.out = out;
    push(thread, std::move(r));
  }

  /// Records one ω-observation (harness thread, post-quiescence; the
  /// run is over, so these never race the op rings and never drop).
  void record_final_read(const Key& key, const typename A::QueryOut& out) {
    Record r;
    r.kind = OpKind::kFinalRead;
    r.pid = pid_;
    r.key = key;
    r.out = out;
    r.ts = now();
    final_reads_.push_back(std::move(r));
  }

  /// Records captured into rings (excludes final reads, which are
  /// accounted separately and cannot drop).
  [[nodiscard]] std::uint64_t captured() const {
    std::uint64_t n = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t c = ring->count.load(std::memory_order_relaxed);
      n += c < capacity_ ? c : capacity_;
    }
    return n;
  }

  /// Records silently *not* captured because a ring was full — every
  /// one of these makes the exported history untrustworthy for
  /// certification, which is why the count rides the metrics snapshot.
  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t c = ring->count.load(std::memory_order_relaxed);
      if (c > capacity_) n += c - capacity_;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t final_reads_recorded() const {
    return final_reads_.size();
  }

  /// Copies every record out, thread-major (per-thread program order
  /// preserved), final reads last. Call after the run quiesces.
  [[nodiscard]] std::vector<Record> drain() const {
    std::vector<Record> out;
    out.reserve(captured() + final_reads_.size());
    for (std::size_t t = 0; t < rings_.size(); ++t) {
      for_each_kept(*rings_[t], [&](const Record& kept) {
        Record r = kept;
        r.pid = pid_;
        r.thread = static_cast<std::uint32_t>(t);
        out.push_back(std::move(r));
      });
    }
    for (const auto& r : final_reads_) out.push_back(r);
    return out;
  }

 private:
  static constexpr std::size_t kMaxSegments = 64;
  /// Largest accepted capacity; it keeps every segment index below
  /// kMaxSegments and every segment size representable.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 62;

  /// Raw storage for one record: a segment of these is allocated
  /// without initialization, so its pages are faulted in only as
  /// records are constructed into it.
  struct Slot {
    alignas(Record) std::byte bytes[sizeof(Record)];
  };

  struct Ring {
    /// Total push attempts; records [0, min(count, capacity)) are live.
    std::atomic<std::uint64_t> count{0};
    /// Segment k covers records [segment_start(k), segment_start(k+1)),
    /// clipped to the capacity; null until its first record arrives.
    std::array<std::unique_ptr<Slot[]>, kMaxSegments> segments{};
  };

  [[nodiscard]] static std::size_t segment_of(std::uint64_t i) {
    return static_cast<std::size_t>(std::bit_width(i / kFirstSegment + 1)) -
           1;
  }
  [[nodiscard]] static std::uint64_t segment_start(std::size_t k) {
    return kFirstSegment * ((std::uint64_t{1} << k) - 1);
  }
  [[nodiscard]] std::uint64_t segment_size(std::size_t k) const {
    return std::min<std::uint64_t>(std::uint64_t{kFirstSegment} << k,
                                   capacity_ - segment_start(k));
  }
  /// The record already constructed in slot i of `segment`.
  [[nodiscard]] static Record* record_at(Slot* segment, std::uint64_t i) {
    return std::launder(reinterpret_cast<Record*>(segment[i].bytes));
  }

  /// Calls fn on each kept record of `ring`, in push order. Only valid
  /// once the ring's writer has quiesced.
  template <typename Fn>
  void for_each_kept(const Ring& ring, Fn&& fn) const {
    const std::uint64_t c = ring.count.load(std::memory_order_acquire);
    const std::uint64_t kept = c < capacity_ ? c : capacity_;
    for (std::size_t k = 0; segment_start(k) < kept; ++k) {
      const std::uint64_t n =
          std::min(segment_size(k), kept - segment_start(k));
      for (std::uint64_t i = 0; i < n; ++i) {
        fn(*record_at(ring.segments[k].get(), i));
      }
    }
  }

  [[nodiscard]] double now() const { return now_ ? now_(now_ctx_) : 0.0; }

  void push(std::size_t thread, Record r) {
    UCW_DCHECK(thread < rings_.size());
    Ring& ring = *rings_[thread];
    // Single writer per ring: fetch_add is the claim, the slot write
    // needs no further synchronization until the post-run drain (which
    // pairs its acquire with nothing because the threads have joined).
    const std::uint64_t i = ring.count.fetch_add(1, std::memory_order_relaxed);
    if (i >= capacity_) return;  // drop-newest; surfaced via dropped()
    r.ts = now();
    const std::size_t k = segment_of(i);
    std::unique_ptr<Slot[]>& segment = ring.segments[k];
    if (!segment) {
      segment = std::make_unique_for_overwrite<Slot[]>(segment_size(k));
    }
    ::new (static_cast<void*>(segment[i - segment_start(k)].bytes))
        Record(std::move(r));
  }

  ProcessId pid_;
  std::size_t capacity_;
  obs::TraceNowFn now_;
  void* now_ctx_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<Record> final_reads_;
};

}  // namespace ucw::audit
