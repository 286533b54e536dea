// Multi-producer / single-consumer lock-free ring buffer.
//
// The handoff between N client threads of a pooled store (producers:
// any thread may stamp an update and route it, and the router fans
// remote entries in from whichever thread holds the router lock) and
// one worker thread (the single consumer: the owner of a disjoint set
// of shard engines). Bounded capacity, power-of-two indexing,
// try_push back-pressure on the producer side (never on the network
// path), and concurrent producers via per-slot sequence numbers
// (Vyukov's bounded-queue scheme):
//
//   * every slot carries an atomic sequence number; a producer claims
//     slot `pos` by CAS on `head_` only after reading seq == pos
//     ("empty, yours to fill"), writes the value, then publishes
//     seq = pos + 1 ("filled"); the consumer reads under seq == pos + 1
//     and releases with seq = pos + capacity ("empty again, next lap");
//   * FIFO **per producer** is inherent: a producer's successive pushes
//     claim strictly increasing positions (each CAS happens in its
//     program order) and the consumer pops in position order, so one
//     sender's ops are never reordered — this is what keeps the stream
//     guard's FIFO-per-sender reasoning (and read-your-writes through
//     the ring) intact with many client threads. Cross-producer order
//     is whatever the CAS race decides, exactly like the network.
//   * `pushed()` exposes the claim counter — the total number of
//     successful pushes ever — so a quiesce barrier can snapshot it and
//     wait for the consumer's processed count to catch up without any
//     producer-side bookkeeping.
//
// A full ring makes try_push return false (nothing is consumed from the
// argument) and the producer spins/yields; a claimed-but-not-yet-
// published slot briefly head-of-line blocks the consumer, which simply
// sees "empty" until the writer's release store lands.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/assert.hpp"

namespace ucw {

template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity_pow2 = 1024)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {
    UCW_CHECK_MSG(capacity_pow2 >= 2 && (capacity_pow2 & mask_) == 0,
                  "MpscRing capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      buf_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Producer side; safe from any number of threads concurrently.
  /// False when the ring is full (nothing is consumed from `v` in that
  /// case); the producer spins/yields and retries. On success the
  /// claimed position is written through `pos_out` (when non-null):
  /// because the consumer pops strictly in position order and bumps its
  /// processed count once per op, "processed > position" is a precise
  /// this-op-was-consumed test — the ticket behind read-your-writes.
  [[nodiscard]] bool try_push(T&& v, std::uint64_t* pos_out = nullptr) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = buf_[pos & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // Slot is empty for this lap: race other producers for it.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.value = std::move(v);
          s.seq.store(pos + 1, std::memory_order_release);
          if (pos_out != nullptr) *pos_out = pos;
          return true;
        }
        // CAS reloaded `pos`; retry against the new position.
      } else if (dif < 0) {
        // The consumer has not released this slot for the current lap:
        // the ring is full (back-pressure, the caller backs off).
        return false;
      } else {
        // Another producer claimed `pos` already; chase the head.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Batched producer push: claims `n` consecutive slots with ONE CAS
  /// on `head_` and publishes them in position order. All-or-nothing —
  /// false leaves `vals` untouched. Why checking only the LAST slot of
  /// the range suffices: the single consumer releases slots strictly in
  /// position order, so slot `pos + n - 1` being free for this lap
  /// implies every earlier slot of the range is too; and the CAS
  /// excludes other producers from the whole range at once. Per-
  /// producer FIFO is preserved exactly as for single pushes: the
  /// block occupies contiguous positions in the claimer's program
  /// order. `pos_out` (when non-null) receives the FIRST claimed
  /// position; the block spans [pos, pos + n).
  [[nodiscard]] bool try_push_n(T* vals, std::size_t n,
                                std::uint64_t* pos_out = nullptr) {
    if (n == 0) return true;
    if (n == 1) return try_push(std::move(vals[0]), pos_out);
    if (n > buf_.size()) return false;
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& last = buf_[(pos + n - 1) & mask_];
      const std::uint64_t seq = last.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) -
                       static_cast<std::int64_t>(pos + n - 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + n,
                                        std::memory_order_relaxed)) {
          for (std::size_t i = 0; i < n; ++i) {
            Slot& s = buf_[(pos + i) & mask_];
            s.value = std::move(vals[i]);
            s.seq.store(pos + i + 1, std::memory_order_release);
          }
          if (pos_out != nullptr) *pos_out = pos;
          return true;
        }
        // CAS reloaded `pos`; retry against the new position.
      } else if (dif < 0) {
        // Not enough contiguous room this lap: back-pressure.
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side (single thread only). Empty optional when nothing is
  /// ready — including the instant a producer has claimed the next slot
  /// but not yet published it.
  [[nodiscard]] std::optional<T> try_pop() {
    Slot& s = buf_[tail_ & mask_];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(tail_ + 1) < 0) {
      return std::nullopt;
    }
    std::optional<T> v(std::move(s.value));
    s.value = T{};  // drop moved-from payload now, not one lap later
    s.seq.store(tail_ + buf_.size(), std::memory_order_release);
    ++tail_;
    popped_.store(tail_, std::memory_order_release);
    return v;
  }

  /// Block drain (single consumer only): appends up to `max` ready ops
  /// to `out` and returns how many were taken. Stops early at the first
  /// not-yet-published slot, exactly like repeated try_pop, but pays
  /// one `popped_` release store for the whole block.
  [[nodiscard]] std::size_t try_pop_n(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      Slot& s = buf_[tail_ & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(tail_ + 1) < 0) {
        break;
      }
      out.push_back(std::move(s.value));
      s.value = T{};
      s.seq.store(tail_ + buf_.size(), std::memory_order_release);
      ++tail_;
      ++n;
    }
    if (n > 0) popped_.store(tail_, std::memory_order_release);
    return n;
  }

  /// Total successful pushes ever (the claim counter). A quiesce
  /// barrier snapshots this, then waits for the consumer's processed
  /// count to reach it — no per-producer bookkeeping required.
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Racy-but-monotone emptiness hint (either side may call).
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           popped_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Slot> buf_;
  std::size_t mask_;
  // Separate cache lines: producers hammer head_, the consumer tail_.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< producers' claims
  alignas(64) std::uint64_t tail_ = 0;              ///< consumer-owned
  alignas(64) std::atomic<std::uint64_t> popped_{0};  ///< tail_ mirror
};

}  // namespace ucw
