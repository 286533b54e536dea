// The benchmark's own arithmetic: percentile summaries, failed-op
// accounting and per-kind wire byte attribution. Kept free of sockets
// and threads so perfbench/tests/bench_stats_test.cpp can pin it down.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "clock/timestamp.hpp"
#include "store/envelope.hpp"

namespace perfbench {

// ----- percentiles -------------------------------------------------------

/// Tail levels a timing may report, highest first. The tail of a sample
/// is the highest of these with at least kMinBeyond samples above it, so
/// a small sample never reports a percentile it cannot support.
inline constexpr std::array<double, 4> kTailLevels = {99.0, 90.0, 75.0,
                                                      50.0};
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index of percentile `pct` in `n` sorted samples (n > 0).
inline std::size_t rank_index(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
  return std::min(r, n) - 1;
}

/// Samples strictly above the nearest-rank position of `pct`.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - (rank_index(n, pct) + 1);
}

/// The highest level in kTailLevels with >= kMinBeyond samples beyond
/// it; 100 (= the maximum) when even the median is unsupported.
inline double tail_level(std::size_t n) {
  for (const double level : kTailLevels) {
    if (samples_beyond(n, level) >= kMinBeyond) return level;
  }
  return 100.0;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;      ///< value at tail_pct
  double tail_pct = 0.0;  ///< the level tail reports (see tail_level)
};

/// Sorts `v` in place and summarizes it; all zeros when empty.
inline Summary summarize(std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = v[rank_index(v.size(), 50.0)];
  s.tail_pct = tail_level(v.size());
  s.tail = s.tail_pct >= 100.0 ? v.back() : v[rank_index(v.size(), s.tail_pct)];
  return s;
}

/// Median of a small set of repeated measurements.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Samples per window of windowed_tail(), and the most windows a run
/// is split into.
inline constexpr std::size_t kWindowSamples = 1000;
inline constexpr std::size_t kMaxWindows = 200;

/// The tail of a run, steadied against a single stall: `v` (in the
/// order the samples were taken) is cut into up to kMaxWindows
/// consecutive windows of at least kWindowSamples each, and the result
/// is the median of the windows' tails. With fewer than two windows'
/// worth of samples it is summarize()'s tail of the whole sample, so
/// the level is also summarize()'s.
inline double windowed_tail(const std::vector<double>& v) {
  const std::size_t windows = std::min(kMaxWindows, v.size() / kWindowSamples);
  if (windows < 2) {
    std::vector<double> all = v;
    return summarize(all).tail;
  }
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> part(
        v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / windows),
        v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / windows));
    tails.push_back(summarize(part).tail);
  }
  return median(tails);
}

// ----- failed-op accounting ---------------------------------------------

/// Attempted and failed operations of one run, summed over op classes
/// (updates, probes, reads, scenarios). Every failure a correctness
/// check finds lands here, so failed_op_share = failed / attempted.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += std::min(failed_ops, attempted_ops);
  }
  [[nodiscard]] double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// What every replica must hold for each key after drain: the value of
/// the write with the largest stamp (register arbitration is
/// last-writer-wins in stamp order). A replica that holds anything else
/// is missing that write, or holds one that should have lost.
struct ExpectedState {
  explicit ExpectedState(std::size_t keys)
      : stamp(keys), value(keys, 0), written(keys, false) {}

  void note(std::size_t key, ucw::Stamp s, std::int64_t v) {
    if (!written[key] || stamp[key] < s) {
      stamp[key] = s;
      value[key] = v;
    }
    written[key] = true;
  }

  /// Keys on which some replica's state differs from the expected
  /// value; each counts as one failed update. `state(replica, key)`
  /// returns the replica's current value of key index `key`.
  template <typename StateFn>
  [[nodiscard]] std::uint64_t wrong_keys(std::size_t replicas,
                                         StateFn state) const {
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < value.size(); ++k) {
      for (std::size_t r = 0; r < replicas; ++r) {
        if (state(r, k) != value[k]) {
          ++bad;
          break;
        }
      }
    }
    return bad;
  }

  std::vector<ucw::Stamp> stamp;
  std::vector<std::int64_t> value;  ///< 0 (the initial state) if unwritten
  std::vector<bool> written;
};

// ----- wire byte attribution --------------------------------------------

/// What a sent envelope is for, as the byte breakdown reports it.
enum class WireKind : std::uint8_t {
  kBatch,      ///< kBatch envelope carrying updates
  kHeartbeat,  ///< kBatch with no entries: the stability ack
  kAe,         ///< anti-entropy request or delta
  kSync,       ///< catch-up request or shard snapshot
};
inline constexpr std::size_t kWireKinds = 4;
inline constexpr std::array<const char*, kWireKinds> kWireKindNames = {
    "batch", "heartbeat", "ae", "sync"};

inline WireKind classify(ucw::EnvelopeKind kind, bool has_entries) {
  switch (kind) {
    case ucw::EnvelopeKind::kBatch:
      return has_entries ? WireKind::kBatch : WireKind::kHeartbeat;
    case ucw::EnvelopeKind::kAntiEntropyRequest:
    case ucw::EnvelopeKind::kAntiEntropyDelta:
      return WireKind::kAe;
    case ucw::EnvelopeKind::kSyncRequest:
    case ucw::EnvelopeKind::kShardSnapshot:
      return WireKind::kSync;
  }
  return WireKind::kSync;
}

/// sendto() bytes per envelope kind. Each transport call's bytes_sent
/// delta is charged to the kind of the envelope that call carried.
struct KindBytes {
  std::array<std::uint64_t, kWireKinds> bytes{};

  void add(WireKind kind, std::uint64_t delta) {
    bytes[static_cast<std::size_t>(kind)] += delta;
  }
  [[nodiscard]] std::uint64_t of(WireKind kind) const {
    return bytes[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t b : bytes) t += b;
    return t;
  }
  KindBytes& operator+=(const KindBytes& o) {
    for (std::size_t i = 0; i < kWireKinds; ++i) bytes[i] += o.bytes[i];
    return *this;
  }
};

/// The attribution is exact only if every byte the transport counted
/// went through an attributed call; the run fails otherwise.
inline bool bytes_reconcile(const KindBytes& kinds,
                            std::uint64_t transport_bytes_sent) {
  return kinds.total() == transport_bytes_sent;
}

}  // namespace perfbench
