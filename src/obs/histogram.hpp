// Latency/lag distribution types shared by the whole repo.
//
// Two shapes, one percentile implementation:
//
//  * LatencySummary — exact. Keeps every sample, sorts lazily, reports
//    nearest-rank percentiles with linear interpolation. This is the
//    type behind the bench latency tables; fine at harness sample
//    counts (≤ a few million).
//  * LogHistogram — fixed footprint, wait-free. 65 power-of-two
//    buckets of relaxed atomics, so any thread (workers, the router,
//    clients) can record into one histogram without coordination.
//    Percentiles are bucket-interpolated, i.e. exact to within a
//    factor-of-two bucket. This is what the store's hot hooks record
//    into (replication lag at apply time).
//
// Both live in the obs layer so nothing above util/ reinvents
// percentile math again.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ucw::obs {

/// Exact percentile by nearest-rank with linear interpolation over an
/// already-sorted sample vector; q in [0, 100]. The single percentile
/// implementation everything else delegates to.
[[nodiscard]] double exact_percentile(const std::vector<double>& sorted,
                                      double q);

/// Exact sample accumulator: mean/stddev/min/max/percentile over all
/// recorded samples. Single-threaded; use LogHistogram when multiple
/// threads record concurrently.
class LatencySummary {
 public:
  void add(double sample);
  void merge(const LatencySummary& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Exact percentile by nearest-rank; q in [0, 100].
  [[nodiscard]] double percentile(double q) const;

  /// "n=… mean=… p50=… p99=… max=…" one-liner for logs and tables.
  [[nodiscard]] std::string summary() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// One bucket per bit width of a uint64 value, plus one for zero.
inline constexpr std::size_t kLogBuckets = 65;

/// Plain-value copy of a LogHistogram: the copyable, report-friendly
/// form (the live histogram is atomics and can't be copied). All the
/// derived statistics live here; the live histogram delegates.
struct LogHistogramSnapshot {
  std::array<std::uint64_t, kLogBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const;
  /// Upper bound of the highest non-empty bucket (0 when empty).
  [[nodiscard]] std::uint64_t max_bound() const;
  /// Bucket-interpolated percentile; q in [0, 100]. Exact to within
  /// the power-of-two bucket the rank falls into.
  [[nodiscard]] double percentile(double q) const;
  /// "n=… mean=… p50=… p99=… max≤…" one-liner.
  [[nodiscard]] std::string summary() const;
};

/// Wait-free log-bucketed histogram of non-negative integer values.
/// Bucket b (b ≥ 1) counts values in [2^(b-1), 2^b); bucket 0 counts
/// zeros. All mutation is relaxed atomic increments — safe from any
/// thread, never blocks, and a read during concurrent writes yields a
/// slightly stale but internally plausible snapshot.
class LogHistogram {
 public:
  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  void record(std::uint64_t value);
  void merge(const LogHistogramSnapshot& other);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty() const { return count() == 0; }

  /// Non-atomic copy; all statistics (mean/percentile/max_bound) are
  /// computed on the snapshot.
  [[nodiscard]] LogHistogramSnapshot snapshot() const;

  [[nodiscard]] double percentile(double q) const {
    return snapshot().percentile(q);
  }
  [[nodiscard]] std::string summary() const { return snapshot().summary(); }

 private:
  std::array<std::atomic<std::uint64_t>, kLogBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace ucw::obs
