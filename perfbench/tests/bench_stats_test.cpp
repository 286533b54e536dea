// Tests of the benchmark's own arithmetic (bench_stats.hpp).
#include "bench_stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(rank_index(100, 50.0), 49u);
  EXPECT_EQ(rank_index(100, 99.0), 98u);
  EXPECT_EQ(rank_index(1, 99.0), 0u);
  EXPECT_EQ(rank_index(3, 50.0), 1u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // p99 of 1000 samples leaves exactly 10 above it; of 999, only 9.
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(tail_level(1000), 99.0);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(tail_level(999), 90.0);
  EXPECT_EQ(tail_level(100), 90.0);
  EXPECT_EQ(tail_level(99), 75.0);
  EXPECT_EQ(tail_level(40), 75.0);
  EXPECT_EQ(tail_level(39), 50.0);
  EXPECT_EQ(tail_level(20), 50.0);
  EXPECT_EQ(tail_level(19), 100.0);  // not even the median: report the max
  EXPECT_EQ(tail_level(0), 100.0);
}

TEST(Percentile, SummaryReportsSupportedTail) {
  std::vector<double> v = ramp(1000);
  std::reverse(v.begin(), v.end());
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);

  std::vector<double> small = ramp(50);
  const Summary t = summarize(small);
  EXPECT_EQ(t.tail_pct, 75.0);
  EXPECT_EQ(t.tail, 38.0);

  std::vector<double> tiny = ramp(5);
  const Summary u = summarize(tiny);
  EXPECT_EQ(u.tail_pct, 100.0);
  EXPECT_EQ(u.tail, 5.0);

  std::vector<double> none;
  const Summary z = summarize(none);
  EXPECT_EQ(z.n, 0u);
  EXPECT_EQ(z.tail, 0.0);
}

TEST(Percentile, WindowedTailIgnoresOneStalledWindow) {
  // Ten windows of 1000 samples; one window stalls at 1000x.
  std::vector<double> v;
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 3 ? 1000.0 * i : i);
  }
  EXPECT_EQ(windowed_tail(v), 990.0);  // every quiet window's p99
  std::vector<double> whole = v;
  EXPECT_GT(summarize(whole).tail, 990.0);  // the plain p99 sees the stall

  // Under two windows' worth of samples it is the plain tail.
  std::vector<double> small = ramp(1999);
  std::vector<double> copy = small;
  EXPECT_EQ(windowed_tail(small), summarize(copy).tail);
  EXPECT_EQ(windowed_tail({}), 0.0);

  // Never more than kMaxWindows windows: 400000 samples make 200 of
  // 2000. Window w has p99 2000w + 1980, and the median of the 200 is
  // the mean of windows 99 and 100.
  std::vector<double> many = ramp(400000);
  EXPECT_EQ(windowed_tail(many), 2000.0 * 99.5 + 1980.0);
}

TEST(Percentile, MedianOfSetups) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(FailedOps, TallyAndShare) {
  OpTally t;
  EXPECT_EQ(t.failed_share(), 0.0);
  t.add(1000, 0);
  t.add(100, 5);
  t.add(10, 50);  // cannot fail more ops than were attempted
  EXPECT_EQ(t.attempted, 1110u);
  EXPECT_EQ(t.failed, 15u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 15.0 / 1110.0);
}

TEST(FailedOps, ExpectedStateIsTheLargestStamp) {
  ExpectedState e(3);
  e.note(0, ucw::Stamp{5, 1}, 50);
  e.note(0, ucw::Stamp{4, 2}, 40);  // smaller clock loses, whatever order
  e.note(0, ucw::Stamp{5, 2}, 52);  // equal clock: larger pid wins
  e.note(1, ucw::Stamp{1, 0}, 10);
  EXPECT_EQ(e.value[0], 52);
  EXPECT_EQ(e.value[1], 10);
  EXPECT_EQ(e.value[2], 0);  // never written: the initial state

  const std::vector<std::vector<std::int64_t>> agree = {{52, 10, 0},
                                                        {52, 10, 0}};
  const auto from = [](const std::vector<std::vector<std::int64_t>>& s) {
    return [&s](std::size_t r, std::size_t k) { return s[r][k]; };
  };
  EXPECT_EQ(e.wrong_keys(2, from(agree)), 0u);
  // Replica 1 misses the winning write of key 0 and holds a stray value
  // for key 2: two failed updates, counted once per key.
  const std::vector<std::vector<std::int64_t>> off = {{52, 10, 0},
                                                      {50, 10, 7}};
  EXPECT_EQ(e.wrong_keys(2, from(off)), 2u);
  // Both replicas wrong on the same key still count that key once.
  const std::vector<std::vector<std::int64_t>> both = {{40, 10, 0},
                                                       {50, 10, 0}};
  EXPECT_EQ(e.wrong_keys(2, from(both)), 1u);
}

TEST(WireBytes, Classification) {
  EXPECT_EQ(classify(ucw::EnvelopeKind::kBatch, true), WireKind::kBatch);
  EXPECT_EQ(classify(ucw::EnvelopeKind::kBatch, false), WireKind::kHeartbeat);
  EXPECT_EQ(classify(ucw::EnvelopeKind::kAntiEntropyRequest, false),
            WireKind::kAe);
  EXPECT_EQ(classify(ucw::EnvelopeKind::kAntiEntropyDelta, false),
            WireKind::kAe);
  EXPECT_EQ(classify(ucw::EnvelopeKind::kSyncRequest, false), WireKind::kSync);
  EXPECT_EQ(classify(ucw::EnvelopeKind::kShardSnapshot, false),
            WireKind::kSync);
}

TEST(WireBytes, PerKindSumsMustMatchTheTransport) {
  KindBytes a;
  a.add(WireKind::kBatch, 120);
  a.add(WireKind::kHeartbeat, 40);
  a.add(WireKind::kAe, 300);
  a.add(WireKind::kBatch, 80);
  EXPECT_EQ(a.of(WireKind::kBatch), 200u);
  EXPECT_EQ(a.total(), 540u);
  EXPECT_TRUE(bytes_reconcile(a, 540));
  EXPECT_FALSE(bytes_reconcile(a, 541));  // a byte sent outside any call
  EXPECT_FALSE(bytes_reconcile(a, 539));

  KindBytes b;
  b.add(WireKind::kSync, 60);
  a += b;
  EXPECT_EQ(a.of(WireKind::kSync), 60u);
  EXPECT_TRUE(bytes_reconcile(a, 600));
}

}  // namespace
}  // namespace perfbench
