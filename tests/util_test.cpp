#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "obs/histogram.hpp"
#include "util/bitset64.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ucw {
namespace {

TEST(Bitset64, BasicSetOperations) {
  Bitset64 b;
  EXPECT_TRUE(b.empty());
  b.set(3);
  b.set(10);
  EXPECT_EQ(b.count(), 2);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(4));
  b.reset(3);
  EXPECT_FALSE(b.test(3));
  EXPECT_EQ(b.count(), 1);
}

TEST(Bitset64, AllAndContains) {
  const auto all5 = Bitset64::all(5);
  EXPECT_EQ(all5.count(), 5);
  EXPECT_TRUE(all5.contains(Bitset64::single(4)));
  EXPECT_FALSE(all5.contains(Bitset64::single(5)));
  EXPECT_TRUE(all5.contains(Bitset64{}));
  EXPECT_EQ(Bitset64::all(64).count(), 64);
}

TEST(Bitset64, SetAlgebra) {
  Bitset64 a = Bitset64::single(1) | Bitset64::single(3);
  Bitset64 b = Bitset64::single(3) | Bitset64::single(5);
  EXPECT_EQ((a & b), Bitset64::single(3));
  EXPECT_EQ(a.minus(b), Bitset64::single(1));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.minus(b).intersects(b));
}

TEST(Bitset64, ForEachVisitsAscending) {
  Bitset64 b;
  b.set(0);
  b.set(7);
  b.set(63);
  std::vector<unsigned> seen;
  b.for_each([&](unsigned i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<unsigned>{0, 7, 63}));
  EXPECT_EQ(b.lowest(), 0u);
}

TEST(Bitset64, SubmaskEnumerationCoversPowerset) {
  const Bitset64 mask = Bitset64::all(4);
  std::set<std::uint64_t> seen;
  Bitset64 sub;
  while (true) {
    seen.insert(sub.raw());
    if (sub == mask) break;
    sub = Bitset64((sub.raw() - mask.raw()) & mask.raw());
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Hash, CompositeTypesHashConsistently) {
  const std::set<int> s1{1, 2, 3};
  const std::set<int> s2{1, 2, 3};
  EXPECT_EQ(hash_value(s1), hash_value(s2));
  const std::vector<int> v1{1, 2};
  const std::vector<int> v2{2, 1};
  EXPECT_NE(hash_value(v1), hash_value(v2));
  const std::pair<int, std::string> p{1, "a"};
  EXPECT_EQ(hash_value(p), hash_value(std::pair<int, std::string>{1, "a"}));
}

TEST(Hash, EmptyContainersDiffer) {
  // Not a strict requirement, but the seeds keep common cases apart.
  EXPECT_NE(hash_value(std::set<int>{}), hash_value(std::set<int>{0}));
  EXPECT_NE(hash_value(std::vector<int>{}), hash_value(std::vector<int>{0}));
}

TEST(Rng, DeterministicReplay) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkByNameIsStable) {
  Rng root(7);
  EXPECT_EQ(root.fork("latency").uniform_int(0, 1 << 30),
            root.fork("latency").uniform_int(0, 1 << 30));
  EXPECT_NE(root.fork("latency").seed(), root.fork("workload").seed());
}

TEST(Rng, DistributionsInRange) {
  Rng r(3);
  for (int i = 0; i < 200; ++i) {
    const double u = r.uniform_real(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
    EXPECT_GT(r.exponential(4.0), 0.0);
    EXPECT_GE(r.pareto(1.0, 2.0), 1.0);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(11);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(r.weighted_index(w), 1u);
  }
}

TEST(Stats, MomentsAndPercentiles) {
  obs::LatencySummary acc;
  for (int i = 1; i <= 100; ++i) acc.add(i);
  EXPECT_EQ(acc.count(), 100u);
  EXPECT_DOUBLE_EQ(acc.mean(), 50.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 100.0);
  EXPECT_NEAR(acc.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(acc.percentile(99), 99.01, 0.1);
  EXPECT_NEAR(acc.stddev(), 28.866, 0.01);
}

TEST(Stats, MergeCombinesSamples) {
  obs::LatencySummary a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Stats, EmptyThrowsOnMoments) {
  obs::LatencySummary acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_THROW((void)acc.mean(), contract_error);
  EXPECT_EQ(acc.summary(), "n=0");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",       "--n=5",     "--rate", "0.5",
                        "positional", "--verbose", "--benchmark_filter=x"};
  Flags f = Flags::parse(7, const_cast<char**>(argv));
  EXPECT_EQ(f.get_int("n", 0), 5);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.5);
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.has("benchmark_filter"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
}

TEST(Assert, CheckThrowsContractError) {
  EXPECT_THROW(UCW_CHECK(false), contract_error);
  EXPECT_NO_THROW(UCW_CHECK(true));
}

}  // namespace
}  // namespace ucw
