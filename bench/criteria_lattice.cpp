// E17 — Proposition 2: the criteria lattice SUC ⊊ SEC ∩ UC ⊊ ... ⊊ EC.
//
// Generates a population of random small ω-tailed set histories, runs
// all five checkers on each, and reports (a) the population count of
// every (EC, SEC, PC, UC, SUC) combination observed and (b) the number
// of inclusion violations — the paper proves there must be none:
// SUC ⇒ SEC, SUC ⇒ UC, UC ⇒ EC. The microbenchmarks time the exact
// checkers as history size grows (they are exponential small-model
// deciders; the growth curve is the point).
#include "bench_common.hpp"

#include <map>

#include "criteria/all.hpp"
#include "history/builder.hpp"

namespace {

using namespace ucw;
using S = SetAdt<int>;
using IntSet = std::set<int>;

History<S> random_history(std::uint64_t seed, std::size_t procs,
                          int max_ops, int values) {
  Rng rng(seed);
  HistoryBuilder<S> b{S{}, procs};
  for (ProcessId p = 0; p < procs; ++p) {
    const int n_ops = static_cast<int>(rng.uniform_int(1, max_ops));
    for (int i = 0; i < n_ops; ++i) {
      const int v = static_cast<int>(rng.uniform_int(1, values));
      if (rng.chance(0.55)) {
        b.update(p, rng.chance(0.6) ? S::insert(v) : S::remove(v));
      } else {
        IntSet out;
        for (int x = 1; x <= values; ++x) {
          if (rng.chance(0.4)) out.insert(x);
        }
        b.query(p, S::read(), out);
      }
    }
    IntSet final_out;
    for (int x = 1; x <= values; ++x) {
      if (rng.chance(0.5)) final_out.insert(x);
    }
    b.query_omega(p, S::read(), final_out);
  }
  return b.build();
}

void print_tables() {
  print_banner(std::cout,
               "E17: criteria lattice over 400 random histories "
               "(2 procs, <=3 ops each, values {1,2})");
  std::map<std::string, int> population;
  int violations = 0;
  int unknowns = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const auto h = random_history(seed, 2, 3, 2);
    const auto row = check_all_criteria(h);
    bool any_unknown = false;
    for (Criterion c : kAllCriteria) {
      if (row.get(c).verdict == Verdict::Unknown) any_unknown = true;
    }
    if (any_unknown) {
      ++unknowns;
      continue;
    }
    const auto sc = check_sc(h);
    if (sc.verdict == Verdict::Unknown) {
      ++unknowns;
      continue;
    }
    std::string key;
    for (Criterion c : kAllCriteria) {
      if (row.get(c).yes()) {
        if (!key.empty()) key += "+";
        key += to_string(c);
      }
    }
    if (sc.yes()) key += key.empty() ? "SC" : "+SC";
    if (key.empty()) key = "(none)";
    ++population[key];
    if (row.suc.yes() && (!row.sec.yes() || !row.uc.yes())) ++violations;
    if (row.uc.yes() && !row.ec.yes()) ++violations;
    if (sc.yes() && (!row.suc.yes() || !row.pc.yes())) ++violations;
  }
  TextTable t({"classification", "histories"});
  for (const auto& [key, count] : population) {
    t.add(key, count);
  }
  t.print(std::cout);
  std::cout << "\ninclusion violations (paper: must be 0): " << violations
            << "   unknown verdicts: " << unknowns << '\n';
  std::cout << "Every SUC history is also EC+SEC+UC; every UC history is "
               "EC (Prop. 2); every SC history is SUC and PC. PC is "
               "otherwise incomparable (Fig. 1d is SUC but not PC; "
               "Fig. 2 is PC but not EC).\n";
}

void BM_Checker(benchmark::State& state) {
  const auto criterion =
      kAllCriteria[static_cast<std::size_t>(state.range(0))];
  const auto ops = static_cast<int>(state.range(1));
  const auto h = random_history(13, 2, ops, 2);
  for (auto _ : state) {
    auto result = check_criterion(h, criterion);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(to_string(criterion) + " ops<=" + std::to_string(ops) +
                 "/proc, " + std::to_string(h.update_ids().size()) +
                 " updates");
}
BENCHMARK(BM_Checker)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {2, 4, 6}})
    ->Unit(benchmark::kMicrosecond);

void BM_DownsetExplorerScaling(benchmark::State& state) {
  // The UC engine on a pure-update history with n non-commuting updates
  // split over two chains.
  const auto n = static_cast<std::size_t>(state.range(0));
  HistoryBuilder<S> b{S{}, 2};
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<ProcessId>(i % 2);
    const int v = static_cast<int>(rng.uniform_int(1, 4));
    b.update(p, rng.chance(0.5) ? S::insert(v) : S::remove(v));
  }
  const auto h = b.build();
  for (auto _ : state) {
    DownsetExplorer<S> explorer(h);
    benchmark::DoNotOptimize(explorer.final_states().size());
  }
  state.SetLabel(std::to_string(n) + " updates");
}
BENCHMARK(BM_DownsetExplorerScaling)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

UCW_BENCH_MAIN(print_tables)
