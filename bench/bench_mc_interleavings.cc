// Section 6 reproduction: stateless model checking throughput and the
// soundness-vs-scalability trade-off. Three parts:
//
//  1. google-benchmark: explored executions/second for each Figure-4-style harness and
//     scheduling strategy (the cost of exploration).
//  2. Strategy comparison on seeded bug #14 (flush/reclamation race): detection rate of
//     random walk vs PCT at equal budgets — the paper's reason for using PCT-based
//     Shuttle on large harnesses.
//  3. DFS statistics on the small buffer-pool harness — the Loom-style sound check:
//     with partial-order reduction, one schedule per class of equivalent schedules.
//
//   $ ./build/bench/bench_mc_interleavings

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/faults/faults.h"
#include "src/harness/concurrency.h"
#include "src/mc/mc.h"

using namespace ss;

namespace {

void BM_McFig4Random(benchmark::State& state) {
  auto body = MakeFig4IndexBody();
  uint64_t seed = 1;
  size_t execs = 0;
  uint64_t steps = 0;
  for (auto _ : state) {
    McOptions options;
    options.strategy = McOptions::Strategy::kRandom;
    options.iterations = 5;
    options.seed = seed++;
    McResult result = McExplore(body, options);
    execs += result.executions;
    steps += result.total_steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(execs));
  state.SetLabel("executions (Fig-4 harness, random)");
  state.counters["steps/exec"] =
      execs > 0 ? static_cast<double>(steps) / static_cast<double>(execs) : 0;
}
BENCHMARK(BM_McFig4Random)->Unit(benchmark::kMillisecond);

void BM_McFig4Pct(benchmark::State& state) {
  auto body = MakeFig4IndexBody();
  uint64_t seed = 1;
  size_t execs = 0;
  for (auto _ : state) {
    McOptions options;
    options.strategy = McOptions::Strategy::kPct;
    options.iterations = 5;
    options.seed = seed++;
    McResult result = McExplore(body, options);
    execs += result.executions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(execs));
  state.SetLabel("executions (Fig-4 harness, PCT)");
}
BENCHMARK(BM_McFig4Pct)->Unit(benchmark::kMillisecond);

void BM_McBufferPool(benchmark::State& state) {
  auto body = MakeBufferPoolBody();
  uint64_t seed = 1;
  size_t execs = 0;
  for (auto _ : state) {
    McOptions options;
    options.strategy = McOptions::Strategy::kRandom;
    options.iterations = 10;
    options.seed = seed++;
    McResult result = McExplore(body, options);
    execs += result.executions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(execs));
  state.SetLabel("executions (buffer-pool harness)");
}
BENCHMARK(BM_McBufferPool)->Unit(benchmark::kMillisecond);

void StrategyComparison() {
  printf("\n=== strategy comparison on seeded bug #14 (flush vs reclamation race) ===\n");
  printf("%-12s %-10s %-12s %s\n", "strategy", "budget", "P(detect)",
         "(12 independent seeds each)");
  const int kTrials = 12;
  for (auto [name, strategy] :
       {std::pair{"random", McOptions::Strategy::kRandom},
        std::pair{"pct", McOptions::Strategy::kPct}}) {
    for (size_t budget : {300ul, 1000ul, 3000ul}) {
      int detected = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        ScopedBug bug(SeededBug::kCompactReclaimMetadataRace);
        McOptions options;
        options.strategy = strategy;
        options.iterations = budget;
        options.seed = 100 + static_cast<uint64_t>(trial);
        if (!McExplore(MakeFlushReclaimBody(), options).ok) {
          ++detected;
        }
      }
      printf("%-12s %-10zu %-12.2f\n", name, budget,
             static_cast<double>(detected) / kTrials);
    }
  }
  printf("(PCT's probabilistic guarantee on low-depth bugs is why the paper's Shuttle\n");
  printf(" uses it for large end-to-end harnesses.)\n");
}

void DfsExhaustive() {
  printf("\n=== sound exhaustive DFS on the small buffer-pool harness ===\n");
  McOptions options;
  options.strategy = McOptions::Strategy::kDfs;
  options.iterations = 5000000;
  McResult result = McExplore(MakeBufferPoolBody(), options);
  printf("schedules explored: %zu, total scheduling steps: %llu, %s\n",
         result.executions, static_cast<unsigned long long>(result.total_steps),
         result.exhausted ? "EXHAUSTED (sound: every class of equivalent interleavings checked)"
                          : "budget hit before exhaustion");
  printf("(this is the Loom-style soundness/scalability trade-off: exhaustive checking\n");
  printf(" is feasible only for small correctness-critical harnesses; the Fig-4 harness\n");
  printf(" has far too many interleavings and gets randomized PCT instead.)\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  StrategyComparison();
  DfsExhaustive();
  return 0;
}
