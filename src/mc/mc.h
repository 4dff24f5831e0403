// Stateless model checking (paper section 6).
//
// McExplore runs `body` many times, each under a controlled scheduler that serializes
// all ss::sync-instrumented threads and systematically varies the interleaving:
//   * kRandom — uniform random walk over runnable threads,
//   * kPct    — probabilistic concurrency testing (Burckhardt et al. [5]): random
//               priorities with `pct_depth` priority-change points; gives probabilistic
//               bug-finding guarantees on low-depth bugs (what Shuttle implements),
//   * kDfs    — exhaustive depth-first search with dynamic partial-order reduction
//               (DPOR; Flanagan & Godefroid, POPL 2005), the sound checking Loom does.
//               Two steps of different tasks are dependent if they touch a common
//               ss::sync object: a mutex (lock attempt or unlock), a condvar (wait or
//               notify), an Atomic cell, or a task's end and a Join on it. Schedules that
//               differ only in the order of independent steps reach the same state, so
//               one of them is run. After each execution the checker finds every race —
//               a step and the latest earlier dependent step of another task that does
//               not happen before it — and backtracks to run the two in the other order.
//               Every reachable outcome, failure and deadlock is still reached, provided
//               tasks share state only through non-leaf ss::sync primitives or Atomic
//               (and the data those mutexes guard): leaf locks guard observability only,
//               so the reduction does not see them. Feasible only for small harnesses.
//
// `body` creates fresh state, spawns ss::Thread workers, and asserts with MC_CHECK.
// Deadlocks (all live threads blocked) are detected and reported with the schedule.
// The schedule trace of a failing execution is returned for replay.

#ifndef SS_MC_MC_H_
#define SS_MC_MC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ss {

struct McOptions {
  enum class Strategy : uint8_t { kRandom, kPct, kDfs };
  Strategy strategy = Strategy::kRandom;
  // Number of executions for kRandom/kPct; an upper bound for kDfs.
  size_t iterations = 200;
  uint64_t seed = 1;
  int pct_depth = 3;
  // Per-execution step budget; exceeding it fails the execution (livelock suspicion).
  size_t max_steps = 200000;
  // Stop after the first failing execution (default) or keep counting failures.
  bool stop_on_failure = true;
  // Fail any execution during which the lock-order witness records a new violation,
  // so latent lock-order cycles surface as counterexamples with replayable schedules.
  bool check_lock_order = true;
};

struct McResult {
  bool ok = true;
  bool deadlock = false;
  bool exhausted = false;  // kDfs only: every class of equivalent schedules was covered
  std::string error;
  size_t executions = 0;
  size_t failures = 0;
  uint64_t total_steps = 0;
  std::vector<uint32_t> failing_schedule;  // task ids in scheduling order
};

// Fails the current model-checked execution with `message`. Must be called from inside
// a body running under McExplore.
[[noreturn]] void McFail(const std::string& message);

#define MC_CHECK(cond, msg)   \
  do {                        \
    if (!(cond)) {            \
      ::ss::McFail(msg);      \
    }                         \
  } while (0)

McResult McExplore(const std::function<void()>& body, const McOptions& options);

// Re-runs `body` once under the exact schedule of a previous failing execution
// (McResult::failing_schedule, also persisted in flight-recorder artifacts as
// `mc_schedule`). At each scheduling point the recorded task is chosen if runnable;
// once the schedule is exhausted — or the recorded task cannot run, which only
// happens if `body` is not the body that produced the schedule — the first runnable
// task is picked. A faithful replay reproduces the original failure deterministically.
McResult McReplay(const std::function<void()>& body, const std::vector<uint32_t>& schedule,
                  size_t max_steps = 200000);

}  // namespace ss

#endif  // SS_MC_MC_H_
