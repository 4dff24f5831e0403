#include "src/mc/mc.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "src/common/rng.h"
#include "src/sync/sync.h"
#include "src/sync/witness.h"

namespace ss {
namespace {

// Thrown inside managed tasks to unwind them once the execution is over (failure seen
// or deadlock being cleaned up).
struct McKilled {};
// Thrown by McFail.
struct McFailureEx {
  std::string message;
};

enum class TaskState : uint8_t {
  kRunnable,
  kBlockedMutex,
  kBlockedCv,
  kBlockedJoin,
  kFinished,
};

struct Task {
  uint64_t id = 0;
  Thread thread;
  // Per-task baton. Leaf mode: these locks *implement* the scheduling points, so
  // routing them back through SchedHooks would recurse; they stay native but remain
  // visible to the lock-order witness like every other ss primitive.
  Mutex m{MutexAttr{"mc.task.baton", lockrank::kSched, /*leaf=*/true}};
  CondVar cv{CondVarAttr{/*leaf=*/true}};
  bool can_run = false;

  TaskState state = TaskState::kRunnable;
  uintptr_t wait_obj = 0;    // mutex or condvar id
  uintptr_t cv_mutex = 0;    // mutex to reacquire after a condvar wait
  uint64_t wait_join = 0;    // task id being joined
  bool started = false;
};

// One execution's scheduling policy.
class Strategy {
 public:
  virtual ~Strategy() = default;
  // Picks an index into `runnable` (task ids, ascending).
  virtual size_t Pick(const std::vector<uint64_t>& runnable, size_t step) = 0;
  virtual void OnSpawn(uint64_t task_id) {}
};

class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}
  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    return static_cast<size_t>(rng_.Below(runnable.size()));
  }

 private:
  Rng rng_;
};

class PctStrategy : public Strategy {
 public:
  PctStrategy(uint64_t seed, int depth, size_t horizon) : rng_(seed) {
    for (int i = 1; i < depth; ++i) {
      change_points_.insert(rng_.Below(horizon));
    }
  }
  void OnSpawn(uint64_t task_id) override {
    priority_[task_id] = rng_.NextDouble();
  }
  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    size_t best = 0;
    for (size_t i = 1; i < runnable.size(); ++i) {
      if (priority_[runnable[i]] > priority_[runnable[best]]) {
        best = i;
      }
    }
    if (change_points_.count(step) != 0) {
      // Demote the currently-highest task below everything else.
      priority_[runnable[best]] = next_low_;
      next_low_ -= 1.0;
      best = 0;
      for (size_t i = 1; i < runnable.size(); ++i) {
        if (priority_[runnable[i]] > priority_[runnable[best]]) {
          best = i;
        }
      }
    }
    return best;
  }

 private:
  Rng rng_;
  std::map<uint64_t, double> priority_;
  std::set<size_t> change_points_;
  double next_low_ = -1.0;
};

// Deterministic replay of a recorded schedule (task ids in scheduling order). Picks
// the recorded task when it is runnable, the first runnable task otherwise.
class ReplayStrategy : public Strategy {
 public:
  explicit ReplayStrategy(const std::vector<uint32_t>* schedule) : schedule_(schedule) {}

  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    if (step < schedule_->size()) {
      const uint64_t want = (*schedule_)[step];
      for (size_t i = 0; i < runnable.size(); ++i) {
        if (runnable[i] == want) {
          return i;
        }
      }
    }
    return 0;
  }

 private:
  const std::vector<uint32_t>* schedule_;
};

// What one scheduling step did, as DPOR sees it: the task that ran, the ss::sync objects
// it touched, and the tasks it released — spawned, or woke from a blocked state — whose
// next step is therefore ordered after it. Objects are mutex, condvar and Atomic ids
// plus a per-task finish key (FinishKey); ids are addresses, so they compare only within
// one execution.
struct StepFootprint {
  uint64_t task = 0;
  std::vector<uintptr_t> objects;
  std::vector<uint64_t> released;
};

// The object a task's end and a Join on it both touch. Top-of-address-space values are
// never the address of a live primitive.
uintptr_t FinishKey(uint64_t task_id) { return ~static_cast<uintptr_t>(task_id); }

// Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005). The explored
// schedule is a path of nodes, one per step; each node keeps the tasks runnable there,
// a backtrack set of tasks that must be tried first there, and a done set. An execution replays the
// path, takes the node's chosen task at its end, then runs the lowest runnable task at
// every new node. Afterwards, Analyze() finds every race — a step j and the latest
// earlier step i on one of j's objects, of another task, that does not happen before j
// — and adds j's task to i's backtrack set (or all of i's runnable tasks, if j's task
// could not run there). Advance() moves to the deepest node with a backtrack task not
// yet done.
class DporStrategy : public Strategy {
 public:
  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    if (step < path_.size()) {
      Node& node = path_[step];
      auto it = std::find(runnable.begin(), runnable.end(), node.chosen);
      if (it != runnable.end()) {
        return static_cast<size_t>(it - runnable.begin());
      }
      node.chosen = runnable[0];  // `body` is not deterministic; keep going
      return 0;
    }
    path_.push_back(Node{runnable, {runnable[0]}, {runnable[0]}, runnable[0]});
    return 0;
  }

  void Analyze(const std::vector<StepFootprint>& steps) {
    // Vector clocks over the happens-before order (program order, spawn, and steps on a
    // common object): clock[t] is one past the index of t's latest step ordered before.
    size_t num_tasks = 1;
    for (const StepFootprint& step : steps) {
      num_tasks = std::max<size_t>(num_tasks, step.task + 1);
      for (uint64_t other : step.released) {
        num_tasks = std::max<size_t>(num_tasks, other + 1);
      }
    }
    std::vector<Clock> task_clock(num_tasks, Clock(num_tasks, 0));
    std::vector<Clock> step_clock(steps.size());
    std::map<uintptr_t, size_t> last_step;  // object -> latest step that touched it
    for (size_t j = 0; j < steps.size(); ++j) {
      const StepFootprint& step = steps[j];
      Clock clock = task_clock[step.task];
      for (uintptr_t object : step.objects) {
        auto it = last_step.find(object);
        if (it == last_step.end()) {
          continue;
        }
        const size_t i = it->second;
        if (steps[i].task != step.task && clock[steps[i].task] <= i) {
          AddBacktrack(&path_[i], step.task);
        }
      }
      for (uintptr_t object : step.objects) {
        auto it = last_step.find(object);
        if (it != last_step.end()) {
          JoinClock(&clock, step_clock[it->second]);
        }
      }
      clock[step.task] = j + 1;
      for (uintptr_t object : step.objects) {
        last_step[object] = j;
      }
      for (uint64_t other : step.released) {
        JoinClock(&task_clock[other], clock);
      }
      task_clock[step.task] = clock;
      step_clock[j] = std::move(clock);
    }
  }

  // Sets up the next execution; false once every backtrack set is done.
  bool Advance() {
    while (!path_.empty()) {
      Node& node = path_.back();
      for (uint64_t task : node.backtrack) {
        if (node.done.insert(task).second) {
          node.chosen = task;
          return true;
        }
      }
      path_.pop_back();
    }
    return false;
  }

 private:
  struct Node {
    std::vector<uint64_t> runnable;
    std::set<uint64_t> backtrack;
    std::set<uint64_t> done;
    uint64_t chosen = 0;
  };

  using Clock = std::vector<size_t>;

  static void JoinClock(Clock* into, const Clock& other) {
    for (size_t t = 0; t < into->size(); ++t) {
      (*into)[t] = std::max((*into)[t], other[t]);
    }
  }

  static void AddBacktrack(Node* node, uint64_t task) {
    if (std::find(node->runnable.begin(), node->runnable.end(), task) !=
        node->runnable.end()) {
      node->backtrack.insert(task);
    } else {
      node->backtrack.insert(node->runnable.begin(), node->runnable.end());
    }
  }

  std::vector<Node> path_;
};

class McRuntime : public SchedHooks {
 public:
  // With `footprints`, records what each strategy-picked step touched (for DPOR).
  McRuntime(Strategy* strategy, size_t max_steps, bool check_lock_order = true,
            std::vector<StepFootprint>* footprints = nullptr)
      : strategy_(strategy),
        max_steps_(max_steps),
        check_lock_order_(check_lock_order),
        footprints_(footprints) {}

  // --- Driver side --------------------------------------------------------------------

  // Runs `body` as task 0 and schedules until every task finished. Fills result fields.
  void Run(const std::function<void()>& body, McResult* result) {
    const uint64_t witness_before = LockWitness::Global().violation_count();
    SetActiveSchedHooks(this);
    SpawnInternal(body);
    ScheduleLoop();
    SetActiveSchedHooks(nullptr);
    // Reap threads.
    for (auto& task : tasks_) {
      task->thread.Join();
    }
    // Lock-order violations observed during this execution are counterexamples in
    // their own right, even when the explored schedule happened not to deadlock: the
    // failing schedule replays to the same inversion.
    if (check_lock_order_ && !failed_ &&
        LockWitness::Global().violation_count() > witness_before) {
      failed_ = true;
      error_ = "lock-order violation: " + LockWitness::Global().LastMessage();
    }
    result->total_steps += steps_;
    if (failed_) {
      result->ok = false;
      ++result->failures;
      if (result->error.empty()) {
        result->error = error_;
        result->deadlock = deadlock_;
        result->failing_schedule = trace_;
      }
    }
  }

  bool failed() const { return failed_; }

  // --- SchedHooks ------------------------------------------------------------------------

  void MutexLock(uintptr_t mutex_id) override {
    Task* self = Current();
    while (true) {
      SchedPoint(self);
      Touch(mutex_id);
      auto it = mutex_owner_.find(mutex_id);
      if (it == mutex_owner_.end()) {
        mutex_owner_[mutex_id] = self->id;
        return;
      }
      self->state = TaskState::kBlockedMutex;
      self->wait_obj = mutex_id;
      YieldToScheduler(self);
    }
  }

  void MutexUnlock(uintptr_t mutex_id) override {
    // Reached from destructors (LockGuard) — possibly during exception unwinding — so
    // this must never throw McKilled.
    Task* self = Current();
    Touch(mutex_id);
    mutex_owner_.erase(mutex_id);
    WakeBlocked(TaskState::kBlockedMutex, mutex_id);
    SchedPointNoKill(self);
  }

  void CondWait(uintptr_t cv_id, uintptr_t mutex_id) override {
    Task* self = Current();
    Touch(mutex_id);
    Touch(cv_id);
    mutex_owner_.erase(mutex_id);
    WakeBlocked(TaskState::kBlockedMutex, mutex_id);
    self->state = TaskState::kBlockedCv;
    self->wait_obj = cv_id;
    self->cv_mutex = mutex_id;
    YieldToScheduler(self);
    // Woken: reacquire the mutex.
    MutexLock(mutex_id);
  }

  void CondNotifyOne(uintptr_t cv_id) override {
    // Conservative: wake every waiter (condition variables are used with predicate
    // loops, so spurious wakeups are benign and this keeps scheduling deterministic).
    CondNotifyAll(cv_id);
  }

  void CondNotifyAll(uintptr_t cv_id) override {
    // Also reachable from destructors; never throws.
    Task* self = Current();
    Touch(cv_id);
    WakeBlocked(TaskState::kBlockedCv, cv_id);
    SchedPointNoKill(self);
  }

  void SharedAccess(uintptr_t cell_id) override {
    SchedPoint(Current());
    Touch(cell_id);
  }

  void Yield() override { SchedPoint(Current()); }

  uint64_t Spawn(std::function<void()> body) override {
    Task* self = Current();
    const uint64_t id = SpawnInternal(std::move(body));
    Released(id);
    SchedPoint(self);
    return id;
  }

  void Join(uint64_t token) override {
    // Thread::~Thread joins, possibly during exception unwinding; never throws. During
    // poisoned teardown it returns immediately — the target task is force-woken by the
    // scheduler and unwinds on its own (shared state must be owned via shared_ptr,
    // which all harness bodies follow).
    Task* self = Current();
    while (true) {
      if (poisoned_) {
        return;
      }
      SchedPointNoKill(self);
      if (poisoned_) {
        return;
      }
      Touch(FinishKey(token));
      Task* target = FindTask(token);
      if (target == nullptr || target->state == TaskState::kFinished) {
        return;
      }
      self->state = TaskState::kBlockedJoin;
      self->wait_join = token;
      YieldToScheduler(self);
    }
  }

  // Called by McFail via the thread-local current task.
  [[noreturn]] void FailCurrent(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      error_ = message;
    }
    poisoned_ = true;
    throw McFailureEx{message};
  }

 private:
  static thread_local Task* current_task_;

  Task* Current() { return current_task_; }

  Task* FindTask(uint64_t id) {
    for (auto& task : tasks_) {
      if (task->id == id) {
        return task.get();
      }
    }
    return nullptr;
  }

  uint64_t SpawnInternal(std::function<void()> body) {
    auto task = std::make_unique<Task>();
    task->id = next_id_++;
    Task* raw = task.get();
    if (strategy_ != nullptr) {
      strategy_->OnSpawn(raw->id);
    }
    tasks_.push_back(std::move(task));
    raw->thread = Thread::SpawnNative([this, raw, body = std::move(body)]() {
      current_task_ = raw;
      WaitForBaton(raw);
      try {
        if (poisoned_) {
          throw McKilled{};
        }
        body();
      } catch (const McKilled&) {
        // Normal teardown of a poisoned execution.
      } catch (const McFailureEx&) {
        // Failure already recorded by FailCurrent.
      } catch (const std::exception& e) {
        if (!failed_) {
          failed_ = true;
          error_ = std::string("uncaught exception: ") + e.what();
        }
        poisoned_ = true;
      }
      Touch(FinishKey(raw->id));
      raw->state = TaskState::kFinished;
      // Unblock joiners.
      for (auto& t : tasks_) {
        if (t->state == TaskState::kBlockedJoin && t->wait_join == raw->id) {
          t->state = TaskState::kRunnable;
          Released(t->id);
        }
      }
      HandBatonToScheduler();
    });
    return raw->id;
  }

  // Adds `object` to the footprint of the step now running. Steps after poisoning are
  // forced teardown, not part of the explored schedule.
  void Touch(uintptr_t object) {
    if (footprints_ != nullptr && !poisoned_) {
      footprints_->back().objects.push_back(object);
    }
  }

  // Orders the next step of `task`, just spawned or woken, after the running step: it
  // could not run before it. The other orders are reached through the races on the step
  // that blocked `task` (its lock attempt, wait or join).
  void Released(uint64_t task) {
    if (footprints_ != nullptr && !poisoned_) {
      footprints_->back().released.push_back(task);
    }
  }

  void WakeBlocked(TaskState state, uintptr_t obj) {
    for (auto& task : tasks_) {
      if (task->state == state && task->wait_obj == obj) {
        task->state = TaskState::kRunnable;
        Released(task->id);
      }
    }
  }

  // A scheduling point: hand control back to the scheduler and wait to be rescheduled.
  void SchedPoint(Task* self) {
    if (poisoned_) {
      throw McKilled{};
    }
    YieldToScheduler(self);
    if (poisoned_) {
      throw McKilled{};
    }
  }

  // Scheduling point for paths reachable from (noexcept) destructors: identical
  // scheduling behaviour, but during poisoned teardown it simply returns.
  void SchedPointNoKill(Task* self) {
    if (poisoned_) {
      return;
    }
    YieldToScheduler(self);
  }

  void YieldToScheduler(Task* self) {
    HandBatonToScheduler();
    WaitForBaton(self);
  }

  void WaitForBaton(Task* task) {
    LockGuard lock(task->m);
    while (!task->can_run) {
      task->cv.Wait(task->m);
    }
    task->can_run = false;
  }

  void GiveBaton(Task* task) {
    {
      LockGuard lock(task->m);
      task->can_run = true;
    }
    task->cv.NotifyOne();
  }

  void HandBatonToScheduler() {
    {
      LockGuard lock(sched_m_);
      sched_turn_ = true;
    }
    sched_cv_.NotifyOne();
  }

  void WaitForSchedulerTurn() {
    LockGuard lock(sched_m_);
    while (!sched_turn_) {
      sched_cv_.Wait(sched_m_);
    }
    sched_turn_ = false;
  }

  void ScheduleLoop() {
    while (true) {
      std::vector<uint64_t> runnable;
      bool all_finished = true;
      for (auto& task : tasks_) {
        if (task->state != TaskState::kFinished) {
          all_finished = false;
        }
        if (task->state == TaskState::kRunnable) {
          runnable.push_back(task->id);
        }
      }
      if (all_finished) {
        return;
      }
      if (poisoned_ && runnable.empty()) {
        // Force-wake blocked tasks so they unwind via McKilled.
        for (auto& task : tasks_) {
          if (task->state != TaskState::kFinished) {
            task->state = TaskState::kRunnable;
            runnable.push_back(task->id);
          }
        }
      } else if (runnable.empty()) {
        // Deadlock: live tasks exist but none can run.
        failed_ = true;
        deadlock_ = true;
        std::ostringstream out;
        out << "deadlock:";
        for (auto& task : tasks_) {
          if (task->state == TaskState::kFinished) {
            continue;
          }
          out << " task" << task->id
              << (task->state == TaskState::kBlockedMutex  ? "(mutex)"
                  : task->state == TaskState::kBlockedCv   ? "(condvar)"
                                                           : "(join)");
        }
        error_ = out.str();
        poisoned_ = true;
        continue;
      }
      if (steps_ >= max_steps_ && !poisoned_) {
        failed_ = true;
        error_ = "step budget exceeded (possible livelock)";
        poisoned_ = true;
      }
      size_t pick = poisoned_ ? 0 : strategy_->Pick(runnable, steps_);
      Task* chosen = FindTask(runnable[pick]);
      if (footprints_ != nullptr && !poisoned_) {
        footprints_->push_back(StepFootprint{chosen->id, {}, {}});
      }
      trace_.push_back(static_cast<uint32_t>(chosen->id));
      ++steps_;
      GiveBaton(chosen);
      WaitForSchedulerTurn();
    }
  }

  Strategy* strategy_;
  size_t max_steps_;
  // When set, an execution fails if the lock-order witness records any new violation
  // during it — lock-order cycles become model-checking counterexamples.
  bool check_lock_order_;
  std::vector<StepFootprint>* footprints_;
  std::vector<std::unique_ptr<Task>> tasks_;
  uint64_t next_id_ = 0;
  std::map<uintptr_t, uint64_t> mutex_owner_;

  Mutex sched_m_{MutexAttr{"mc.sched", lockrank::kSched, /*leaf=*/true}};
  CondVar sched_cv_{CondVarAttr{/*leaf=*/true}};
  bool sched_turn_ = false;

  size_t steps_ = 0;
  std::vector<uint32_t> trace_;
  bool failed_ = false;
  bool deadlock_ = false;
  bool poisoned_ = false;
  std::string error_;

 public:
  McRuntime(const McRuntime&) = delete;
  McRuntime& operator=(const McRuntime&) = delete;
  ~McRuntime() override = default;
};

thread_local Task* McRuntime::current_task_ = nullptr;

McRuntime*& ActiveRuntime() {
  static McRuntime* active = nullptr;
  return active;
}

}  // namespace

void McFail(const std::string& message) {
  McRuntime* runtime = ActiveRuntime();
  if (runtime == nullptr) {
    // Outside a model-checked run (e.g. a plain unit test): abort loudly.
    throw std::runtime_error("MC_CHECK failed outside McExplore: " + message);
  }
  runtime->FailCurrent(message);
}

McResult McExplore(const std::function<void()>& body, const McOptions& options) {
  McResult result;
  if (options.strategy == McOptions::Strategy::kDfs) {
    DporStrategy strategy;
    for (size_t i = 0; i < options.iterations; ++i) {
      std::vector<StepFootprint> footprints;
      McRuntime runtime(&strategy, options.max_steps, options.check_lock_order, &footprints);
      ActiveRuntime() = &runtime;
      runtime.Run(body, &result);
      ActiveRuntime() = nullptr;
      ++result.executions;
      if (!result.ok && options.stop_on_failure) {
        return result;
      }
      strategy.Analyze(footprints);
      if (!strategy.Advance()) {
        result.exhausted = true;
        return result;
      }
    }
    return result;
  }

  Rng seeder(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    const uint64_t exec_seed = seeder.Next();
    std::unique_ptr<Strategy> strategy;
    if (options.strategy == McOptions::Strategy::kPct) {
      strategy = std::make_unique<PctStrategy>(exec_seed, options.pct_depth,
                                               /*horizon=*/4096);
    } else {
      strategy = std::make_unique<RandomStrategy>(exec_seed);
    }
    McRuntime runtime(strategy.get(), options.max_steps, options.check_lock_order);
    ActiveRuntime() = &runtime;
    runtime.Run(body, &result);
    ActiveRuntime() = nullptr;
    ++result.executions;
    if (!result.ok && options.stop_on_failure) {
      return result;
    }
  }
  return result;
}

McResult McReplay(const std::function<void()>& body, const std::vector<uint32_t>& schedule,
                  size_t max_steps) {
  McResult result;
  ReplayStrategy strategy(&schedule);
  McRuntime runtime(&strategy, max_steps);
  ActiveRuntime() = &runtime;
  runtime.Run(body, &result);
  ActiveRuntime() = nullptr;
  ++result.executions;
  return result;
}

}  // namespace ss
