// Unit tests for the stateless model checker and the linearizability checker.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>

#include "src/mc/linearizability.h"
#include "src/mc/mc.h"
#include "src/sync/sync.h"

namespace ss {
namespace {

McOptions Opts(McOptions::Strategy strategy, size_t iterations, uint64_t seed = 1) {
  McOptions options;
  options.strategy = strategy;
  options.iterations = iterations;
  options.seed = seed;
  return options;
}

TEST(Mc, TrivialBodyPasses) {
  McResult result = McExplore([] {}, Opts(McOptions::Strategy::kRandom, 10));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.executions, 10u);
}

TEST(Mc, McFailIsReported) {
  McResult result = McExplore([] { McFail("boom"); }, Opts(McOptions::Strategy::kRandom, 5));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "boom");
  EXPECT_EQ(result.executions, 1u);  // stop_on_failure
  EXPECT_FALSE(result.failing_schedule.empty());
}

TEST(Mc, UncaughtExceptionIsReported) {
  McResult result = McExplore([] { throw std::runtime_error("oops"); },
                              Opts(McOptions::Strategy::kRandom, 3));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("oops"), std::string::npos);
}

TEST(Mc, MutexProvidesMutualExclusion) {
  McResult result = McExplore(
      [] {
        auto mu = std::make_shared<Mutex>();
        auto counter = std::make_shared<int>(0);
        auto in_section = std::make_shared<bool>(false);
        auto body = [mu, counter, in_section] {
          for (int i = 0; i < 3; ++i) {
            LockGuard lock(*mu);
            MC_CHECK(!*in_section, "two threads inside the critical section");
            *in_section = true;
            ++*counter;
            YieldThread();  // tempt the scheduler
            *in_section = false;
          }
        };
        Thread t = Thread::Spawn(body);
        body();
        t.Join();
        MC_CHECK(*counter == 6, "lost update");
      },
      Opts(McOptions::Strategy::kRandom, 100));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Mc, FindsUnsynchronizedLostUpdate) {
  // Classic read-modify-write race on an Atomic cell without a lock.
  McResult result = McExplore(
      [] {
        auto cell = std::make_shared<Atomic<int>>(0);
        auto bump = [cell] {
          const int seen = cell->Load();
          cell->Store(seen + 1);
        };
        Thread t = Thread::Spawn(bump);
        bump();
        t.Join();
        MC_CHECK(cell->Load() == 2, "lost update");
      },
      Opts(McOptions::Strategy::kRandom, 500));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "lost update");
}

TEST(Mc, DfsFindsLostUpdateAndCanExhaust) {
  size_t executions_to_find = 0;
  McResult result = McExplore(
      [] {
        auto cell = std::make_shared<Atomic<int>>(0);
        auto bump = [cell] {
          const int seen = cell->Load();
          cell->Store(seen + 1);
        };
        Thread t = Thread::Spawn(bump);
        bump();
        t.Join();
        MC_CHECK(cell->Load() == 2, "lost update");
      },
      Opts(McOptions::Strategy::kDfs, 100000));
  executions_to_find = result.executions;
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "lost update");
  EXPECT_GT(executions_to_find, 0u);

  // A correct (atomic) version lets DFS exhaust the schedule space.
  McResult correct = McExplore(
      [] {
        auto cell = std::make_shared<Atomic<int>>(0);
        auto bump = [cell] { cell->FetchAdd(1); };
        Thread t = Thread::Spawn(bump);
        bump();
        t.Join();
        MC_CHECK(cell->Load() == 2, "lost update");
      },
      Opts(McOptions::Strategy::kDfs, 100000));
  EXPECT_TRUE(correct.ok) << correct.error;
  EXPECT_TRUE(correct.exhausted);
  EXPECT_GT(correct.executions, 1u);
}

// The reduction must keep one schedule of every outcome class. Three tasks each read one
// cell, then write 1 to another, in a cycle. All-ones would need every read to follow a
// write that itself follows that read, so exactly the other seven triples are reachable.
TEST(Mc, DfsReductionReachesEveryOutcomeOfAReadWriteCycle) {
  std::set<std::array<int, 3>> outcomes;
  McResult result = McExplore(
      [&outcomes] {
        struct Cells {
          Atomic<int> a;
          Atomic<int> b;
          Atomic<int> c;
          std::array<int, 3> seen{};
        };
        auto cells = std::make_shared<Cells>();
        Thread first = Thread::Spawn([cells] {
          cells->seen[0] = cells->b.Load();
          cells->a.Store(1);
        });
        Thread second = Thread::Spawn([cells] {
          cells->seen[1] = cells->c.Load();
          cells->b.Store(1);
        });
        cells->seen[2] = cells->a.Load();
        cells->c.Store(1);
        first.Join();
        second.Join();
        outcomes.insert(cells->seen);
      },
      Opts(McOptions::Strategy::kDfs, 100000));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(outcomes.size(), 7u);
  EXPECT_EQ(outcomes.count({1, 1, 1}), 0u);
}

TEST(Mc, DetectsDeadlock) {
  McResult result = McExplore(
      [] {
        auto a = std::make_shared<Mutex>();
        auto b = std::make_shared<Mutex>();
        Thread t = Thread::Spawn([a, b] {
          a->Lock();
          YieldThread();
          b->Lock();
          b->Unlock();
          a->Unlock();
        });
        b->Lock();
        YieldThread();
        a->Lock();
        a->Unlock();
        b->Unlock();
        t.Join();
      },
      Opts(McOptions::Strategy::kRandom, 300));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadlock);
  EXPECT_NE(result.error.find("deadlock"), std::string::npos);
}

TEST(Mc, CondVarWakeups) {
  McResult result = McExplore(
      [] {
        auto mu = std::make_shared<Mutex>();
        auto cv = std::make_shared<CondVar>();
        auto ready = std::make_shared<bool>(false);
        Thread waiter = Thread::Spawn([mu, cv, ready] {
          LockGuard lock(*mu);
          while (!*ready) {
            cv->Wait(*mu);
          }
        });
        {
          LockGuard lock(*mu);
          *ready = true;
        }
        cv->NotifyOne();
        waiter.Join();
      },
      Opts(McOptions::Strategy::kRandom, 200));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Mc, SemaphoreAtomicAcquireIsDeadlockFree) {
  McResult result = McExplore(
      [] {
        auto sem = std::make_shared<Semaphore>(2);
        auto worker = [sem] {
          sem->Acquire(2);
          YieldThread();
          sem->Release(2);
        };
        Thread t = Thread::Spawn(worker);
        worker();
        t.Join();
      },
      Opts(McOptions::Strategy::kRandom, 200));
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(Mc, SemaphoreSplitAcquireDeadlocks) {
  McResult result = McExplore(
      [] {
        auto sem = std::make_shared<Semaphore>(2);
        auto worker = [sem] {
          sem->Acquire(1);
          YieldThread();
          sem->Acquire(1);
          sem->Release(2);
        };
        Thread t = Thread::Spawn(worker);
        worker();
        t.Join();
      },
      Opts(McOptions::Strategy::kRandom, 500));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.deadlock);
}

TEST(Mc, PctFindsRareOrdering) {
  // A bug that manifests only if the spawned thread runs to completion before the main
  // body performs any of its three steps — rare under uniform random, likely under PCT.
  auto body = [] {
    auto stage = std::make_shared<Atomic<int>>(0);
    Thread t = Thread::Spawn([stage] {
      if (stage->Load() == 0) {
        stage->Store(100);
      }
    });
    for (int i = 0; i < 3; ++i) {
      stage->FetchAdd(1);
    }
    t.Join();
    MC_CHECK(stage->Load() != 103, "rare ordering hit");
  };
  McResult pct = McExplore(body, Opts(McOptions::Strategy::kPct, 500, 3));
  EXPECT_FALSE(pct.ok);
}

TEST(Mc, StopOnFailureFalseCountsFailures) {
  McOptions options = Opts(McOptions::Strategy::kRandom, 20);
  options.stop_on_failure = false;
  McResult result = McExplore([] { McFail("always"); }, options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.executions, 20u);
  EXPECT_EQ(result.failures, 20u);
}

TEST(Mc, McFailOutsideExploreThrows) {
  EXPECT_THROW(McFail("not running"), std::runtime_error);
}

// --- Linearizability checker -------------------------------------------------------------

LinOp Op(LinOp::Kind kind, uint64_t key, uint64_t invoke, uint64_t response,
         const char* value = nullptr, bool found = false) {
  LinOp op;
  op.kind = kind;
  op.key = key;
  op.invoke = invoke;
  op.response = response;
  if (value != nullptr) {
    if (kind == LinOp::Kind::kPut) {
      op.value = BytesOf(value);
    } else {
      op.result = BytesOf(value);
    }
  }
  op.found = found;
  return op;
}

TEST(Linearizability, SequentialHistoryIsLinearizable) {
  std::vector<LinOp> history = {
      Op(LinOp::Kind::kPut, 1, 1, 2, "a"),
      Op(LinOp::Kind::kGet, 1, 3, 4, "a", true),
      Op(LinOp::Kind::kDelete, 1, 5, 6),
      Op(LinOp::Kind::kGet, 1, 7, 8, nullptr, false),
  };
  EXPECT_TRUE(CheckLinearizable(history, nullptr));
}

TEST(Linearizability, StaleReadAfterResponseIsNotLinearizable) {
  // Put(a) completes, then a later Get misses: no linearization exists.
  std::vector<LinOp> history = {
      Op(LinOp::Kind::kPut, 1, 1, 2, "a"),
      Op(LinOp::Kind::kGet, 1, 3, 4, nullptr, false),
  };
  std::string explanation;
  EXPECT_FALSE(CheckLinearizable(history, &explanation));
  EXPECT_NE(explanation.find("no linearization"), std::string::npos);
}

TEST(Linearizability, ConcurrentOpsMayReorder) {
  // Get overlaps the Put, so both miss and hit are legal.
  std::vector<LinOp> miss = {
      Op(LinOp::Kind::kPut, 1, 1, 4, "a"),
      Op(LinOp::Kind::kGet, 1, 2, 3, nullptr, false),
  };
  EXPECT_TRUE(CheckLinearizable(miss, nullptr));
  std::vector<LinOp> hit = {
      Op(LinOp::Kind::kPut, 1, 1, 4, "a"),
      Op(LinOp::Kind::kGet, 1, 2, 3, "a", true),
  };
  EXPECT_TRUE(CheckLinearizable(hit, nullptr));
}

TEST(Linearizability, WrongValueRejected) {
  std::vector<LinOp> history = {
      Op(LinOp::Kind::kPut, 1, 1, 2, "a"),
      Op(LinOp::Kind::kGet, 1, 3, 4, "zzz", true),
  };
  EXPECT_FALSE(CheckLinearizable(history, nullptr));
}

TEST(Linearizability, TwoWritersAndReader) {
  // Reader sees "b" although "a"'s put responded later — legal only because the puts
  // overlap each other and the read.
  std::vector<LinOp> history = {
      Op(LinOp::Kind::kPut, 1, 1, 6, "a"),
      Op(LinOp::Kind::kPut, 1, 2, 5, "b"),
      Op(LinOp::Kind::kGet, 1, 3, 4, "b", true),
  };
  EXPECT_TRUE(CheckLinearizable(history, nullptr));
}

TEST(Linearizability, RecorderTimestampsNest) {
  LinHistory history;
  const uint64_t t1 = history.Invoke();
  const uint64_t t2 = history.Invoke();
  history.RecordPut(t2, 1, BytesOf("x"));
  history.RecordGetMissing(t1, 1);
  auto ops = history.Ops();
  ASSERT_EQ(ops.size(), 2u);
  for (const LinOp& op : ops) {
    EXPECT_LT(op.invoke, op.response);
  }
}

TEST(Linearizability, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(CheckLinearizable({}, nullptr));
}

}  // namespace
}  // namespace ss
