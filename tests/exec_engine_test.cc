// Unit tests for the deterministic work-stealing virtual-time engine
// (src/common/exec): task scheduling order, WaitPoint park/wake, timed
// parks (DES jumps), ActorGroup spawn/join, the progress-epoch idle
// protocol, and the aborts that reject actors and blocking waits outside a
// task.

#include "common/exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "registry/flow_registry.h"

namespace dfi::exec {
namespace {

TEST(EngineTest, RunsAllTasks) {
  Engine engine;
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(i, "t", [&] { ran.fetch_add(1); });
  }
  engine.Run();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EngineTest, CurrentIsNullOutsideAndSetInside) {
  EXPECT_EQ(Engine::Current(), nullptr);
  Engine engine;
  bool inside = false;
  engine.Spawn(0, "probe", [&] { inside = Engine::Current() == &engine; });
  engine.Run();
  EXPECT_TRUE(inside);
  EXPECT_EQ(Engine::Current(), nullptr);
}

TEST(EngineTest, SingleWorkerRunsInVirtualTimeOrder) {
  // With one worker and disjoint virtual times, tasks must execute in
  // (virtual time, spawn id) order regardless of spawn order.
  Engine engine({.lookahead_ns = 0});
  std::vector<int> order;
  // Spawned in reverse virtual-time order; Yield re-enqueues at the given
  // virtual time, so the scheduler must sort them.
  for (int i = 4; i >= 0; --i) {
    engine.Spawn(static_cast<uint32_t>(i), "t", [&, i] {
      Engine::Yield(static_cast<SimTime>(i) * 1000);
      order.push_back(i);
    });
  }
  engine.Run();
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, PaceBoundsRunAheadToLookahead) {
  // Two tasks that never park: Pace hands the worker over whenever the
  // running one gets more than the lookahead ahead of the other, so their
  // logged virtual times never drift apart by more than lookahead + step.
  constexpr SimTime kLookahead = 100;
  constexpr SimTime kStep = 50;
  Engine::Pace(1'000'000);  // outside a task: no-op
  Engine engine({.lookahead_ns = kLookahead});
  SimTime last[2] = {0, 0};
  SimTime max_skew = 0;
  int switches = 0;
  int prev = -1;
  for (int a = 0; a < 2; ++a) {
    engine.Spawn(static_cast<uint32_t>(a), "actor", [&, a] {
      for (SimTime now = 0; now <= 2000; now += kStep) {
        Engine::Pace(now);
        last[a] = now;
        max_skew = std::max(max_skew, last[a] - last[1 - a]);
        if (prev != a) ++switches;
        prev = a;
      }
    });
  }
  engine.Run();
  EXPECT_LE(max_skew, kLookahead + kStep);
  EXPECT_GT(switches, 10);  // interleaved, not run one after the other
}

TEST(EngineTest, ParkAndWakeAll) {
  Engine engine;
  WaitPoint wp;
  std::mutex mu;
  bool flag = false;
  std::vector<int> order;
  engine.Spawn(0, "waiter", [&] {
    auto done = [&] {
      std::lock_guard<std::mutex> lock(mu);
      return flag;
    };
    while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
    order.push_back(1);
  });
  engine.Spawn(1, "setter", [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    wp.WakeAll();
    order.push_back(0);
  });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);  // setter finished first; waiter was parked
  EXPECT_EQ(order[1], 1);
}

TEST(EngineTest, ParkDeclinesWhenPredicateAlreadyTrue) {
  Engine engine;
  WaitPoint wp;
  WakeCause cause = WakeCause::kTimer;
  engine.Spawn(0, "t", [&] {
    cause = Engine::Park(&wp, [] { return true; }, 0, Engine::kNoTimer);
  });
  engine.Run();
  EXPECT_EQ(cause, WakeCause::kNotified);
}

TEST(EngineTest, TimedParkJumpsVirtualTime) {
  // A lone task parked with a timer must be released by the virtual-time
  // floor reaching its wake time (a DES jump) — no real-time sleeping, no
  // notifier. If the engine waited in real time this test would hang.
  Engine engine;
  WaitPoint wp;
  WakeCause cause = WakeCause::kNotified;
  engine.Spawn(0, "sleeper", [&] {
    cause = Engine::Park(&wp, [] { return false; }, /*now=*/0,
                         /*wake_at=*/1'000'000'000);
  });
  engine.Run();
  EXPECT_EQ(cause, WakeCause::kTimer);
}

TEST(EngineTest, SpawnFromInsideTask) {
  Engine engine;
  std::atomic<int> ran{0};
  engine.Spawn(0, "parent", [&] {
    ran.fetch_add(1);
    Engine::Current()->Spawn(1, "child", [&] { ran.fetch_add(1); });
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 2);
}

TEST(EngineTest, MultiWorkerCompletesAllTasks) {
  Engine engine({.workers = 4});
  std::atomic<int> ran{0};
  WaitPoint wp;
  std::atomic<bool> flag{false};
  for (int i = 0; i < 32; ++i) {
    engine.Spawn(static_cast<uint32_t>(i % 8), "t", [&] {
      auto done = [&] { return flag.load(); };
      while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
      ran.fetch_add(1);
    });
  }
  engine.Spawn(99, "setter", [&] {
    flag.store(true);
    wp.WakeAll();
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ActorGroupDeathTest, SpawnOutsideTaskAborts) {
  // Actors only run as engine tasks.
  EXPECT_DEATH(
      {
        ActorGroup group;
        group.Spawn(0, "t", [] {});
      },
      "ActorGroup::Spawn called outside an engine task");
}

TEST(ActorGroupTest, SpawnsTasksInsideTask) {
  Engine engine({.workers = 2});
  std::atomic<int> ran{0};
  engine.Spawn(0, "root", [&] {
    ActorGroup group;
    for (int i = 0; i < 8; ++i) {
      group.Spawn(static_cast<uint32_t>(i), "actor",
                  [&] { ran.fetch_add(1); });
    }
    group.Join();
    EXPECT_EQ(ran.load(), 8);
  });
  engine.Run();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ProgressEpochTest, BumpAdvancesAndIdleWaitReturns) {
  const uint64_t before = ProgressEpoch();
  BumpProgress();
  EXPECT_GT(ProgressEpoch(), before);
  // A stale epoch makes IdleWait decline to park.
  Engine engine;
  bool returned = false;
  engine.Spawn(0, "poller", [&] {
    IdleWait(before);
    returned = true;
  });
  engine.Run();
  EXPECT_TRUE(returned);
}

TEST(BlockingWaitDeathTest, WaitOutsideTaskAborts) {
  // A wait that would block must come from an engine task; the registry's
  // blocking retrieve parks through Engine::Park, which rejects the call.
  EXPECT_DEATH(
      {
        FlowRegistry registry;
        (void)registry.RetrieveBlocking("absent",
                                        std::chrono::milliseconds(1));
      },
      "Engine::Park called outside an engine task");
  EXPECT_DEATH(IdleWait(ProgressEpoch()),
               "IdleWait called outside an engine task");
}

TEST(ProgressEpochTest, IdleWaitParksUntilBump) {
  Engine engine;
  std::vector<int> order;
  engine.Spawn(0, "poller", [&] {
    const uint64_t seen = ProgressEpoch();
    // Nothing produced yet: IdleWait must park this task and let the
    // producer run, not spin.
    IdleWait(seen);
    order.push_back(1);
  });
  engine.Spawn(1, "producer", [&] {
    order.push_back(0);
    BumpProgress();
  });
  engine.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

}  // namespace
}  // namespace dfi::exec
