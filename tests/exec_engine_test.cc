// Unit tests for the one-thread virtual-time engine (src/common/exec): task
// scheduling order, WaitPoint park/wake, timed parks (DES jumps) and the
// timer heap, ActorGroup spawn/join, the progress-epoch idle protocol, the
// aborts that reject actors and blocking waits outside a task and report a
// stalled run, and the state the fiber switch must preserve (stack
// alignment, floating-point control, exception unwinding).

#include "common/exec/engine.h"

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/sim_time.h"

namespace dfi::exec {
namespace {

TEST(EngineTest, RunsAllTasks) {
  Engine engine;
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(i, "t", [&] { ++ran; });
  }
  engine.Run();
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(ProcessThreadCount(), 1u);  // the run kept to this thread
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
  bool flag = false;
  std::vector<int> order;
  engine.Spawn(0, "waiter", [&] {
    auto done = [&] { return flag; };
    while (!done()) Engine::Park(&wp, done, 0, Engine::kNoTimer);
    order.push_back(1);
  });
  engine.Spawn(1, "setter", [&] {
    flag = true;
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
  int ran = 0;
  engine.Spawn(0, "parent", [&] {
    ++ran;
    Engine::Current()->Spawn(1, "child", [&] { ++ran; });
  });
  engine.Run();
  EXPECT_EQ(ran, 2);
}

TEST(EngineDeathTest, StallNamesEveryParkedTask) {
  // Both tasks park on wait points nobody can wake and no timer is
  // pending: the engine knows at once that the run cannot finish and
  // aborts naming each parked task and its domain.
  EXPECT_DEATH(
      {
        Engine engine;
        WaitPoint left_wp;
        WaitPoint right_wp;
        engine.Spawn(3, "left", [&] {
          Engine::Park(&left_wp, [] { return false; }, 0, Engine::kNoTimer);
        });
        engine.Spawn(5, "right", [&] {
          Engine::Park(&right_wp, [] { return false; }, 0, Engine::kNoTimer);
        });
        engine.Run();
      },
      "engine stalled: parked tasks never woken: left \\(domain 3\\) "
      "right \\(domain 5\\)");
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
  Engine engine;
  int ran = 0;
  engine.Spawn(0, "root", [&] {
    ActorGroup group;
    for (int i = 0; i < 8; ++i) {
      group.Spawn(static_cast<uint32_t>(i), "actor", [&] { ++ran; });
    }
    group.Join();
    EXPECT_EQ(ran, 8);
  });
  engine.Run();
  EXPECT_EQ(ran, 8);
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
  // A wait that would block must come from an engine task: every blocking
  // primitive parks through Engine::Park, which rejects the call.
  EXPECT_DEATH(
      {
        WaitPoint wp;
        (void)Engine::Park(&wp, [] { return false; }, 0, Engine::kNoTimer);
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

TEST(FiberSwitchTest, FreshFiberStackIsSixteenByteAligned) {
  // The SysV ABI promises every function a 16-byte aligned stack at entry;
  // compilers place aligned locals and glibc's printf uses aligned SSE
  // spills on that promise.
  Engine engine;
  uintptr_t addr = 1;
  char printed[32] = {};
  engine.Spawn(0, "fresh", [&] {
    alignas(16) char probe[16];
    addr = reinterpret_cast<uintptr_t>(probe);
    std::snprintf(printed, sizeof printed, "%f", 2.5);
  });
  engine.Run();
  EXPECT_EQ(addr % 16, 0u);
  EXPECT_STREQ(printed, "2.500000");
}

TEST(FiberSwitchTest, FloatingPointControlIsPerTask) {
  // Task a sets upward rounding and parks; task b must still round to
  // nearest, and a must find its mode again when it resumes. The division
  // checks MXCSR (SSE), fegetround the x87 control word.
  Engine engine;
  WaitPoint wp;
  bool woken = false;
  int a_mode = -1;
  int b_mode = -1;
  double a_third = 0;
  double b_third = 0;
  volatile double one = 1.0;
  volatile double three = 3.0;
  engine.Spawn(0, "a", [&] {
    std::fesetround(FE_UPWARD);
    while (!woken) {
      Engine::Park(&wp, [&] { return woken; }, 0, Engine::kNoTimer);
    }
    a_mode = std::fegetround();
    a_third = one / three;
  });
  engine.Spawn(1, "b", [&] {
    b_mode = std::fegetround();
    b_third = one / three;
    woken = true;
    wp.WakeAll();
  });
  engine.Run();
  const int main_mode = std::fegetround();
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(a_mode, FE_UPWARD);
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_GT(a_third, b_third);  // 1/3 rounded up vs to nearest (down)
  EXPECT_EQ(main_mode, FE_TONEAREST);
}

[[gnu::noinline]] void ParkThenThrow(WaitPoint* wp, const bool* woken) {
  while (!*woken) {
    Engine::Park(wp, [woken] { return *woken; }, 0, Engine::kNoTimer);
  }
  throw std::runtime_error("thrown after park");
}

TEST(FiberSwitchTest, ExceptionCaughtInsideTaskAcrossPark) {
  Engine engine;
  WaitPoint wp;
  bool woken = false;
  std::string caught;
  engine.Spawn(0, "thrower", [&] {
    try {
      ParkThenThrow(&wp, &woken);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  });
  engine.Spawn(1, "waker", [&] {
    woken = true;
    wp.WakeAll();
  });
  engine.Run();
  EXPECT_EQ(caught, "thrown after park");
}

TEST(EngineTest, TimerHeapReleasesInWakeTimeThenSpawnOrder) {
  // 64 tasks park twice each, each on its own wait point with a seeded
  // timer (multiples of 50 ns, so wake times tie). A waker task, itself on
  // timers, notifies a seeded sample of the parked tasks early — mostly
  // ones whose timer is not the heap top, so the heap erases from the
  // middle. Every park must return once, with kNotified exactly when it was
  // notified; timer wakes must resume at their wake time, in ascending
  // (wake time, spawn order).
  constexpr int kTasks = 64;
  constexpr int kRounds = 2;
  Engine engine;
  WaitPoint wps[kTasks];
  int tokens[kTasks] = {};
  SimTime parked_key[kTasks];
  SimTime notified_at[kTasks] = {};
  std::fill(std::begin(parked_key), std::end(parked_key), SimTime{-1});
  Xorshift128Plus rng(0x7157);
  int returns = 0;
  int cause_mismatches = 0;
  int wrong_wake_times = 0;
  std::vector<std::tuple<SimTime, int>> timer_wakes;
  int notified = 0;
  int notified_below_top = 0;

  for (int i = 0; i < kTasks; ++i) {
    engine.Spawn(static_cast<uint32_t>(i), "sleeper", [&, i] {
      SimTime now = 0;
      for (int r = 0; r < kRounds; ++r) {
        const SimTime key =
            now + 50 * static_cast<SimTime>(1 + rng.NextBelow(40));
        const int seen = tokens[i];
        parked_key[i] = key;
        const WakeCause cause = Engine::Park(
            &wps[i], [&, i, seen] { return tokens[i] != seen; }, now, key);
        parked_key[i] = -1;
        ++returns;
        const bool was_notified = tokens[i] != seen;
        if (was_notified != (cause == WakeCause::kNotified)) {
          ++cause_mismatches;
        }
        if (was_notified) {
          now = notified_at[i];
        } else {
          if (Engine::Horizon() != key) ++wrong_wake_times;
          timer_wakes.emplace_back(key, i);
          now = key;
        }
      }
    });
  }
  engine.Spawn(kTasks, "waker", [&] {
    WaitPoint self;
    for (SimTime t = 125; t <= 4000; t += 100) {
      Engine::Park(&self, [] { return false; }, t - 100, t);
      SimTime top = -1;
      for (SimTime k : parked_key) {
        if (k >= 0 && (top < 0 || k < top)) top = k;
      }
      for (int pick = 0; pick < 2; ++pick) {
        const int j = static_cast<int>(rng.NextBelow(kTasks));
        if (parked_key[j] < 0) continue;
        if (parked_key[j] > top) ++notified_below_top;
        ++notified;
        ++tokens[j];
        notified_at[j] = t;
        parked_key[j] = -1;
        wps[j].WakeAll();
      }
    }
  });
  engine.Run();

  EXPECT_EQ(returns, kTasks * kRounds);
  EXPECT_EQ(cause_mismatches, 0);
  EXPECT_EQ(wrong_wake_times, 0);
  EXPECT_TRUE(std::is_sorted(timer_wakes.begin(), timer_wakes.end()));
  EXPECT_EQ(std::adjacent_find(timer_wakes.begin(), timer_wakes.end()),
            timer_wakes.end());
  // The seeds exercise what the test is about.
  EXPECT_GT(notified_below_top, 0);
  EXPECT_GT(notified, 8);
  int ties = 0;
  for (size_t k = 1; k < timer_wakes.size(); ++k) {
    ties += std::get<0>(timer_wakes[k]) == std::get<0>(timer_wakes[k - 1]);
  }
  EXPECT_GT(ties, 0);
}

}  // namespace
}  // namespace dfi::exec
