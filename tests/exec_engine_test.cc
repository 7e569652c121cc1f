// Unit tests for the one-thread virtual-time engine (src/common/exec): task
// scheduling order, WaitPoint park/wake, timed parks (DES jumps) and the
// timer heap, ActorGroup spawn/join, the progress-epoch idle protocol, the
// aborts that reject actors and blocking waits outside a task and report a
// stalled run, the state the fiber switch must preserve (stack
// alignment, floating-point control, exception unwinding), and the
// dispatch order of seeded task scripts against the scheduling rule
// written out as a reference model.

#include "common/exec/engine.h"

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
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

// ---- dispatch order against a reference model -----------------------------

/// One step of a scripted task. `wp` names the wait point of kPark,
/// kTimedPark and kWake; `delta` is how far kYield and kPace move the
/// task's clock and how far ahead kTimedPark sets its timer.
struct ScriptStep {
  enum Kind : uint8_t { kYield, kPark, kTimedPark, kWake, kPace };
  Kind kind;
  uint8_t wp;
  SimTime delta;
};
using Scripts = std::vector<std::vector<ScriptStep>>;
/// (task, task clock) at the start of every task and at every return from
/// Yield, Park or Pace: the resumes, and the Paces that did not yield.
using DispatchTrace = std::vector<std::pair<int, SimTime>>;

constexpr int kScriptTasks = 16;  // task 0 is the clock task, no script
constexpr int kScriptWaitPoints = 4;
constexpr int kScriptSteps = 48;
constexpr SimTime kClockStep = 40;
constexpr SimTime kScriptLookahead = 100;

Scripts MakeScripts(uint64_t seed) {
  Xorshift128Plus rng(seed);
  Scripts scripts(kScriptTasks);
  for (int t = 1; t < kScriptTasks; ++t) {
    for (int i = 0; i < kScriptSteps; ++i) {
      scripts[t].push_back(ScriptStep{
          static_cast<ScriptStep::Kind>(rng.NextBelow(5)),
          static_cast<uint8_t>(rng.NextBelow(kScriptWaitPoints)),
          static_cast<SimTime>(1 + rng.NextBelow(300))});
    }
  }
  return scripts;
}

/// Runs the scripts on the engine. The clock task (0) never parks: until
/// every scripted task finished, it wakes the wait points in turn and
/// yields kClockStep later, so an untimed park always ends.
DispatchTrace RunScripts(const Scripts& scripts) {
  Engine engine({.lookahead_ns = kScriptLookahead});
  WaitPoint wps[kScriptWaitPoints];
  DispatchTrace trace;
  int finished = 0;
  engine.Spawn(0, "clock", [&] {
    SimTime now = 0;
    trace.emplace_back(0, now);
    for (int k = 0; finished < kScriptTasks - 1; ++k) {
      wps[k % kScriptWaitPoints].WakeAll();
      now += kClockStep;
      Engine::Yield(now);
      trace.emplace_back(0, now);
    }
  });
  for (int t = 1; t < kScriptTasks; ++t) {
    engine.Spawn(static_cast<uint32_t>(t), "scripted", [&, t] {
      SimTime now = 0;
      trace.emplace_back(t, now);
      for (const ScriptStep& s : scripts[t]) {
        switch (s.kind) {
          case ScriptStep::kYield:
            now += s.delta;
            Engine::Yield(now);
            break;
          case ScriptStep::kPark:
            Engine::Park(&wps[s.wp], [] { return false; }, now,
                         Engine::kNoTimer);
            break;
          case ScriptStep::kTimedPark:
            if (Engine::Park(&wps[s.wp], [] { return false; }, now,
                             now + s.delta) == WakeCause::kTimer) {
              now += s.delta;
            }
            break;
          case ScriptStep::kWake:
            wps[s.wp].WakeAll();
            continue;  // not a scheduling point
          case ScriptStep::kPace:
            now += s.delta;
            Engine::Pace(now);
            break;
        }
        trace.emplace_back(t, now);
      }
      ++finished;
    });
  }
  engine.Run();
  return trace;
}

/// The engine's scheduling rule, written out over ordered sets: a task
/// runs until it parks, yields or finishes (Pace yields when the task is
/// more than the lookahead ahead of the earliest runnable task or timer);
/// then the timers due at or before the earliest runnable vt (or, with
/// nothing runnable, the earliest timers) are released in (wake time, id)
/// order, each at its wake time, and the minimal (vt, id) runs next.
class DispatchModel {
 public:
  explicit DispatchModel(const Scripts& scripts) : scripts_(scripts) {
    for (int t = 0; t < kScriptTasks; ++t) run_.insert({0, t});
  }

  DispatchTrace Run() {
    while (!run_.empty() || !timers_.empty()) {
      const int t = PopNext();
      if (t == last_) ++self_handoffs_;
      last_ = t;
      Resume(t);
    }
    return trace_;
  }

  /// What the scripts exercised, for the test to check.
  int timer_wakes() const { return timer_wakes_; }
  int notified_timed_parks() const { return notified_timed_parks_; }
  int pace_yields() const { return pace_yields_; }
  int self_handoffs() const { return self_handoffs_; }

 private:
  struct ModelTask {
    size_t pc = 0;  // next script step (clock task: wake-ups issued)
    SimTime now = 0;
    SimTime vt = 0;
    SimTime timer = -1;  // armed wake time, or -1
    int wp = -1;         // wait point parked on, or -1
    bool started = false;
    bool timer_woke = false;
  };

  SimTime Floor() const {
    SimTime f = std::numeric_limits<SimTime>::max();
    if (!run_.empty()) f = run_.begin()->first;
    if (!timers_.empty()) f = std::min(f, timers_.begin()->first);
    return f;
  }

  int PopNext() {
    const SimTime floor = Floor();
    while (!timers_.empty() && timers_.begin()->first <= floor) {
      const auto [key, t] = *timers_.begin();
      timers_.erase(timers_.begin());
      std::vector<int>& w = waiters_[tasks_[t].wp];
      w.erase(std::find(w.begin(), w.end(), t));
      tasks_[t].timer = -1;
      tasks_[t].wp = -1;
      tasks_[t].timer_woke = true;
      ++timer_wakes_;
      tasks_[t].vt = key;
      run_.insert({key, t});
    }
    const int t = run_.begin()->second;
    run_.erase(run_.begin());
    return t;
  }

  void WakeAll(int wp) {
    for (int t : waiters_[wp]) {
      if (tasks_[t].timer >= 0) {
        timers_.erase({tasks_[t].timer, t});
        ++notified_timed_parks_;
      }
      tasks_[t].timer = -1;
      tasks_[t].wp = -1;
      tasks_[t].timer_woke = false;
      run_.insert({tasks_[t].vt, t});
    }
    waiters_[wp].clear();
  }

  void Park(int t, int wp, SimTime wake_at) {
    ModelTask& m = tasks_[t];
    m.vt = m.now;
    m.wp = wp;
    waiters_[wp].push_back(t);
    if (wake_at >= 0) {
      m.timer = wake_at;
      timers_.insert({wake_at, t});
    }
  }

  void Yield(int t) {
    tasks_[t].vt = tasks_[t].now;
    run_.insert({tasks_[t].vt, t});
  }

  /// Runs task `t` from where it stopped until it blocks again or ends.
  void Resume(int t) {
    ModelTask& m = tasks_[t];
    if (m.started && t != 0) {
      const ScriptStep& last = scripts_[t][m.pc - 1];
      if (last.kind == ScriptStep::kTimedPark && m.timer_woke) {
        m.now += last.delta;
      }
    }
    m.started = true;
    trace_.emplace_back(t, m.now);
    if (t == 0) {
      if (finished_ == kScriptTasks - 1) return;
      WakeAll(static_cast<int>(m.pc++ % kScriptWaitPoints));
      m.now += kClockStep;
      Yield(t);
      return;
    }
    while (m.pc < scripts_[t].size()) {
      const ScriptStep& s = scripts_[t][m.pc++];
      switch (s.kind) {
        case ScriptStep::kYield:
          m.now += s.delta;
          Yield(t);
          return;
        case ScriptStep::kPark:
          Park(t, s.wp, -1);
          return;
        case ScriptStep::kTimedPark:
          Park(t, s.wp, m.now + s.delta);
          return;
        case ScriptStep::kWake:
          WakeAll(s.wp);
          break;
        case ScriptStep::kPace:
          m.now += s.delta;
          if (m.now - kScriptLookahead > Floor()) {
            ++pace_yields_;
            Yield(t);
            return;
          }
          trace_.emplace_back(t, m.now);
          break;
      }
    }
    ++finished_;
  }

  const Scripts& scripts_;
  ModelTask tasks_[kScriptTasks];
  std::set<std::pair<SimTime, int>> run_;
  std::set<std::pair<SimTime, int>> timers_;
  std::vector<int> waiters_[kScriptWaitPoints];
  int finished_ = 0;
  DispatchTrace trace_;
  int last_ = -1;
  int timer_wakes_ = 0;
  int notified_timed_parks_ = 0;
  int pace_yields_ = 0;
  int self_handoffs_ = 0;
};

TEST(EngineTest, DirectHandoffKeepsDispatchOrder) {
  // 16 tasks run seeded scripts of yields, untimed and timed parks on 4
  // wait points, wake-ups and paces; the resumes the engine produces must
  // be the ones the written-out scheduling rule predicts, whichever way
  // the engine hands the thread from task to task.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    const Scripts scripts = MakeScripts(seed);
    const DispatchTrace got = RunScripts(scripts);
    DispatchModel model(scripts);
    const DispatchTrace want = model.Run();
    ASSERT_EQ(got.size(), want.size());
    size_t first_diff = 0;
    while (first_diff < got.size() && got[first_diff] == want[first_diff]) {
      ++first_diff;
    }
    EXPECT_EQ(first_diff, got.size()) << "first divergent resume";
    // The seeds exercise both wake causes of a timed park, paces that
    // yield and resumes of the task that just stopped.
    EXPECT_GT(model.timer_wakes(), 0);
    EXPECT_GT(model.notified_timed_parks(), 0);
    EXPECT_GT(model.pace_yields(), 0);
    EXPECT_GT(model.self_handoffs(), 0);
  }
}

}  // namespace
}  // namespace dfi::exec
