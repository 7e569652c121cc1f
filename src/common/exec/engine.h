#ifndef DFI_COMMON_EXEC_ENGINE_H_
#define DFI_COMMON_EXEC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sim_time.h"

namespace dfi::exec {

class Engine;
struct Task;

/// Park list embedded in a blocking primitive (RingSync, ReadyGate, MPI
/// mailboxes). Tasks park here instead of sleeping an OS thread; WakeAll()
/// moves every parked task back to the run queue.
///
/// The engine runs every task on one thread and switches only when a task
/// parks or yields, so a parker's predicate check and its registration as
/// a waiter cannot interleave with a notifier: no wakeup can be lost.
class WaitPoint {
 public:
  WaitPoint() = default;
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  /// Moves every parked task back to the run queue. Cheap when nothing is
  /// parked (one emptiness check).
  void WakeAll() {
    if (!waiters_.empty()) WakeWaiters();
  }

 private:
  friend class Engine;
  void WakeWaiters();
  std::vector<Task*> waiters_;
};

/// Why a timed park returned.
enum class WakeCause : uint8_t { kNotified, kTimer };

struct EngineOptions {
  /// Ignored: the engine always runs every task on the thread that calls
  /// Run(). Kept so existing `{.workers = n}` initializers still compile.
  uint32_t workers = 1;
  /// Conservative lookahead window in virtual ns: a task may run while its
  /// virtual time is within `lookahead_ns` of the earliest other runnable
  /// task or pending timer (checked by Engine::Pace). Derive from the
  /// minimum link latency (SimConfig::propagation_ns +
  /// SimConfig::nic_process_ns) for network workloads.
  SimTime lookahead_ns = 1000;
};

/// One-thread discrete-event engine, the only way emulated actors run.
/// Actors are cooperatively scheduled fibers (x86-64 only; a switch saves
/// the callee-saved registers and floating-point control and makes no
/// syscall). One run queue ordered by (virtual time, spawn id) and one
/// timer heap decide what runs next: the scheduler releases every timer
/// that is due no later than the earliest runnable task and dispatches the
/// minimal task, which runs until it parks, yields or finishes. A task that
/// parks or yields makes that choice itself and switches straight to the
/// chosen task. Blocking primitives park the fiber (WaitPoint), so hundreds
/// of emulated nodes run on the calling thread, and a run is
/// bit-deterministic.
///
/// Usage:
///   exec::Engine engine;
///   engine.Spawn(node_id, "source-3", [&] { ... });
///   engine.Run();  // returns when every task has finished
class Engine {
 public:
  /// Sentinel for Park(): no timer, wake on Notify only.
  static constexpr SimTime kNoTimer = -1;

  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Adds a task to the run queue. `domain` is the emulated node the task
  /// belongs to; it names the task in diagnostics. Callable before Run()
  /// and from inside a running task.
  void Spawn(uint32_t domain, std::string name, std::function<void()> fn);

  /// Runs tasks on the calling thread until all spawned tasks finish.
  /// Aborts, naming every parked task, when tasks remain but none is
  /// runnable and no timer is pending.
  void Run();

  /// Engine owning the calling fiber; nullptr outside a task.
  static Engine* Current();

  /// Parks the calling task on `wp` until WakeAll, or, when
  /// `wake_at != kNoTimer`, until the scheduler reaches `wake_at` (DES-style
  /// jump: an idle fleet skips straight to the next wake time instead of
  /// sleeping real time). If `changed` already returns true the park is
  /// skipped. `now` (>= 0) reports the task's current virtual time for
  /// run-queue ordering; pass a negative value to keep the last reported
  /// time.
  template <typename Pred>
  static WakeCause Park(WaitPoint* wp, Pred&& changed, SimTime now,
                        SimTime wake_at) {
    using P = std::remove_reference_t<Pred>;
    auto thunk = [](void* p) { return static_cast<bool>((*static_cast<P*>(p))()); };
    return ParkImpl(wp, thunk, &changed, now, wake_at);
  }

  /// Cooperative yield: re-enqueues the calling task at virtual time `now`
  /// and lets the scheduler pick the minimal task.
  static void Yield(SimTime now);

  /// Run-ahead bound: yields at `now` once the calling task is more than
  /// `lookahead_ns` ahead of the earliest other runnable task or pending
  /// timer. A task otherwise runs until it parks, and one that seldom parks
  /// would read state its peers publish (ring footers, credit counters)
  /// before virtually earlier peers had the chance to update it. Call
  /// before such a read. No-op outside a task.
  static void Pace(SimTime now);

  /// Lower bound on the virtual time at which any task of the caller's
  /// engine can still act: the earliest of the caller's dispatch time, the
  /// other runnable tasks and the pending timers (a parked task acts only
  /// after the event that wakes it). 0 outside a task.
  static SimTime Horizon();

 private:
  friend class WaitPoint;
  friend class ActorGroup;
  friend struct Task;
  struct Impl;

  static WakeCause ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                            SimTime now, SimTime wake_at);

  std::unique_ptr<Impl> impl_;
};

/// Monotone counter bumped on every Notify/Enqueue in the process — the
/// global "something happened" signal poll loops park on.
uint64_t ProgressEpoch();
void BumpProgress();

/// Poll-loop backoff. Capture `seen = ProgressEpoch()` *before* the poll
/// round; when the round made no progress, IdleWait(seen) parks the calling
/// task until the epoch moves.
void IdleWait(uint64_t seen_epoch);

/// OS threads in this process (the entries of /proc/self/task). The engine
/// runs every task on the thread that calls Run(), so a count above one
/// means some code started a thread the emulator does not synchronize.
size_t ProcessThreadCount();

/// Spawn-then-join group of actors for library code running inside an
/// engine task: Spawn adds tasks to the caller's engine and Join parks
/// until they all finished. Spawn aborts when called outside a task.
class ActorGroup {
 public:
  ActorGroup() = default;
  ~ActorGroup() { Join(); }
  ActorGroup(const ActorGroup&) = delete;
  ActorGroup& operator=(const ActorGroup&) = delete;

  /// `domain` is the emulated node the actor belongs to.
  void Spawn(uint32_t domain, std::string name, std::function<void()> fn);
  /// Parks until every spawned actor finished.
  void Join();

 private:
  friend class Engine;
  uint32_t live_ = 0;
  WaitPoint done_;
  Engine* engine_ = nullptr;
};

}  // namespace dfi::exec

#endif  // DFI_COMMON_EXEC_ENGINE_H_
