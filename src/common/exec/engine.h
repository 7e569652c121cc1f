#ifndef DFI_COMMON_EXEC_ENGINE_H_
#define DFI_COMMON_EXEC_ENGINE_H_

#include <atomic>
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
/// moves every parked task back to its run queue.
///
/// Lost-wakeup protocol (Dekker-style, see DESIGN.md §engine): a parker
/// increments `nparked_` *before* re-checking the caller's version predicate
/// under the scheduler lock; a notifier bumps its version *before* reading
/// `nparked_`. Both sides use seq_cst, so at least one of them observes the
/// other: either the parker sees the new version and declines to park, or
/// the notifier sees the parker and takes the scheduler lock to wake it.
class WaitPoint {
 public:
  WaitPoint() = default;
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  /// Moves every parked task back to its run queue. Cheap when nothing is
  /// parked or no engine is active (one atomic load).
  void WakeAll();

 private:
  friend class Engine;
  std::atomic<uint32_t> nparked_{0};
  std::vector<Task*> waiters_;  // guarded by Engine::mu_
};

/// Why a timed park returned.
enum class WakeCause : uint8_t { kNotified, kTimer };

struct EngineOptions {
  /// Worker pool size; 0 = one per hardware thread. One worker is the
  /// deterministic configuration: virtual results are bit-identical from
  /// run to run. Larger pools run tasks concurrently but may diverge in
  /// virtual time (lookahead races).
  uint32_t workers = 1;
  /// Conservative lookahead window in virtual ns: a task may run while its
  /// virtual time is within `lookahead_ns` of the engine-wide floor
  /// (checked at dispatch and by Engine::Pace). Derive from the minimum
  /// link latency (SimConfig::propagation_ns + SimConfig::nic_process_ns)
  /// for network workloads.
  SimTime lookahead_ns = 1000;
  /// Fiber stack size (plus one guard page).
  size_t stack_bytes = 256 * 1024;
};

/// Work-stealing virtual-time engine, the only way emulated actors run.
/// Actors are cooperatively scheduled ucontext fibers with per-domain (per
/// emulated node) run queues ordered by (virtual time, spawn id); a fixed
/// worker pool executes any task whose virtual time lies within a
/// conservative lookahead window of the engine-wide virtual-time floor,
/// stealing the globally minimal task when a worker's own domains drain.
/// Blocking primitives park the fiber (WaitPoint), so hundreds of emulated
/// nodes run on a handful of host threads.
///
/// Usage:
///   exec::Engine engine;  // one worker
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

  /// Adds a task to `domain`'s run queue (domains are created on demand).
  /// Callable before Run() and from inside a running task.
  void Spawn(uint32_t domain, std::string name, std::function<void()> fn);

  /// Runs until all spawned tasks finish. The calling thread acts as worker
  /// 0, so `workers == 1` uses no extra OS threads.
  void Run();

  uint32_t workers() const { return workers_; }

  /// Engine owning the calling fiber; nullptr outside a task.
  static Engine* Current();
  /// Engine currently inside Run(), if any (any calling thread).
  static Engine* Active();

  /// Parks the calling task on `wp` until WakeAll, or, when
  /// `wake_at != kNoTimer`, until the engine's virtual floor reaches
  /// `wake_at` (DES-style jump: an idle fleet skips straight to the next
  /// wake time instead of sleeping real time). `changed` is re-evaluated
  /// under the scheduler lock after registering as a waiter; if it already
  /// returns true the park is skipped. `now` (>= 0) reports the task's
  /// current virtual time for run-queue ordering and floor computation;
  /// pass a negative value to keep the last reported time.
  template <typename Pred>
  static WakeCause Park(WaitPoint* wp, Pred&& changed, SimTime now,
                        SimTime wake_at) {
    using P = std::remove_reference_t<Pred>;
    auto thunk = [](void* p) { return static_cast<bool>((*static_cast<P*>(p))()); };
    return ParkImpl(wp, thunk, &changed, now, wake_at);
  }

  /// Cooperative yield: re-enqueues the calling task at virtual time `now`
  /// and lets the scheduler pick the minimal eligible task.
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
  friend void BumpProgress();
  friend void IdleWait(uint64_t seen_epoch);
  friend WakeCause IdleWaitUntil(uint64_t seen_epoch, SimTime now,
                                 SimTime wake_at);
  struct Impl;

  static WakeCause ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                            SimTime now, SimTime wake_at);

  std::unique_ptr<Impl> impl_;
  uint32_t workers_ = 1;
};

/// Monotone counter bumped on every Notify/Enqueue in the process — the
/// global "something happened" signal poll loops park on.
uint64_t ProgressEpoch();
void BumpProgress();

/// Poll-loop backoff. Capture `seen = ProgressEpoch()` *before* the poll
/// round; when the round made no progress, IdleWait(seen) parks the calling
/// task until the epoch moves.
void IdleWait(uint64_t seen_epoch);

/// Timed IdleWait: parks until the progress epoch moves past `seen_epoch`
/// or the engine's virtual floor reaches `wake_at` (kNotified vs kTimer).
/// `now` reports the caller's virtual time as in Engine::Park. Used by
/// bounded poll loops (registry blocking retrieves) whose give-up point is
/// a virtual-time deadline rather than "forever".
WakeCause IdleWaitUntil(uint64_t seen_epoch, SimTime now, SimTime wake_at);

/// Spawn-then-join group of actors for library code running inside an
/// engine task: Spawn adds tasks to the caller's engine and Join parks
/// until they all finished. Spawn aborts when called outside a task.
class ActorGroup {
 public:
  ActorGroup() = default;
  ~ActorGroup() { Join(); }
  ActorGroup(const ActorGroup&) = delete;
  ActorGroup& operator=(const ActorGroup&) = delete;

  /// `domain` is the emulated node the actor belongs to (scheduling
  /// affinity).
  void Spawn(uint32_t domain, std::string name, std::function<void()> fn);
  /// Parks until every spawned actor finished.
  void Join();

 private:
  friend class Engine;
  std::atomic<uint32_t> live_{0};
  WaitPoint done_;
  Engine* engine_ = nullptr;
};

}  // namespace dfi::exec

#endif  // DFI_COMMON_EXEC_ENGINE_H_
