#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "common/exec/engine.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "common/logging.h"

// Sanitizer fiber support: without these annotations ASan cannot track the
// fiber stacks across dfi_exec_switch and TSan reports every cross-fiber
// access as a race. Both interfaces are feature-detected so plain builds
// pay nothing.
#if defined(__SANITIZE_ADDRESS__)
#define DFI_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DFI_EXEC_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define DFI_EXEC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DFI_EXEC_TSAN 1
#endif
#endif

#if defined(DFI_EXEC_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(DFI_EXEC_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "exec::Engine's fiber switch is written for x86-64 (SysV ABI) only"
#endif

// Fiber switch: saves the SysV x86-64 callee-saved state (rbp, rbx,
// r12-r15, MXCSR and the x87 control word) on the current stack, stores the
// stack pointer in *save_sp, loads load_sp and restores the same state from
// there. Everything else is caller-saved, so the C++ call site has already
// spilled it. The signal mask is not switched: no fiber changes it, and
// saving and restoring it would cost two rt_sigprocmask syscalls.
//
// A new fiber's stack starts with a frame (SwitchFrame below) whose return
// address is dfi_exec_fiber_entry: it calls the function in r13 with the
// argument in r12 and never returns. `.cfi_undefined rip` ends unwinding
// there.
extern "C" void dfi_exec_switch(void** save_sp, void* load_sp);
extern "C" void dfi_exec_fiber_entry();

asm(R"(
  .pushsection .text
  .globl dfi_exec_switch
  .hidden dfi_exec_switch
  .type dfi_exec_switch, @function
  .p2align 4
dfi_exec_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  fnstcw (%rsp)
  stmxcsr 8(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size dfi_exec_switch, .-dfi_exec_switch

  .globl dfi_exec_fiber_entry
  .hidden dfi_exec_fiber_entry
  .type dfi_exec_fiber_entry, @function
  .p2align 4
dfi_exec_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size dfi_exec_fiber_entry, .-dfi_exec_fiber_entry
  .popsection
)");

namespace dfi::exec {

namespace {

constexpr SimTime kMaxSimTime = std::numeric_limits<SimTime>::max();

/// What dfi_exec_switch leaves on a suspended stack, lowest address first.
struct SwitchFrame {
  uint16_t fpu_cw;
  uint16_t pad0[3];
  uint32_t mxcsr;
  uint32_t pad1;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  uint64_t ret;
};
static_assert(sizeof(SwitchFrame) == 72);

/// One switchable execution context: either a worker thread's native stack
/// or a task's fiber stack.
struct FiberCtx {
  void* sp = nullptr;  // saved stack pointer while switched out
#if defined(DFI_EXEC_ASAN)
  void* asan_fake = nullptr;
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
#if defined(DFI_EXEC_TSAN)
  void* tsan_fiber = nullptr;
#endif
};

std::atomic<Engine*> g_active_engine{nullptr};
std::atomic<uint64_t> g_progress_epoch{0};

}  // namespace

struct Task {
  enum class State : uint8_t { kRunnable, kRunning, kParked, kDone };
  static constexpr size_t kNotTimed = SIZE_MAX;

  Engine::Impl* impl = nullptr;
  uint64_t id = 0;
  uint32_t domain = 0;
  std::string name;
  std::function<void()> fn;

  /// Last virtual time the task reported at a scheduling point. Run queues
  /// are ordered by (vt, id); the engine-wide floor is the minimum over
  /// runnable and running tasks and pending timer wakeups.
  SimTime vt = 0;
  State state = State::kRunnable;
  /// While running: the earliest virtual time of any other runnable task or
  /// pending timer, set at dispatch and lowered by every wakeup since (see
  /// Engine::Pace). Written under the scheduler lock, read without it.
  std::atomic<SimTime> pace_floor{kMaxSimTime};

  WaitPoint* wp = nullptr;
  /// Timer wake time and slot in Engine::Impl::timed_ (kNotTimed if none).
  SimTime timed_key = 0;
  size_t timed_slot = kNotTimed;
  WakeCause wake_cause = WakeCause::kNotified;
  ActorGroup* group = nullptr;

  FiberCtx ctx;
  void* stack_base = nullptr;  // mmap base; first page is a PROT_NONE guard
  size_t stack_total = 0;
};

namespace {

thread_local Task* g_current_task = nullptr;
thread_local FiberCtx* g_worker_ctx = nullptr;

/// Switches from `from` to `to`. The caller must hold the engine mutex; it
/// stays held across the switch (same OS thread) and the resumed side is
/// responsible for releasing it.
void SwitchContext(FiberCtx* from, FiberCtx* to) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_start_switch_fiber(&from->asan_fake, to->stack_bottom,
                                 to->stack_size);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  dfi_exec_switch(&from->sp, to->sp);
  // Resumed in `from` again (possibly on a different OS thread / worker).
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(from->asan_fake, nullptr, nullptr);
#endif
}

/// Final switch away from a finished task: its fake stack is released.
void SwitchContextDying(FiberCtx* from, FiberCtx* to) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_start_switch_fiber(nullptr, to->stack_bottom, to->stack_size);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  dfi_exec_switch(&from->sp, to->sp);
  DFI_CHECK(false) << "finished task resumed";
}

}  // namespace

struct Engine::Impl {
  struct Domain {
    std::vector<Task*> heap;  // min-heap by (vt, id)
  };
  struct RunningSlot {
    Task* task = nullptr;
    SimTime vt = 0;  // vt at dispatch; conservative lower bound while running
  };

  static bool HeapAfter(const Task* a, const Task* b) {
    return a->vt != b->vt ? a->vt > b->vt : a->id > b->id;
  }

  EngineOptions opts;
  Engine* self = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Domain> domains_;
  std::vector<Task*> timed_;  // timer heap, see ArmTimerLocked
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<RunningSlot> running_;
  uint64_t next_id_ = 0;
  size_t live_ = 0;
  uint32_t rescues_ = 0;
  WaitPoint idle_point_;

  // ---- run-queue plumbing (all under mu_) --------------------------------

  void MakeRunnableLocked(Task* t) {
    t->state = Task::State::kRunnable;
    Domain& d = domains_[t->domain];
    d.heap.push_back(t);
    std::push_heap(d.heap.begin(), d.heap.end(), HeapAfter);
    LowerPaceFloorsLocked(t->vt);
  }

  /// A task became runnable (or a timer was armed) at `vt`: running tasks
  /// may no longer run more than a lookahead beyond it.
  void LowerPaceFloorsLocked(SimTime vt) {
    for (const RunningSlot& slot : running_) {
      if (slot.task == nullptr) continue;
      std::atomic<SimTime>& floor = slot.task->pace_floor;
      if (vt < floor.load(std::memory_order_relaxed)) {
        floor.store(vt, std::memory_order_relaxed);
      }
    }
  }

  Task* PopDomainLocked(uint32_t dom) {
    Domain& d = domains_[dom];
    std::pop_heap(d.heap.begin(), d.heap.end(), HeapAfter);
    Task* t = d.heap.back();
    d.heap.pop_back();
    return t;
  }

  SimTime FloorLocked() const {
    SimTime f = kMaxSimTime;
    for (const RunningSlot& slot : running_) {
      if (slot.task != nullptr) f = std::min(f, slot.vt);
    }
    for (const Domain& d : domains_) {
      if (!d.heap.empty()) f = std::min(f, d.heap.front()->vt);
    }
    if (!timed_.empty()) f = std::min(f, timed_.front()->timed_key);
    return f;
  }

  /// Moves timer-parked tasks whose wake time the floor has reached back to
  /// their run queues (the DES jump: an otherwise idle fleet skips straight
  /// to the next wake time). Returns whether anything was released.
  bool ReleaseTimedLocked(SimTime floor) {
    bool released = false;
    while (!timed_.empty() && timed_.front()->timed_key <= floor) {
      Task* t = timed_.front();
      DisarmTimerLocked(t);
      DetachWaiterLocked(t);
      t->wake_cause = WakeCause::kTimer;
      t->vt = t->timed_key;  // the wait ledger says this much time passed
      MakeRunnableLocked(t);
      released = true;
    }
    return released;
  }

  // ---- timer heap (all under mu_) ----------------------------------------
  // timed_ is a binary min-heap by (timed_key, id) whose entries record
  // their own slot, so a notify that beats the timer removes the entry in
  // O(log n) and no operation allocates once the vector has grown.

  static bool TimerAfter(const Task* a, const Task* b) {
    return a->timed_key != b->timed_key ? a->timed_key > b->timed_key
                                        : a->id > b->id;
  }

  void PlaceTimerLocked(size_t slot, Task* t) {
    timed_[slot] = t;
    t->timed_slot = slot;
  }

  void SiftTimerUpLocked(size_t slot) {
    Task* t = timed_[slot];
    while (slot > 0) {
      const size_t parent = (slot - 1) / 2;
      if (!TimerAfter(timed_[parent], t)) break;
      PlaceTimerLocked(slot, timed_[parent]);
      slot = parent;
    }
    PlaceTimerLocked(slot, t);
  }

  void SiftTimerDownLocked(size_t slot) {
    Task* t = timed_[slot];
    for (;;) {
      size_t child = 2 * slot + 1;
      if (child >= timed_.size()) break;
      if (child + 1 < timed_.size() &&
          TimerAfter(timed_[child], timed_[child + 1])) {
        ++child;
      }
      if (!TimerAfter(t, timed_[child])) break;
      PlaceTimerLocked(slot, timed_[child]);
      slot = child;
    }
    PlaceTimerLocked(slot, t);
  }

  void ArmTimerLocked(Task* t) {
    timed_.push_back(t);
    SiftTimerUpLocked(timed_.size() - 1);
  }

  void DisarmTimerLocked(Task* t) {
    const size_t slot = t->timed_slot;
    Task* last = timed_.back();
    timed_.pop_back();
    t->timed_slot = Task::kNotTimed;
    if (last == t) return;
    PlaceTimerLocked(slot, last);
    SiftTimerUpLocked(slot);
    SiftTimerDownLocked(last->timed_slot);
  }

  void DetachWaiterLocked(Task* t) {
    DFI_CHECK(t->wp != nullptr) << "parked task without wait point";
    auto& w = t->wp->waiters_;
    auto it = std::find(w.begin(), w.end(), t);
    DFI_CHECK(it != w.end()) << "parked task missing from wait point";
    w.erase(it);
    t->wp->nparked_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void WakeAllOfLocked(WaitPoint* wp) {
    for (Task* t : wp->waiters_) {
      if (t->timed_slot != Task::kNotTimed) DisarmTimerLocked(t);
      t->wake_cause = WakeCause::kNotified;
      MakeRunnableLocked(t);
    }
    wp->waiters_.clear();
    wp->nparked_.store(0, std::memory_order_seq_cst);
  }

  void WakeAllOf(WaitPoint* wp) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      WakeAllOfLocked(wp);
    }
    cv_.notify_all();
  }

  /// Picks worker `w`'s next task: the minimal task among the worker's own
  /// domains if it lies within the lookahead window, else the globally
  /// minimal task (stealing). Returns nullptr when nothing is eligible.
  Task* PickEligibleLocked(uint32_t w, SimTime floor) {
    const SimTime horizon =
        (floor >= kMaxSimTime - opts.lookahead_ns) ? kMaxSimTime
                                                   : floor + opts.lookahead_ns;
    uint32_t best_dom = UINT32_MAX;
    const Task* best = nullptr;
    for (uint32_t dom = w; dom < domains_.size(); dom += opts.workers) {
      const Domain& d = domains_[dom];
      if (d.heap.empty()) continue;
      const Task* top = d.heap.front();
      if (best == nullptr || HeapAfter(best, top)) {
        best = top;
        best_dom = dom;
      }
    }
    if (best == nullptr || best->vt > horizon) {
      // Own queues drained (or too far ahead): steal the global minimum.
      best = nullptr;
      for (uint32_t dom = 0; dom < domains_.size(); ++dom) {
        const Domain& d = domains_[dom];
        if (d.heap.empty()) continue;
        const Task* top = d.heap.front();
        if (best == nullptr || HeapAfter(best, top)) {
          best = top;
          best_dom = dom;
        }
      }
    }
    if (best == nullptr || best->vt > horizon) return nullptr;
    return PopDomainLocked(best_dom);
  }

  /// Last-resort sweep when every worker is idle yet live tasks remain:
  /// wakes all parked tasks so they re-check their predicates. The park
  /// protocol makes lost wakeups impossible by construction, so this fires
  /// only on bugs — after repeated fruitless sweeps it aborts with the
  /// stalled-task list instead of hanging silently.
  void RescueLocked() {
    bool any_ready = !timed_.empty();
    for (const Domain& d : domains_) any_ready |= !d.heap.empty();
    for (const RunningSlot& s : running_) any_ready |= s.task != nullptr;
    if (any_ready || live_ == 0) return;
    ++rescues_;
    if (rescues_ >= 200) {
      std::string stalled;
      for (const auto& t : tasks_) {
        if (t->state == Task::State::kParked) stalled += " " + t->name;
      }
      DFI_CHECK(false) << "engine stalled: parked tasks never woken:"
                       << stalled;
    }
    for (const auto& t : tasks_) {
      if (t->state != Task::State::kParked) continue;
      if (t->timed_slot != Task::kNotTimed) DisarmTimerLocked(t.get());
      DetachWaiterLocked(t.get());
      t->wake_cause = WakeCause::kNotified;
      MakeRunnableLocked(t.get());
    }
  }

  // ---- fiber lifecycle ----------------------------------------------------

  static void Trampoline(Task* t);

  void CreateFiber(Task* t) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t stack = (opts.stack_bytes + page - 1) / page * page;
    t->stack_total = stack + page;
    void* base = mmap(nullptr, t->stack_total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    DFI_CHECK(base != MAP_FAILED) << "fiber stack mmap failed";
    DFI_CHECK(mprotect(base, page, PROT_NONE) == 0) << "guard page";
    t->stack_base = base;
    char* bottom = static_cast<char*>(base) + page;
#if defined(DFI_EXEC_ASAN)
    // The mapping may reuse the addresses of a finished fiber whose frames
    // never unwound; clear the shadow poison they left behind.
    __asan_unpoison_memory_region(bottom, stack);
    t->ctx.stack_bottom = bottom;
    t->ctx.stack_size = stack;
#endif
#if defined(DFI_EXEC_TSAN)
    t->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
    // The first switch into the task pops this frame and returns into
    // dfi_exec_fiber_entry, which calls Trampoline(t) with the stack 16-byte
    // aligned: the frame ends 16 bytes below the (page-aligned) top.
    // rbp = 0 ends frame-pointer stack walks.
    auto* frame = new (bottom + stack - 16 - sizeof(SwitchFrame)) SwitchFrame{};
    frame->r12 = reinterpret_cast<uintptr_t>(t);
    frame->r13 = reinterpret_cast<uintptr_t>(&Trampoline);
    frame->ret = reinterpret_cast<uintptr_t>(&dfi_exec_fiber_entry);
    // The task starts with its creator's floating-point control state.
    asm volatile("fnstcw %0\n\tstmxcsr %1"
                 : "=m"(frame->fpu_cw), "=m"(frame->mxcsr));
    t->ctx.sp = frame;
  }

  void ReleaseFiber(Task* t) {
#if defined(DFI_EXEC_TSAN)
    if (t->ctx.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(t->ctx.tsan_fiber);
      t->ctx.tsan_fiber = nullptr;
    }
#endif
    if (t->stack_base != nullptr) {
      munmap(t->stack_base, t->stack_total);
      t->stack_base = nullptr;
    }
    t->fn = nullptr;
  }

  void SpawnLocked(uint32_t domain, std::string name, std::function<void()> fn,
                   ActorGroup* group) {
    if (domain >= domains_.size()) domains_.resize(domain + 1);
    auto task = std::make_unique<Task>();
    Task* t = task.get();
    t->impl = this;
    t->id = next_id_++;
    t->domain = domain;
    t->name = std::move(name);
    t->fn = std::move(fn);
    t->group = group;
    // Children start at the spawner's virtual time so a late spawn does not
    // drag the engine floor back to zero.
    t->vt = (g_current_task != nullptr && g_current_task->impl == this)
                ? g_current_task->vt
                : 0;
    CreateFiber(t);
    ++live_;
    MakeRunnableLocked(t);
    tasks_.push_back(std::move(task));
  }

  /// Called from a finishing task's fiber; never returns.
  [[noreturn]] void FinishCurrentTask(Task* t) {
    mu_.lock();
    t->state = Task::State::kDone;
    --live_;
    rescues_ = 0;
    if (t->group != nullptr &&
        t->group->live_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      WakeAllOfLocked(&t->group->done_);
    }
    cv_.notify_all();
    SwitchContextDying(&t->ctx, g_worker_ctx);
    __builtin_unreachable();
  }

  void WorkerLoop(uint32_t w) {
    FiberCtx self_ctx;
#if defined(DFI_EXEC_ASAN)
    {
      pthread_attr_t attr;
      if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void* addr = nullptr;
        size_t size = 0;
        pthread_attr_getstack(&attr, &addr, &size);
        self_ctx.stack_bottom = addr;
        self_ctx.stack_size = size;
        pthread_attr_destroy(&attr);
      }
    }
#endif
#if defined(DFI_EXEC_TSAN)
    self_ctx.tsan_fiber = __tsan_get_current_fiber();
#endif
    g_worker_ctx = &self_ctx;

    mu_.lock();
    for (;;) {
      if (live_ == 0) {
        cv_.notify_all();
        break;
      }
      const SimTime floor = FloorLocked();
      if (ReleaseTimedLocked(floor)) {
        cv_.notify_all();
        continue;
      }
      Task* t = PickEligibleLocked(w, floor);
      if (t == nullptr) {
        std::unique_lock<std::mutex> lk(mu_, std::adopt_lock);
        if (cv_.wait_for(lk, std::chrono::milliseconds(50)) ==
            std::cv_status::timeout) {
          RescueLocked();
        }
        lk.release();  // keep mu_ held for the next iteration
        continue;
      }
      t->state = Task::State::kRunning;
      t->pace_floor.store(FloorLocked(), std::memory_order_relaxed);
      running_[w] = RunningSlot{t, t->vt};
      g_current_task = t;
      SwitchContext(&self_ctx, &t->ctx);
      // The task parked, yielded or finished; mu_ is held again.
      g_current_task = nullptr;
      running_[w].task = nullptr;
      if (t->state == Task::State::kDone) ReleaseFiber(t);
    }
    mu_.unlock();
    g_worker_ctx = nullptr;
  }
};

void Engine::Impl::Trampoline(Task* t) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(t->ctx.asan_fake, nullptr, nullptr);
#endif
  t->impl->mu_.unlock();  // dispatched with the scheduler lock held
  t->fn();
  t->impl->FinishCurrentTask(t);
}

// ---- Engine --------------------------------------------------------------

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  impl_->self = this;
  workers_ = options.workers != 0 ? options.workers
                                  : std::max(1u,
                                             std::thread::hardware_concurrency());
  impl_->opts.workers = workers_;
  impl_->running_.resize(workers_);
}

Engine::~Engine() {
  for (const auto& t : impl_->tasks_) impl_->ReleaseFiber(t.get());
}

void Engine::Spawn(uint32_t domain, std::string name,
                   std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(impl_->mu_);
  impl_->SpawnLocked(domain, std::move(name), std::move(fn), nullptr);
  impl_->cv_.notify_all();
}

void Engine::Run() {
  Engine* expected = nullptr;
  DFI_CHECK(g_active_engine.compare_exchange_strong(expected, this))
      << "nested Engine::Run";
  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  for (uint32_t w = 1; w < workers_; ++w) {
    pool.emplace_back([this, w] { impl_->WorkerLoop(w); });
  }
  impl_->WorkerLoop(0);
  for (std::thread& th : pool) th.join();
  g_active_engine.store(nullptr);
}

Engine* Engine::Current() {
  return g_current_task != nullptr ? g_current_task->impl->self : nullptr;
}

Engine* Engine::Active() {
  return g_active_engine.load(std::memory_order_seq_cst);
}

WakeCause Engine::ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                           SimTime now, SimTime wake_at) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Engine::Park called outside an engine task";
  Impl* im = t->impl;
  im->mu_.lock();
  if (now >= 0) t->vt = now;
  // Dekker handshake: publish intent to park before re-checking the
  // condition; notifiers bump their version before reading nparked_.
  wp->nparked_.fetch_add(1, std::memory_order_seq_cst);
  if (changed(arg)) {
    wp->nparked_.fetch_sub(1, std::memory_order_seq_cst);
    im->mu_.unlock();
    return WakeCause::kNotified;
  }
  t->state = Task::State::kParked;
  t->wp = wp;
  wp->waiters_.push_back(t);
  if (wake_at != kNoTimer) {
    t->timed_key = std::max(wake_at, t->vt);
    im->ArmTimerLocked(t);
    im->LowerPaceFloorsLocked(t->timed_key);
  }
  im->cv_.notify_all();  // the floor may have moved
  SwitchContext(&t->ctx, g_worker_ctx);
  const WakeCause cause = t->wake_cause;
  t->wp = nullptr;
  im->mu_.unlock();
  return cause;
}

void Engine::Yield(SimTime now) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Engine::Yield called outside an engine task";
  Impl* im = t->impl;
  im->mu_.lock();
  if (now >= 0) t->vt = now;
  im->MakeRunnableLocked(t);
  im->cv_.notify_all();
  SwitchContext(&t->ctx, g_worker_ctx);
  im->mu_.unlock();
}

void Engine::Pace(SimTime now) {
  Task* t = g_current_task;
  if (t == nullptr) return;
  if (now - t->impl->opts.lookahead_ns <=
      t->pace_floor.load(std::memory_order_relaxed)) {
    return;
  }
  Yield(now);
}

SimTime Engine::Horizon() {
  const Task* t = g_current_task;
  if (t == nullptr) return 0;
  return std::min(t->vt, t->pace_floor.load(std::memory_order_relaxed));
}

// ---- WaitPoint -----------------------------------------------------------

void WaitPoint::WakeAll() {
  if (nparked_.load(std::memory_order_seq_cst) == 0) return;
  Engine* e = Engine::Active();
  if (e == nullptr) return;
  e->impl_->WakeAllOf(this);
}

// ---- progress epoch ------------------------------------------------------

uint64_t ProgressEpoch() {
  return g_progress_epoch.load(std::memory_order_seq_cst);
}

void BumpProgress() {
  g_progress_epoch.fetch_add(1, std::memory_order_seq_cst);
  Engine* e = Engine::Active();
  if (e != nullptr) e->impl_->idle_point_.WakeAll();
}

void IdleWait(uint64_t seen_epoch) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr) << "IdleWait called outside an engine task";
  Engine::Park(&e->impl_->idle_point_,
               [seen_epoch] { return ProgressEpoch() != seen_epoch; },
               /*now=*/-1, Engine::kNoTimer);
}

WakeCause IdleWaitUntil(uint64_t seen_epoch, SimTime now, SimTime wake_at) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr) << "IdleWaitUntil called outside an engine task";
  return Engine::Park(&e->impl_->idle_point_,
                      [seen_epoch] { return ProgressEpoch() != seen_epoch; },
                      now, wake_at);
}

// ---- ActorGroup ----------------------------------------------------------

void ActorGroup::Spawn(uint32_t domain, std::string name,
                       std::function<void()> fn) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr)
      << "ActorGroup::Spawn called outside an engine task";
  engine_ = e;
  live_.fetch_add(1, std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lock(e->impl_->mu_);
  e->impl_->SpawnLocked(domain, std::move(name), std::move(fn), this);
  e->impl_->cv_.notify_all();
}

void ActorGroup::Join() {
  if (engine_ == nullptr) return;
  while (live_.load(std::memory_order_seq_cst) != 0) {
    Engine::Park(&done_,
                 [this] { return live_.load(std::memory_order_seq_cst) == 0; },
                 /*now=*/-1, Engine::kNoTimer);
  }
  engine_ = nullptr;
}

}  // namespace dfi::exec
