#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "common/exec/engine.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <new>
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
/// Fiber stack size (plus one guard page).
constexpr size_t kFiberStackBytes = 256 * 1024;

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

/// One switchable execution context: either the native stack of the thread
/// inside Engine::Run or a task's fiber stack.
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

}  // namespace

struct Task {
  enum class State : uint8_t { kRunnable, kRunning, kParked, kDone };
  static constexpr size_t kNotTimed = SIZE_MAX;

  Engine::Impl* impl = nullptr;
  uint64_t id = 0;
  uint32_t domain = 0;
  std::string name;
  std::function<void()> fn;

  /// Last virtual time the task reported at a scheduling point. The run
  /// queue is ordered by (vt, id).
  SimTime vt = 0;
  State state = State::kRunnable;

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

// Every engine runs on the thread that calls Run() and Run() does not nest,
// so the running task, the progress epoch and the idle wait point are plain
// process-wide state.
Task* g_current_task = nullptr;
uint64_t g_progress_epoch = 0;
WaitPoint g_idle_point;

/// Switches from `from` to `to`.
void SwitchContext(FiberCtx* from, FiberCtx* to) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_start_switch_fiber(&from->asan_fake, to->stack_bottom,
                                 to->stack_size);
#endif
#if defined(DFI_EXEC_TSAN)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  dfi_exec_switch(&from->sp, to->sp);
  // Resumed in `from` again.
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
  /// Run-heap order: true when `a` runs after `b`, by (vt, id).
  struct RunAfter {
    bool operator()(const Task* a, const Task* b) const {
      return a->vt != b->vt ? a->vt > b->vt : a->id > b->id;
    }
  };

  EngineOptions opts;
  Engine* self = nullptr;

  std::vector<Task*> run_;    // run queue: min-heap by (vt, id)
  std::vector<Task*> timed_;  // timer heap, see ArmTimer
  std::vector<std::unique_ptr<Task>> tasks_;
  FiberCtx sched_ctx_;  // the scheduler loop on the thread inside Run()
  uint64_t next_id_ = 0;
  size_t live_ = 0;

  // ---- run queue ---------------------------------------------------------

  void MakeRunnable(Task* t) {
    t->state = Task::State::kRunnable;
    run_.push_back(t);
    std::push_heap(run_.begin(), run_.end(), RunAfter{});
  }

  /// Earliest virtual time of any runnable task or pending timer (the
  /// running task excluded); kMaxSimTime when there is none.
  SimTime Floor() const {
    SimTime f = run_.empty() ? kMaxSimTime : run_.front()->vt;
    if (!timed_.empty()) f = std::min(f, timed_.front()->timed_key);
    return f;
  }

  /// The next task to dispatch, or nullptr when nothing is runnable and no
  /// timer is pending. Timers due no later than the earliest runnable task
  /// are released first (the DES jump: an otherwise idle fleet skips
  /// straight to the next wake time).
  Task* PopNext() {
    const SimTime floor = Floor();
    while (!timed_.empty() && timed_.front()->timed_key <= floor) {
      Task* t = timed_.front();
      DisarmTimer(t);
      DetachWaiter(t);
      t->wake_cause = WakeCause::kTimer;
      t->vt = t->timed_key;  // the wait ledger says this much time passed
      MakeRunnable(t);
    }
    if (run_.empty()) return nullptr;
    std::pop_heap(run_.begin(), run_.end(), RunAfter{});
    Task* t = run_.back();
    run_.pop_back();
    return t;
  }

  /// Hands the thread from `t`, which just parked or re-entered the run
  /// queue, straight to the task the scheduler loop would dispatch next:
  /// the same PopNext, without the round trip through the loop. Returns at
  /// once when that task is `t` itself. With nothing runnable it switches
  /// to the loop, which reports the stall.
  void SwitchAway(Task* t) {
    Task* next = PopNext();
    if (next == t) {
      t->state = Task::State::kRunning;
      return;
    }
    if (next == nullptr) {
      SwitchContext(&t->ctx, &sched_ctx_);
      return;
    }
    next->state = Task::State::kRunning;
    g_current_task = next;
    SwitchContext(&t->ctx, &next->ctx);
    // Resumed: whichever task handed over set g_current_task to `t`.
  }

  // ---- timer heap --------------------------------------------------------
  // timed_ is a binary min-heap by (timed_key, id) whose entries record
  // their own slot, so a notify that beats the timer removes the entry in
  // O(log n) and no operation allocates once the vector has grown.

  static bool TimerAfter(const Task* a, const Task* b) {
    return a->timed_key != b->timed_key ? a->timed_key > b->timed_key
                                        : a->id > b->id;
  }

  void PlaceTimer(size_t slot, Task* t) {
    timed_[slot] = t;
    t->timed_slot = slot;
  }

  void SiftTimerUp(size_t slot) {
    Task* t = timed_[slot];
    while (slot > 0) {
      const size_t parent = (slot - 1) / 2;
      if (!TimerAfter(timed_[parent], t)) break;
      PlaceTimer(slot, timed_[parent]);
      slot = parent;
    }
    PlaceTimer(slot, t);
  }

  void SiftTimerDown(size_t slot) {
    Task* t = timed_[slot];
    for (;;) {
      size_t child = 2 * slot + 1;
      if (child >= timed_.size()) break;
      if (child + 1 < timed_.size() &&
          TimerAfter(timed_[child], timed_[child + 1])) {
        ++child;
      }
      if (!TimerAfter(t, timed_[child])) break;
      PlaceTimer(slot, timed_[child]);
      slot = child;
    }
    PlaceTimer(slot, t);
  }

  void ArmTimer(Task* t) {
    timed_.push_back(t);
    SiftTimerUp(timed_.size() - 1);
  }

  void DisarmTimer(Task* t) {
    const size_t slot = t->timed_slot;
    Task* last = timed_.back();
    timed_.pop_back();
    t->timed_slot = Task::kNotTimed;
    if (last == t) return;
    PlaceTimer(slot, last);
    SiftTimerUp(slot);
    SiftTimerDown(last->timed_slot);
  }

  // ---- wait points -------------------------------------------------------

  static void DetachWaiter(Task* t) {
    DFI_CHECK(t->wp != nullptr) << "parked task without wait point";
    auto& w = t->wp->waiters_;
    auto it = std::find(w.begin(), w.end(), t);
    DFI_CHECK(it != w.end()) << "parked task missing from wait point";
    w.erase(it);
  }

  void WakeAllOf(WaitPoint* wp) {
    for (Task* t : wp->waiters_) {
      if (t->timed_slot != Task::kNotTimed) DisarmTimer(t);
      t->wake_cause = WakeCause::kNotified;
      MakeRunnable(t);
    }
    wp->waiters_.clear();
  }

  /// Nothing is runnable, no timer is pending, yet tasks remain: every one
  /// of them is parked on a wait point nobody can notify any more.
  [[noreturn]] void ReportStall() const {
    std::string stalled;
    for (const auto& t : tasks_) {
      if (t->state != Task::State::kParked) continue;
      stalled += " " + t->name + " (domain " + std::to_string(t->domain) + ")";
    }
    DFI_CHECK(false) << "engine stalled: parked tasks never woken:"
                     << stalled;
    __builtin_unreachable();
  }

  // ---- fiber lifecycle ----------------------------------------------------

  static void Trampoline(Task* t);

  void CreateFiber(Task* t) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t stack = (kFiberStackBytes + page - 1) / page * page;
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

  void Spawn(uint32_t domain, std::string name, std::function<void()> fn,
             ActorGroup* group) {
    auto task = std::make_unique<Task>();
    Task* t = task.get();
    t->impl = this;
    t->id = next_id_++;
    t->domain = domain;
    t->name = std::move(name);
    t->fn = std::move(fn);
    t->group = group;
    // Children start at the spawner's virtual time so a late spawn does not
    // drag the run queue back to zero.
    t->vt = (g_current_task != nullptr && g_current_task->impl == this)
                ? g_current_task->vt
                : 0;
    CreateFiber(t);
    ++live_;
    MakeRunnable(t);
    tasks_.push_back(std::move(task));
  }

  /// Called from a finishing task's fiber; never returns.
  [[noreturn]] void FinishCurrentTask(Task* t) {
    t->state = Task::State::kDone;
    --live_;
    if (t->group != nullptr && --t->group->live_ == 0) {
      t->group->done_.WakeAll();
    }
    SwitchContextDying(&t->ctx, &sched_ctx_);
    __builtin_unreachable();
  }

  void Loop() {
#if defined(DFI_EXEC_ASAN)
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      size_t size = 0;
      pthread_attr_getstack(&attr, &addr, &size);
      sched_ctx_.stack_bottom = addr;
      sched_ctx_.stack_size = size;
      pthread_attr_destroy(&attr);
    }
#endif
#if defined(DFI_EXEC_TSAN)
    sched_ctx_.tsan_fiber = __tsan_get_current_fiber();
#endif
    // Parking and yielding tasks hand the thread to each other
    // (SwitchAway), so the loop only starts the run, takes over after a
    // task finished, and reports a stall.
    while (live_ > 0) {
      Task* t = PopNext();
      if (t == nullptr) ReportStall();
      t->state = Task::State::kRunning;
      g_current_task = t;
      SwitchContext(&sched_ctx_, &t->ctx);
      // Back from whichever task ran last: it finished, or it found nothing
      // runnable. A finished task's fiber is released off its own stack.
      Task* last = g_current_task;
      g_current_task = nullptr;
      if (last->state == Task::State::kDone) ReleaseFiber(last);
    }
  }
};

void Engine::Impl::Trampoline(Task* t) {
#if defined(DFI_EXEC_ASAN)
  __sanitizer_finish_switch_fiber(t->ctx.asan_fake, nullptr, nullptr);
#endif
  t->fn();
  t->impl->FinishCurrentTask(t);
}

// ---- Engine --------------------------------------------------------------

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  impl_->self = this;
}

Engine::~Engine() {
  for (const auto& t : impl_->tasks_) impl_->ReleaseFiber(t.get());
}

void Engine::Spawn(uint32_t domain, std::string name,
                   std::function<void()> fn) {
  impl_->Spawn(domain, std::move(name), std::move(fn), nullptr);
}

void Engine::Run() {
  DFI_CHECK(g_current_task == nullptr) << "nested Engine::Run";
  impl_->Loop();
}

Engine* Engine::Current() {
  return g_current_task != nullptr ? g_current_task->impl->self : nullptr;
}

WakeCause Engine::ParkImpl(WaitPoint* wp, bool (*changed)(void*), void* arg,
                           SimTime now, SimTime wake_at) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Engine::Park called outside an engine task";
  if (now >= 0) t->vt = now;
  if (changed(arg)) return WakeCause::kNotified;
  Impl* im = t->impl;
  t->state = Task::State::kParked;
  t->wp = wp;
  wp->waiters_.push_back(t);
  if (wake_at != kNoTimer) {
    t->timed_key = std::max(wake_at, t->vt);
    im->ArmTimer(t);
  }
  im->SwitchAway(t);
  t->wp = nullptr;
  return t->wake_cause;
}

void Engine::Yield(SimTime now) {
  Task* t = g_current_task;
  DFI_CHECK(t != nullptr) << "Engine::Yield called outside an engine task";
  if (now >= 0) t->vt = now;
  t->impl->MakeRunnable(t);
  t->impl->SwitchAway(t);
}

void Engine::Pace(SimTime now) {
  const Task* t = g_current_task;
  if (t == nullptr) return;
  if (now - t->impl->opts.lookahead_ns <= t->impl->Floor()) return;
  Yield(now);
}

SimTime Engine::Horizon() {
  const Task* t = g_current_task;
  if (t == nullptr) return 0;
  return std::min(t->vt, t->impl->Floor());
}

// ---- WaitPoint -----------------------------------------------------------

void WaitPoint::WakeWaiters() {
  // Waiters are parked tasks of the one engine inside Run().
  waiters_.front()->impl->WakeAllOf(this);
}

// ---- progress epoch ------------------------------------------------------

uint64_t ProgressEpoch() { return g_progress_epoch; }

void BumpProgress() {
  ++g_progress_epoch;
  g_idle_point.WakeAll();
}

void IdleWait(uint64_t seen_epoch) {
  DFI_CHECK(Engine::Current() != nullptr)
      << "IdleWait called outside an engine task";
  Engine::Park(&g_idle_point,
               [seen_epoch] { return g_progress_epoch != seen_epoch; },
               /*now=*/-1, Engine::kNoTimer);
}

size_t ProcessThreadCount() {
  using std::filesystem::directory_iterator;
  return static_cast<size_t>(std::distance(
      directory_iterator("/proc/self/task"), directory_iterator()));
}

// ---- ActorGroup ----------------------------------------------------------

void ActorGroup::Spawn(uint32_t domain, std::string name,
                       std::function<void()> fn) {
  Engine* e = Engine::Current();
  DFI_CHECK(e != nullptr)
      << "ActorGroup::Spawn called outside an engine task";
  engine_ = e;
  ++live_;
  e->impl_->Spawn(domain, std::move(name), std::move(fn), this);
}

void ActorGroup::Join() {
  if (engine_ == nullptr) return;
  while (live_ != 0) {
    Engine::Park(&done_, [this] { return live_ == 0; }, /*now=*/-1,
                 Engine::kNoTimer);
  }
  engine_ = nullptr;
}

}  // namespace dfi::exec
