#ifndef DFI_RDMA_COMPLETION_QUEUE_H_
#define DFI_RDMA_COMPLETION_QUEUE_H_

#include <deque>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "rdma/verbs_types.h"

namespace dfi::rdma {

/// Emulated completion queue. Completions are pushed by the emulated NIC
/// (synchronously at post time, stamped with their virtual completion time)
/// and polled by application threads.
///
/// Polling charges SimConfig::poll_cq_ns to the caller's virtual clock and
/// joins the clock with the completion's virtual timestamp, which models
/// the real-world behavior that a completion can only be observed after it
/// happened.
class CompletionQueue {
 public:
  explicit CompletionQueue(SimTime poll_cost_ns)
      : poll_cost_ns_(poll_cost_ns) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Emulated-NIC side: enqueue a completion.
  void Push(const Completion& c);

  /// Non-blocking poll. Returns false if the queue is empty. On success the
  /// caller's clock advances by the poll cost and to at least `c->time`.
  bool TryPoll(Completion* c, VirtualClock* clock);

  size_t size() const;

  /// Versioned-wakeup interface (as RingSync): blocked pollers capture the
  /// version, TryPoll, and park via DeadlineWait::Block when empty.
  uint64_t version() const { return version_; }
  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  const SimTime poll_cost_ns_;
  exec::WaitPoint wait_point_;
  std::deque<Completion> queue_;
  uint64_t version_ = 0;
};

}  // namespace dfi::rdma

#endif  // DFI_RDMA_COMPLETION_QUEUE_H_
