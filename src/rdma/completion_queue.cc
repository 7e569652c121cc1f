#include "rdma/completion_queue.h"

namespace dfi::rdma {

void CompletionQueue::Push(const Completion& c) {
  queue_.push_back(c);
  ++version_;
  wait_point_.WakeAll();
  exec::BumpProgress();
}

bool CompletionQueue::TryPoll(Completion* c, VirtualClock* clock) {
  clock->Advance(poll_cost_ns_);
  if (queue_.empty()) return false;
  *c = queue_.front();
  queue_.pop_front();
  clock->AdvanceTo(c->time);
  return true;
}

size_t CompletionQueue::size() const { return queue_.size(); }

}  // namespace dfi::rdma
