#include "rdma/completion_queue.h"

namespace dfi::rdma {

void CompletionQueue::Push(const Completion& c) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(c);
    ++version_;
  }
  wait_point_.WakeAll();
  exec::BumpProgress();
}

bool CompletionQueue::PopLocked(Completion* c, VirtualClock* clock) {
  if (queue_.empty()) return false;
  *c = queue_.front();
  queue_.pop_front();
  clock->Advance(poll_cost_ns_);
  clock->AdvanceTo(c->time);
  return true;
}

bool CompletionQueue::TryPoll(Completion* c, VirtualClock* clock) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) {
    clock->Advance(poll_cost_ns_);
    return false;
  }
  return PopLocked(c, clock);
}

size_t CompletionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace dfi::rdma
