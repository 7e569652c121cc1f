#include "registry/flow_barrier.h"

#include <algorithm>
#include <utility>

#include "common/exec/engine.h"
#include "common/logging.h"
#include "registry/registry_client.h"

namespace dfi::reg {

FlowBarrier::FlowBarrier(RegistryClient* client, std::string name,
                         uint32_t expected)
    : client_(client), name_(std::move(name)), expected_(expected) {
  DFI_CHECK(client_ != nullptr);
  DFI_CHECK_GE(expected_, 1u);
}

Status FlowBarrier::Wait(std::chrono::milliseconds timeout) {
  VirtualClock* clock = client_->clock();
  const SimTime start_vt = clock ? clock->now() : 0;
  const SimTime deadline_vt =
      start_vt + static_cast<SimTime>(timeout.count()) * 1'000'000;

  DFI_ASSIGN_OR_RETURN(OpResult r,
                       client_->BarrierEnter(name_, expected_, generation_));
  DFI_RETURN_IF_ERROR(r.status);

  // Poll cadence. A parked waiter is only woken by progress
  // bumps, but its *view* of the shard is evaluated at its own virtual
  // clock — a failover (or a release on the promoted backup) at a later
  // virtual time stays invisible until the waiter's clock crosses it. So
  // instead of parking all the way to the deadline, park in exponentially
  // growing slices and advance the clock through each one; the cap bounds
  // the overshoot past the release instant.
  constexpr SimTime kPollInitialNs = 10'000;
  constexpr SimTime kPollCapNs = 1'000'000;
  SimTime poll_interval = kPollInitialNs;

  while (!r.barrier_released) {
    // Capture the progress epoch before polling: an arrival that releases
    // the barrier between our poll and our park bumps it and the park
    // falls through (lost-wakeup protocol).
    const uint64_t seen = exec::ProgressEpoch();
    DFI_ASSIGN_OR_RETURN(r, client_->BarrierPoll(name_, generation_));
    DFI_RETURN_IF_ERROR(r.status);
    if (r.barrier_released) break;
    const SimTime now = clock ? clock->now() : -1;
    const SimTime wake =
        clock ? std::min(deadline_vt, now + poll_interval) : deadline_vt;
    if (exec::IdleWaitUntil(seen, now, wake) == exec::WakeCause::kTimer) {
      if (wake >= deadline_vt) {
        if (clock) clock->AdvanceTo(deadline_vt);
        return Status::DeadlineExceeded(
            "barrier '" + name_ + "' generation " +
            std::to_string(generation_) + " timed out (virtual)");
      }
      clock->AdvanceTo(wake);
      poll_interval = std::min(poll_interval * 2, kPollCapNs);
    } else {
      poll_interval = kPollInitialNs;
    }
  }

  // Join the release instant: every participant leaves at the latest
  // arrival's virtual time (plus its own reply hop, already charged by the
  // client transport). A poll-cadence waiter may have overshot the release
  // while scanning forward; time never runs backwards.
  if (clock && r.barrier_release_at > clock->now()) {
    clock->AdvanceTo(r.barrier_release_at);
  }
  ++generation_;
  return Status::OK();
}

}  // namespace dfi::reg
