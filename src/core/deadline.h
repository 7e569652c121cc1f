#ifndef DFI_CORE_DEADLINE_H_
#define DFI_CORE_DEADLINE_H_

#include <algorithm>
#include <string>
#include <string_view>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/units.h"
#include "core/flow_options.h"

namespace dfi {

/// The one blocked-wait loop of the flow layer: every blocking flow call
/// (full remote ring, latency credit, multicast credit, and the three
/// consumes) waits, fails and times out through Until.
///
/// On hardware a blocked participant re-polls remote state (footer reads,
/// credit reads, its receive queue) with a capped exponential backoff
/// (paper sections 5.2-5.4); the poll count times the backoff is the
/// virtual cost of being blocked, and FlowOptions::block_deadline_ns bounds
/// it. The emulation parks the engine fiber instead of spinning (see
/// ring_sync.h), so this class keeps the virtual ledger: each unproductive
/// round accrues the next backoff step into a *provisional* budget. The
/// backoff starts at 2 us and doubles up to 1 ms per round.
///
/// Each round of Until does four things, in this order:
///  1. it captures `sync.version()` and returns OK once `ready()` holds;
///  2. it asks `failed(now)`, at the provisional now (the clock plus the
///     budget), whether teardown happened or a peer died — the fault plan
///     is queried at that time, so a peer's scheduled crash becomes
///     observable once the provisional wait passes it;
///  3. it ticks the deadline;
///  4. it parks until the version moves past the capture or the engine's
///     virtual floor reaches the next backoff step — an idle fleet jumps
///     straight there, so deadline and fault discovery cost microseconds
///     of wall clock.
///
/// The budget is provisional on purpose: a wait that succeeds derives its
/// virtual cost from the footer / credit / completion timestamps, so
/// fault-free runs keep their timing bit-for-bit. Only a failed wait (a
/// non-OK `failed`, or the deadline) commits the budget to the clock
/// before returning, so a failing participant's clock reflects the time it
/// spent discovering the failure.
class DeadlineWait {
 public:
  DeadlineWait(const FlowOptions& options, VirtualClock* clock)
      : clock_(clock), deadline_ns_(options.block_deadline_ns) {}

  /// Blocks until `ready()` holds (OK), `failed(now)` returns a non-OK
  /// status (returned as is) or the deadline elapses (kDeadlineExceeded,
  /// naming the wait by `what`). `sync` is anything with `version()` and
  /// `wait_point()` (RingSync, ReadyGate, rdma::CompletionQueue) whose
  /// version moves whenever `ready()` may have turned true.
  template <typename Sync, typename Ready, typename Failed>
  Status Until(Sync& sync, Ready&& ready, Failed&& failed,
               std::string_view what) {
    for (;;) {
      const uint64_t seen = sync.version();
      if (ready()) return Status::OK();
      Status failure = failed(clock_->now() + waited_ns_);
      if (failure.ok()) {
        waited_ns_ += backoff_ns_;
        backoff_ns_ = std::min(backoff_ns_ * 2, kBackoffCapNs);
        if (deadline_ns_ != 0 && waited_ns_ >= deadline_ns_) {
          failure = Status::DeadlineExceeded(
              std::string(what) + ": deadline of " +
              std::to_string(deadline_ns_) + "ns elapsed");
        }
      }
      if (!failure.ok()) {
        clock_->Advance(waited_ns_);
        return failure;
      }
      exec::Engine::Park(&sync.wait_point(),
                         [&] { return sync.version() != seen; },
                         clock_->now(),
                         clock_->now() + waited_ns_ + backoff_ns_);
    }
  }

 private:
  static constexpr SimTime kBackoffInitialNs = 2 * kMicrosecond;
  static constexpr SimTime kBackoffCapNs = 1 * kMillisecond;

  VirtualClock* const clock_;
  const SimTime deadline_ns_;
  SimTime backoff_ns_ = kBackoffInitialNs;
  SimTime waited_ns_ = 0;
};

}  // namespace dfi

#endif  // DFI_CORE_DEADLINE_H_
