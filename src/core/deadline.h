#ifndef DFI_CORE_DEADLINE_H_
#define DFI_CORE_DEADLINE_H_

#include <algorithm>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "core/flow_options.h"

namespace dfi {

/// Tracks one bounded blocking wait in virtual time.
///
/// On hardware a blocked peer re-polls remote state (footer reads, credit
/// reads) with a capped exponential backoff; the poll count times the
/// backoff is the virtual cost of being blocked, and the configured
/// deadline bounds it. The emulation parks the engine fiber instead of
/// spinning (see ring_sync.h), so this class keeps the virtual ledger: each
/// unproductive wakeup accrues the next backoff step into a *provisional*
/// budget checked against FlowOptions::block_deadline_ns.
///
/// The budget is provisional on purpose: a wait that eventually succeeds
/// derives its virtual cost from the footer/credit timestamps exactly as
/// before, so fault-free runs keep their timing bit-for-bit. Only the error
/// paths (deadline, poison, peer failure) Commit() the accrued backoff to
/// the clock before returning, so a failing participant's clock reflects
/// the time it spent discovering the failure.
class DeadlineWait {
 public:
  DeadlineWait(const FlowOptions& options, VirtualClock* clock)
      : clock_(clock),
        deadline_ns_(options.block_deadline_ns),
        backoff_ns_(std::max<SimTime>(1, options.backoff_initial_ns)),
        cap_ns_(std::max<SimTime>(1, options.backoff_cap_ns)) {}

  /// Accrues one unproductive poll round. Returns false once the deadline
  /// (if any) is exhausted.
  bool Tick() {
    waited_ns_ += backoff_ns_;
    backoff_ns_ = std::min(backoff_ns_ * 2, cap_ns_);
    return deadline_ns_ == 0 || waited_ns_ < deadline_ns_;
  }

  /// Virtual time provisionally spent blocked so far.
  SimTime waited() const { return waited_ns_; }

  /// Virtual "now" as seen by this blocked thread — the fault plan is
  /// queried at this time so a peer's scheduled crash becomes observable
  /// once the provisional wait passes it.
  SimTime ProvisionalNow() const { return clock_->now() + waited_ns_; }

  /// Commits the provisional wait to the clock (error paths only).
  void Commit() {
    if (waited_ns_ > 0) clock_->Advance(waited_ns_);
    waited_ns_ = 0;
  }

  /// One blocked poll round against `sync` — anything with `version()` and
  /// `wait_point()` (RingSync, ReadyGate, rdma::CompletionQueue). Parks the
  /// calling engine task until the version moves past `seen` or the
  /// engine's virtual floor reaches the next backoff wake time — an idle
  /// fleet jumps straight there, so deadline and fault discovery costs
  /// microseconds of wall clock. Returns true iff the version changed.
  /// Callers loop, re-checking poison / fault / deadline conditions per
  /// round.
  template <typename Sync>
  bool Block(Sync& sync, uint64_t seen) {
    exec::Engine::Park(&sync.wait_point(),
                       [&] { return sync.version() != seen; }, clock_->now(),
                       ProvisionalNow() + backoff_ns_);
    return sync.version() != seen;
  }

 private:
  VirtualClock* const clock_;
  const SimTime deadline_ns_;
  SimTime backoff_ns_;
  const SimTime cap_ns_;
  SimTime waited_ns_ = 0;
};

}  // namespace dfi

#endif  // DFI_CORE_DEADLINE_H_
