#ifndef DFI_CORE_ABORT_LATCH_H_
#define DFI_CORE_ABORT_LATCH_H_

#include "common/status.h"

namespace dfi {

/// First-cause-wins teardown flag. A channel keeps its poison in one
/// (ChannelShared::Poison). A replicate flow keeps its flow-granular
/// teardown in one: replication is all-to-all, so any participant's failure
/// fails the flow, and switch replication has no per-pair channel to
/// poison; its endpoints check the latch on their next operation or wait
/// round. The first cause wins; later trips are no-ops.
class AbortLatch {
 public:
  AbortLatch() = default;

  AbortLatch(const AbortLatch&) = delete;
  AbortLatch& operator=(const AbortLatch&) = delete;

  /// Trips the latch. Returns true when this call was the one that tripped
  /// it (the caller then performs the one-time teardown side effects, e.g.
  /// poisoning channels or waking credit waiters).
  bool Trip(const Status& cause) {
    if (tripped_) return false;
    cause_ = cause.ok() ? Status::Aborted("flow aborted") : cause;
    tripped_ = true;
    return true;
  }

  bool tripped() const { return tripped_; }

  /// The teardown cause (OK when not tripped).
  Status status() const { return cause_; }

 private:
  bool tripped_ = false;
  Status cause_;
};

}  // namespace dfi

#endif  // DFI_CORE_ABORT_LATCH_H_
