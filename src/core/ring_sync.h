#ifndef DFI_CORE_RING_SYNC_H_
#define DFI_CORE_RING_SYNC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/exec/engine.h"

namespace dfi {

/// Wakeup channel between the two ends of a ring. On real hardware a
/// blocked source spins re-reading the remote footer; in the emulation a
/// blocked actor parks its engine fiber on the embedded WaitPoint (see
/// DeadlineWait::Block) and Notify reschedules it, so the virtual cost of
/// the would-have-been polling is charged from footer timestamps when it
/// wakes, and thousands of blocked actors cost no OS threads.
class RingSync {
 public:
  RingSync() = default;
  RingSync(const RingSync&) = delete;
  RingSync& operator=(const RingSync&) = delete;

  /// Wakes all waiters; call after any footer state change. Every wakeup
  /// also bumps the process-wide progress epoch once.
  void Notify() {
    ++version_;
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Lost-wakeup-safe two-phase waiting: capture the version *before*
  /// scanning state; if the scan found nothing, park until any Notify()
  /// issued after the capture.
  uint64_t version() const { return version_; }

  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  exec::WaitPoint wait_point_;
  uint64_t version_ = 0;
};

/// Per-target ready-channel gate: a RingSync whose wakeups may carry the
/// index of the channel that delivered.
///
/// Every channel of one target thread shares the target's gate. A source
/// enqueues its channel index right after delivering a segment (one entry
/// per delivered segment), so the target pops exactly the channels that
/// have data instead of round-robin scanning every ring: consume cost is
/// O(active channels), not O(num_sources). On real hardware the equivalent
/// is polling a small shared completion/doorbell area instead of n footers.
///
/// Entry/segment accounting: deliveries and entries are 1:1, and a target
/// consumes segments of one channel in ring order, so every successful
/// TryConsume can be matched to one popped entry. Pops that find nothing
/// consumable (e.g. an end marker already recycled) are skipped by the
/// consumer.
///
/// The pending indices sit in a power-of-two ring that doubles when full,
/// so an announcement costs a store and a mask.
class ReadyGate : public RingSync {
 public:
  /// Announces one delivered segment on `channel_index` and wakes the
  /// target.
  void Enqueue(uint32_t channel_index) {
    if (count_ == ready_.size()) Grow();
    ready_[(head_ + count_) & (ready_.size() - 1)] = channel_index;
    ++count_;
    Notify();
  }

  /// Pops the oldest announced channel index; false when none is pending.
  bool TryDequeue(uint32_t* channel_index) {
    if (count_ == 0) return false;
    *channel_index = ready_[head_];
    head_ = (head_ + 1) & (ready_.size() - 1);
    --count_;
    return true;
  }

 private:
  /// Doubles the full ring (16 slots at first), rotating the oldest entry
  /// to slot 0 so the entries stay in order.
  void Grow() {
    std::rotate(ready_.begin(), ready_.begin() + head_, ready_.end());
    head_ = 0;
    ready_.resize(std::max<size_t>(16, 2 * ready_.size()));
  }

  std::vector<uint32_t> ready_;
  size_t head_ = 0;   // slot of the oldest entry
  size_t count_ = 0;  // entries pending
};

}  // namespace dfi

#endif  // DFI_CORE_RING_SYNC_H_
