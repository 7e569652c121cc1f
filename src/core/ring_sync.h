#ifndef DFI_CORE_RING_SYNC_H_
#define DFI_CORE_RING_SYNC_H_

#include <cstdint>
#include <deque>
#include <mutex>

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

  /// Wakes all waiters; call after any footer state change.
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++version_;
    }
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Lost-wakeup-safe two-phase waiting: capture the version *before*
  /// scanning state; if the scan found nothing, park until any Notify()
  /// issued after the capture.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  mutable std::mutex mu_;
  exec::WaitPoint wait_point_;
  uint64_t version_ = 0;
};

/// Per-target ready-channel gate: RingSync-style versioned wakeups plus a
/// multi-producer queue of channel indices with pending deliveries.
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
class ReadyGate {
 public:
  ReadyGate() = default;
  ReadyGate(const ReadyGate&) = delete;
  ReadyGate& operator=(const ReadyGate&) = delete;

  /// Announces one delivered segment on `channel_index` and wakes the
  /// target.
  void Enqueue(uint32_t channel_index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(channel_index);
      ++version_;
    }
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Pops the oldest announced channel index; false when none is pending.
  bool TryDequeue(uint32_t* channel_index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return false;
    *channel_index = ready_.front();
    ready_.pop_front();
    return true;
  }

  /// Version-only wakeup (no ready entry), e.g. for state changes that are
  /// not segment deliveries.
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++version_;
    }
    wait_point_.WakeAll();
    exec::BumpProgress();
  }

  /// Lost-wakeup-safe two-phase waiting, as in RingSync: capture the
  /// version *before* draining the queue.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  exec::WaitPoint& wait_point() { return wait_point_; }

 private:
  mutable std::mutex mu_;
  exec::WaitPoint wait_point_;
  std::deque<uint32_t> ready_;
  uint64_t version_ = 0;
};

}  // namespace dfi

#endif  // DFI_CORE_RING_SYNC_H_
