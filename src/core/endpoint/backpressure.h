#ifndef DFI_CORE_ENDPOINT_BACKPRESSURE_H_
#define DFI_CORE_ENDPOINT_BACKPRESSURE_H_

#include <cstdint>
#include <memory>

#include "common/logging.h"

namespace dfi {

/// Saturation hysteresis thresholds of a flow's TargetLoadBoard, on the
/// per-target queue depth (delivered-but-unconsumed segments summed over
/// the target's channels): trip at >= high, clear at <= low.
constexpr uint32_t kBackpressureHighSegments = 24;
constexpr uint32_t kBackpressureLowSegments = 8;

/// Per-target queue-depth signal for a channel matrix: one slot per target
/// counting segments delivered to the target's rings but not yet released
/// by a consumer, plus a hysteresis "saturated" bit (trip at >= high, clear
/// at <= low) so a target hovering around one threshold does not flap.
///
/// Producers bump a slot from ChannelSource::TransmitSegment (right where
/// the ReadyGate entry is enqueued); consumers decrement it when a segment
/// is released back to writable. The signal is advisory: nothing in the
/// transport *acts* on it unless the flow opted into
/// `AdaptiveShuffleOptions::react_to_backpressure`. A depth reflects the
/// order the engine dispatched the actors in, not virtual time alone, so
/// the default static path only ever writes the slots.
class TargetLoadBoard {
 public:
  TargetLoadBoard(uint32_t num_targets, uint32_t high, uint32_t low)
      : high_(high),
        low_(low),
        slots_(std::make_unique<Slot[]>(num_targets)) {
    DFI_CHECK_GT(high, low);
  }

  /// A segment became consumable in `target`'s column.
  void OnDelivered(uint32_t target) {
    Slot& slot = slots_[target];
    if (++slot.depth >= high_) slot.saturated = true;
  }

  /// A segment from `target`'s column was released back to writable.
  void OnConsumed(uint32_t target) {
    Slot& slot = slots_[target];
    if (--slot.depth <= low_) slot.saturated = false;
  }

  /// Delivered-but-unreleased segments queued at `target`.
  uint32_t depth(uint32_t target) const { return slots_[target].depth; }

  /// Hysteresis saturation bit: set once depth reaches `high`, cleared only
  /// once it falls back to `low`.
  bool saturated(uint32_t target) const { return slots_[target].saturated; }

 private:
  struct Slot {
    uint32_t depth = 0;
    bool saturated = false;
  };

  const uint32_t high_;
  const uint32_t low_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_BACKPRESSURE_H_
