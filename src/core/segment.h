#ifndef DFI_CORE_SEGMENT_H_
#define DFI_CORE_SEGMENT_H_

#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "common/sim_time.h"

namespace dfi {

/// Segment state flags. `kFlagWritable` (0) means the source may overwrite
/// the segment; `kFlagConsumable` means the target may read it;
/// `kFlagEndOfFlow` marks the source's final segment. `kFlagPoisoned`
/// propagates an Abort(): it travels like a normal footer publication, so a
/// remote poller discovers the teardown through the very footer it is
/// polling (the channel's shared poison state is the authoritative copy).
inline constexpr uint8_t kFlagWritable = 0x00;
inline constexpr uint8_t kFlagConsumable = 0x01;
inline constexpr uint8_t kFlagEndOfFlow = 0x02;
inline constexpr uint8_t kFlagPoisoned = 0x04;

/// Per-segment metadata placed *after* the payload (paper Figure 5). The
/// remote NIC DMAs memory in increasing address order, so once the target
/// observes the flags change the payload is guaranteed complete — no
/// checksum needed (paper section 5.2). `flags` is deliberately the final
/// byte, as on hardware; the emulation copies a whole transfer at post time
/// on its one thread, so a reader never sees a partial write.
///
/// `arrival_sim_time` is emulation metadata: the virtual time at which this
/// state change became visible; consumers join their virtual clocks with
/// it. On real hardware this field does not exist.
struct SegmentFooter {
  uint64_t sequence = 0;        ///< segment sequence number (the "counter")
  SimTime arrival_sim_time = 0; ///< virtual availability time (emulation)
  uint32_t fill_bytes = 0;      ///< payload bytes used
  uint16_t source_index = 0;    ///< which flow source wrote the segment
  uint8_t reserved = 0;
  uint8_t flags = kFlagWritable;  ///< MUST stay the last byte

  bool consumable() const { return (flags & kFlagConsumable) != 0; }
  bool end_of_flow() const { return (flags & kFlagEndOfFlow) != 0; }
};
static_assert(sizeof(SegmentFooter) == 24, "footer layout is part of the "
              "wire format");
static_assert(offsetof(SegmentFooter, flags) == sizeof(SegmentFooter) - 1,
              "flags must be the final byte so DMA ordering publishes it "
              "last");

/// A segment ring: `num_segments` fixed-size slots, each
/// `payload_capacity + sizeof(SegmentFooter)` bytes, densely allocated in
/// one memory region (paper Figure 5). This class is a *view*; the memory
/// itself lives in a registered MemoryRegion (target-side) or plain buffer
/// (source-side).
class SegmentRing {
 public:
  SegmentRing() = default;
  SegmentRing(uint8_t* base, uint32_t payload_capacity, uint32_t num_segments)
      : base_(base),
        payload_capacity_(payload_capacity),
        num_segments_(num_segments) {
    // The footer's 64-bit fields must be 8-aligned within the slot.
    DFI_CHECK_EQ(payload_capacity % 8, 0u);
  }

  uint32_t payload_capacity() const { return payload_capacity_; }
  uint32_t num_segments() const { return num_segments_; }
  uint32_t slot_bytes() const {
    return payload_capacity_ + sizeof(SegmentFooter);
  }
  size_t total_bytes() const {
    return static_cast<size_t>(slot_bytes()) * num_segments_;
  }

  /// The slot after `index`, wrapping to 0: a compare, where
  /// `seq % num_segments()` on a 64-bit sequence is a divide.
  uint32_t next_slot(uint32_t index) const {
    return index + 1 == num_segments_ ? 0 : index + 1;
  }

  uint8_t* slot(uint32_t index) const {
    DFI_DCHECK(index < num_segments_);
    return base_ + static_cast<size_t>(index) * slot_bytes();
  }
  uint8_t* payload(uint32_t index) const { return slot(index); }
  SegmentFooter* footer(uint32_t index) const {
    return reinterpret_cast<SegmentFooter*>(slot(index) + payload_capacity_);
  }

  /// Byte offset of slot `index` within the ring region (for RemoteRefs).
  uint64_t slot_offset(uint32_t index) const {
    return static_cast<uint64_t>(index) * slot_bytes();
  }
  uint64_t footer_offset(uint32_t index) const {
    return slot_offset(index) + payload_capacity_;
  }

  uint8_t LoadFlags(uint32_t index) const { return footer(index)->flags; }

  /// Sets new flags for a locally-owned footer.
  void StoreFlags(uint32_t index, uint8_t flags) const {
    footer(index)->flags = flags;
  }

 private:
  uint8_t* base_ = nullptr;
  uint32_t payload_capacity_ = 0;
  uint32_t num_segments_ = 0;
};

}  // namespace dfi

#endif  // DFI_CORE_SEGMENT_H_
