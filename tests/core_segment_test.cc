#include "core/segment.h"

#include <gtest/gtest.h>

#include "core/ring_sync.h"

#include <vector>

namespace dfi {
namespace {

TEST(SegmentFooterTest, LayoutIsWireFormat) {
  EXPECT_EQ(sizeof(SegmentFooter), 24u);
  SegmentFooter f;
  EXPECT_EQ(f.flags, kFlagWritable);
  EXPECT_FALSE(f.consumable());
  f.flags = kFlagConsumable;
  EXPECT_TRUE(f.consumable());
  EXPECT_FALSE(f.end_of_flow());
  f.flags = kFlagConsumable | kFlagEndOfFlow;
  EXPECT_TRUE(f.end_of_flow());
}

TEST(SegmentRingTest, GeometryAndAddressing) {
  std::vector<uint8_t> mem(4 * (1024 + sizeof(SegmentFooter)));
  SegmentRing ring(mem.data(), 1024, 4);
  EXPECT_EQ(ring.slot_bytes(), 1024 + 24u);
  EXPECT_EQ(ring.total_bytes(), 4 * (1024 + 24u));
  EXPECT_EQ(ring.payload(0), mem.data());
  EXPECT_EQ(ring.payload(1), mem.data() + 1048);
  EXPECT_EQ(reinterpret_cast<uint8_t*>(ring.footer(0)),
            mem.data() + 1024);
  EXPECT_EQ(ring.slot_offset(2), 2 * 1048u);
  EXPECT_EQ(ring.footer_offset(2), 2 * 1048u + 1024);
}

TEST(SegmentRingTest, FlagsRoundTripWithDmaSemantics) {
  std::vector<uint8_t> mem(2 * (64 + sizeof(SegmentFooter)));
  SegmentRing ring(mem.data(), 64, 2);
  EXPECT_EQ(ring.LoadFlags(0), kFlagWritable);
  ring.footer(0)->fill_bytes = 48;
  ring.StoreFlags(0, kFlagConsumable);
  EXPECT_EQ(ring.LoadFlags(0), kFlagConsumable);
  EXPECT_EQ(ring.footer(0)->fill_bytes, 48u);
  EXPECT_EQ(ring.LoadFlags(1), kFlagWritable) << "slots independent";
}

TEST(SegmentRingTest, FooterIsEightAlignedWithinSlot) {
  // Payload capacities are forced to multiples of 8 so the footer (and its
  // atomic final byte's containing word) stay aligned.
  std::vector<uint8_t> mem(3 * (8 + sizeof(SegmentFooter)));
  SegmentRing ring(mem.data(), 8, 3);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(ring.footer(i)) % 8, 0u)
        << "footer " << i;
  }
}

TEST(SegmentRingTest, NextSlotWrapsLikeTheSequenceModulo) {
  for (uint32_t slots : {2u, 3u, 5u, 8u}) {
    std::vector<uint8_t> mem(slots * (64 + sizeof(SegmentFooter)));
    SegmentRing ring(mem.data(), 64, slots);
    uint32_t slot = 0;
    for (uint64_t seq = 0; seq < 4 * slots; ++seq) {
      ASSERT_EQ(slot, seq % slots);
      slot = ring.next_slot(slot);
    }
  }
}

TEST(ReadyGateTest, ServesAnnouncementsInOrderAcrossGrowth) {
  // Interleaved enqueues and pops move the head around the ring before
  // each growth, so every doubling has to unwrap it.
  ReadyGate gate;
  uint32_t next_in = 0;
  uint32_t next_out = 0;
  uint32_t got = 0;
  for (uint32_t round = 0; round < 12; ++round) {
    for (uint32_t i = 0; i < 3 * round + 5; ++i) gate.Enqueue(next_in++);
    for (uint32_t i = 0; i < 2 * round + 3; ++i) {
      ASSERT_TRUE(gate.TryDequeue(&got));
      ASSERT_EQ(got, next_out++);
    }
  }
  while (gate.TryDequeue(&got)) ASSERT_EQ(got, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_GT(next_in, 64u);  // several doublings past the first 16 slots
  EXPECT_EQ(gate.version(), next_in);  // one Notify per announcement
}

}  // namespace
}  // namespace dfi
