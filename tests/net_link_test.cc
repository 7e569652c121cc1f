#include "net/link.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/exec/engine.h"

namespace dfi::net {
namespace {

TEST(LinkSchedulerTest, SingleTransferTiming) {
  LinkScheduler link("l", 10.0);  // 10 B/ns
  TransferWindow w = link.Reserve(100, 1000);
  EXPECT_EQ(w.start, 100);
  EXPECT_EQ(w.end, 200);  // 1000 B / 10 B/ns
}

TEST(LinkSchedulerTest, BackToBackSerializes) {
  LinkScheduler link("l", 1.0);
  TransferWindow a = link.Reserve(0, 100);
  TransferWindow b = link.Reserve(0, 100);
  EXPECT_EQ(a.end, 100);
  EXPECT_EQ(b.start, 100);
  EXPECT_EQ(b.end, 200);
}

TEST(LinkSchedulerTest, IdleGapPreserved) {
  LinkScheduler link("l", 1.0);
  link.Reserve(0, 100);
  TransferWindow b = link.Reserve(500, 100);
  EXPECT_EQ(b.start, 500);
  EXPECT_EQ(b.end, 600);
  EXPECT_EQ(link.busy_time(), 200);  // only occupied time counts
  EXPECT_EQ(link.busy_until(), 600);
}

TEST(LinkSchedulerTest, LateReservationFillsGapsInTimeOrder) {
  // A reservation made after later ones (its sender lagged behind) fills
  // the idle gaps at or after its ready time in time order, like a packet
  // train interleaved on the wire; only the remainder extends the tail.
  LinkScheduler link("l", 1.0);
  link.Reserve(0, 100);
  link.Reserve(150, 100);  // leaves [100, 150) idle
  link.Reserve(300, 100);  // leaves [250, 300) idle
  TransferWindow w = link.Reserve(120, 100);
  EXPECT_EQ(w.start, 120);
  EXPECT_EQ(w.end, 420);  // 30 + 50 ns in the gaps, 20 ns at the tail
  // The head of the first gap, before that ready time, stays usable.
  EXPECT_EQ(link.Reserve(100, 20).end, 120);
  EXPECT_EQ(link.busy_until(), 420);
  EXPECT_EQ(link.busy_time(), 420);  // no idle time left behind
}

TEST(LinkSchedulerTest, BackfillFindsGapsFarFromThePreviousWalk) {
  // Nine gaps [20k - 10, 20k) for k = 1..9; busy until 190.
  LinkScheduler link("l", 1.0);
  for (SimTime k = 0; k < 10; ++k) link.Reserve(20 * k, 10);
  TransferWindow w = link.Reserve(175, 5);  // tail of the last gap
  EXPECT_EQ(w.start, 175);
  EXPECT_EQ(w.end, 180);
  w = link.Reserve(12, 5);  // eight gaps back: inside the first one
  EXPECT_EQ(w.start, 12);
  EXPECT_EQ(w.end, 17);
  w = link.Reserve(0, 8);  // [10, 12) + [17, 20) + [30, 33)
  EXPECT_EQ(w.start, 10);
  EXPECT_EQ(w.end, 33);
  w = link.Reserve(31, 2);  // the rest of that gap starts at 33
  EXPECT_EQ(w.start, 33);
  EXPECT_EQ(w.end, 35);
  EXPECT_EQ(link.busy_until(), 190);
  EXPECT_EQ(link.busy_time(), 120);
}

TEST(LinkSchedulerTest, GapsBehindTheEngineHorizonAreDropped) {
  LinkScheduler link("l", 1.0);
  link.Reserve(0, 100);
  link.Reserve(200, 100);  // leaves [100, 200) idle
  SimTime end = 0;
  exec::Engine engine;
  engine.Spawn(0, "late", [&] {
    exec::Engine::Yield(500);  // the only task: nothing can act before 500
    link.Reserve(600, 10);     // drops [100, 200), leaves [300, 600) idle
    end = link.Reserve(100, 10).end;
  });
  engine.Run();
  EXPECT_EQ(end, 310);  // backfilled into the live gap, not at 100
}

TEST(LinkSchedulerTest, ConservationOfBytes) {
  LinkScheduler link("l", 2.0);
  uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    link.Reserve(0, 64 + i);
    total += 64 + i;
  }
  EXPECT_EQ(link.total_bytes(), total);
}

TEST(LinkSchedulerTest, SaturatedLinkRateMatchesCapacity) {
  // A saturated link's throughput must equal its configured rate.
  LinkScheduler link("l", 12.5);  // 100 Gbps
  const uint64_t kSeg = 8192;
  const int kCount = 1000;
  SimTime end = 0;
  for (int i = 0; i < kCount; ++i) {
    end = link.Reserve(0, kSeg).end;
  }
  const double rate = static_cast<double>(kSeg) * kCount / end;  // B/ns
  EXPECT_NEAR(rate, 12.5, 0.1);
}

TEST(LinkSchedulerTest, ConcurrentReservationsDoNotOverlap) {
  LinkScheduler link("l", 1.0);
  std::vector<std::thread> threads;
  std::vector<TransferWindow> windows(64);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        windows[t * 8 + i] = link.Reserve(0, 10);
      }
    });
  }
  for (auto& th : threads) th.join();
  // All 64 windows are 10 ns long and disjoint -> busy time 640.
  EXPECT_EQ(link.busy_time(), 640);
  EXPECT_EQ(link.busy_until(), 640);
  for (const auto& w : windows) {
    EXPECT_EQ(w.end - w.start, 10);
  }
}

TEST(LinkSchedulerTest, ZeroByteReserveIsInstant) {
  LinkScheduler link("l", 1.0);
  TransferWindow w = link.Reserve(50, 0);
  EXPECT_EQ(w.start, w.end);
}

}  // namespace
}  // namespace dfi::net
