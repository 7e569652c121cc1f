#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <vector>

#include "common/exec/engine.h"
#include "common/random.h"

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
  // Eight actors take turns: each yields after every reservation, so the
  // 64 reservations reach the link interleaved.
  LinkScheduler link("l", 1.0);
  std::vector<TransferWindow> windows(64);
  exec::Engine engine;
  for (int t = 0; t < 8; ++t) {
    engine.Spawn(static_cast<uint32_t>(t), "reserver", [&, t] {
      for (int i = 0; i < 8; ++i) {
        windows[t * 8 + i] = link.Reserve(0, 10);
        exec::Engine::Yield(i + 1);
      }
    });
  }
  engine.Run();
  // Actor 0's second reservation follows the other seven actors' first.
  EXPECT_EQ(windows[1].start, 80);
  // All 64 windows are 10 ns long and disjoint -> busy time 640.
  EXPECT_EQ(link.busy_time(), 640);
  EXPECT_EQ(link.busy_until(), 640);
  std::sort(windows.begin(), windows.end(),
            [](const TransferWindow& a, const TransferWindow& b) {
              return a.start < b.start;
            });
  for (size_t k = 0; k < windows.size(); ++k) {
    EXPECT_EQ(windows[k].end - windows[k].start, 10);
    if (k > 0) {
      EXPECT_GE(windows[k].start, windows[k - 1].end);
    }
  }
}

TEST(LinkSchedulerTest, ZeroByteReserveIsInstant) {
  LinkScheduler link("l", 1.0);
  TransferWindow w = link.Reserve(50, 0);
  EXPECT_EQ(w.start, w.end);
}

/// The link's rules on a plain ordered map of gaps (start -> end): packet-
/// train backfill in time order, the horizon drop, and the kMaxGaps check
/// on tail appends only. LinkScheduler must match it window for window.
class ReferenceLink {
 public:
  explicit ReferenceLink(double bytes_per_ns)
      : ns_per_byte_(1.0 / bytes_per_ns) {}

  TransferWindow Reserve(SimTime ready, uint64_t bytes) {
    const SimTime duration = static_cast<SimTime>(
        std::llround(static_cast<double>(bytes) * ns_per_byte_));
    const SimTime horizon = exec::Engine::Horizon();
    busy_time_ += duration;
    total_bytes_ += bytes;
    while (!gaps_.empty() && gaps_.begin()->second <= horizon) {
      gaps_.erase(gaps_.begin());
    }
    SimTime remaining = duration;
    SimTime first = -1;
    SimTime end = ready;
    if (ready < busy_until_) {
      auto it = gaps_.lower_bound(ready);
      if (it != gaps_.begin() && std::prev(it)->second > ready) --it;
      while (it != gaps_.end() && remaining > 0) {
        const SimTime gap_start = it->first;
        const SimTime gap_end = it->second;
        const SimTime start = std::max(ready, gap_start);
        const SimTime used = std::min(remaining, gap_end - start);
        if (first < 0) first = start;
        end = start + used;
        remaining -= used;
        it = gaps_.erase(it);
        if (start > gap_start) gaps_.emplace(gap_start, start);
        if (end < gap_end) gaps_.emplace(end, gap_end);
      }
      if (remaining == 0) return {first, end};
    }
    const SimTime start = std::max(ready, busy_until_);
    if (start > busy_until_) {
      gaps_.emplace(busy_until_, start);
      if (gaps_.size() > kMaxGaps) {
        gaps_.erase(gaps_.begin());
        ++cap_drops_;
      }
    }
    busy_until_ = start + remaining;
    return {first < 0 ? start : first, busy_until_};
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime busy_time() const { return busy_time_; }
  uint64_t total_bytes() const { return total_bytes_; }
  size_t gap_count() const { return gaps_.size(); }
  /// Gaps dropped because a tail append exceeded kMaxGaps.
  uint64_t cap_drops() const { return cap_drops_; }

 private:
  static constexpr size_t kMaxGaps = 4096;
  const double ns_per_byte_;
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t cap_drops_ = 0;
  std::map<SimTime, SimTime> gaps_;
};

struct ReplayStats {
  size_t max_gaps = 0;     // most gaps the reference held
  uint64_t cap_drops = 0;  // gaps it dropped at kMaxGaps
};

/// Replays one seeded stream of reservations through a LinkScheduler and
/// the reference, from one engine task whose virtual time is the horizon.
ReplayStats ReplayAgainstReference(uint64_t seed) {
  Xorshift128Plus rng(seed);
  constexpr double kRates[] = {1.0, 12.5, 0.75};
  const double bytes_per_ns = kRates[rng.NextBelow(3)];
  LinkScheduler link("l", bytes_per_ns);
  ReferenceLink ref(bytes_per_ns);
  ReplayStats stats;
  exec::Engine engine;
  engine.Spawn(0, "stream", [&] {
    SimTime horizon = 0;
    SimTime last_ready = 0;
    auto reserve = [&](SimTime ready, uint64_t bytes) {
      const TransferWindow got = link.Reserve(ready, bytes);
      const TransferWindow want = ref.Reserve(ready, bytes);
      stats.max_gaps = std::max(stats.max_gaps, ref.gap_count());
      last_ready = ready;
      if (got.start != want.start || got.end != want.end ||
          link.busy_until() != ref.busy_until()) {
        ADD_FAILURE() << "seed " << seed << ": Reserve(" << ready << ", "
                      << bytes << ") gave [" << got.start << ", " << got.end
                      << ") busy until " << link.busy_until()
                      << ", reference [" << want.start << ", " << want.end
                      << ") busy until " << ref.busy_until();
        return false;
      }
      return true;
    };
    // Every eighth stream first opens more tail gaps than kMaxGaps, with
    // the horizon held at 0, so the oldest are dropped at the cap.
    if (seed % 8 == 0) {
      const uint64_t tails = 4300 + rng.NextBelow(800);
      for (uint64_t i = 0; i < tails; ++i) {
        const SimTime idle = 1 + static_cast<SimTime>(rng.NextBelow(40));
        if (!reserve(ref.busy_until() + idle, rng.NextBelow(64))) return;
      }
      // A train from time 0 starts in the oldest gap the cap kept.
      if (!reserve(0, 64 + rng.NextBelow(64))) return;
    }
    // Every fourth stream opens wide gaps, then lands short trains inside
    // them, so most of them split a gap in two.
    if (seed % 4 == 1) {
      for (int i = 0; i < 150; ++i) {
        const SimTime idle = 500 + static_cast<SimTime>(rng.NextBelow(500));
        if (!reserve(ref.busy_until() + idle, rng.NextBelow(64))) return;
      }
      for (int i = 0; i < 600; ++i) {
        const SimTime ready = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(ref.busy_until())));
        if (!reserve(ready, 1 + rng.NextBelow(16))) return;
      }
    }
    const uint64_t steps = 200 + rng.NextBelow(1800);
    for (uint64_t i = 0; i < steps; ++i) {
      const uint64_t kind = rng.NextBelow(100);
      // Sizes from sub-nanosecond (a zero-length window) to trains that
      // span many gaps.
      const uint64_t size_class = rng.NextBelow(4);
      const uint64_t bytes =
          size_class == 0   ? rng.NextBelow(8)
          : size_class == 1 ? rng.NextBelow(128)
          : size_class == 2 ? rng.NextBelow(1024)
                            : rng.NextBelow(8192);
      const SimTime busy = ref.busy_until();
      SimTime ready;
      if (kind < 30) {
        // In order, with or without idle time before it.
        ready = busy + (rng.NextBool(0.5)
                            ? 0
                            : static_cast<SimTime>(rng.NextBelow(300)));
      } else if (kind < 55 && busy > horizon) {
        // Late, anywhere between the horizon and the tail.
        ready = horizon +
                static_cast<SimTime>(rng.NextBelow(
                    static_cast<uint64_t>(busy - horizon)));
      } else if (kind < 75) {
        // Late, next to the previous reservation.
        ready = std::max<SimTime>(
            0, last_ready + static_cast<SimTime>(rng.NextBelow(200)) - 100);
      } else if (kind < 80 && busy > 0) {
        // Late, possibly behind the horizon.
        ready = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(busy)));
      } else {
        // The horizon advances, partway towards the tail.
        if (busy > horizon) {
          horizon += static_cast<SimTime>(rng.NextBelow(
              static_cast<uint64_t>(busy - horizon) / 4 + 1));
          exec::Engine::Yield(horizon);
        }
        continue;
      }
      if (!reserve(ready, bytes)) return;
    }
  });
  engine.Run();
  EXPECT_EQ(link.busy_until(), ref.busy_until()) << "seed " << seed;
  EXPECT_EQ(link.busy_time(), ref.busy_time()) << "seed " << seed;
  EXPECT_EQ(link.total_bytes(), ref.total_bytes()) << "seed " << seed;
  stats.cap_drops = ref.cap_drops();
  return stats;
}

TEST(LinkSchedulerTest, MatchesReferenceOnSeededStreams) {
  size_t max_gaps = 0;
  uint64_t cap_drops = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const ReplayStats stats = ReplayAgainstReference(seed);
    max_gaps = std::max(max_gaps, stats.max_gaps);
    cap_drops += stats.cap_drops;
    if (HasFailure()) return;
  }
  // The cap on tail appends ran, and splits still took the count past it.
  EXPECT_GT(cap_drops, 0u);
  EXPECT_GT(max_gaps, 4096u);
}

}  // namespace
}  // namespace dfi::net
